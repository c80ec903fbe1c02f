// Long-running consistency-checking service: the resident engine behind
// tools/speccc_serve (ROADMAP item 1, the "millions of users" story; cf.
// Vuotto 2018's continuously-checked requirement sets). Batch gave
// throughput on a corpus known upfront; Service gives latency and
// multi-tenancy on requests that keep arriving.
//
// Architecture: N worker threads, each owning a warm batch::TaskRunner
// (one core::Pipeline built once -- lexicon, dictionary, translator; the
// expensive construction never recurs per request), all sharing ONE
// cache::Store via ServiceOptions::pipeline.cache -- the sanctioned
// exception to the per-worker-isolation threading rule, exactly as in
// src/batch. A resident store plus kLru eviction is what makes the serve
// workload fast: hot specifications recur indefinitely.
//
// Admission control: a bounded priority queue (lower priority value =
// served sooner; FIFO within a priority via sequence numbers). When the
// queue is full -- or the service is draining -- submit() REJECTS the
// request immediately (429-style) with a retry-after hint derived from an
// EWMA of recent run times, instead of queueing unboundedly. Every
// admitted request gets exactly one response; nothing is silently
// dropped.
//
// Deadlines: a request's relative deadline (or the service default) is
// pinned to an absolute steady-clock instant at admission, so queue time
// counts against it. A request already past its deadline when a worker
// picks it up answers kDeadlineExceeded without running; one that expires
// mid-run is cancelled cooperatively through the existing
// PipelineOptions::cancelled budget plumbing (batch::RunLimits) and also
// answers kDeadlineExceeded.
//
// Shutdown: shutdown() stops admissions, lets the workers drain every
// queued and in-flight request, then joins them -- the SIGINT/SIGTERM
// contract of speccc_serve (drain, then exit 0). Idempotent; the
// destructor calls it.
//
// Transport-free by design: this header knows nothing about sockets or
// JSON. serve/protocol.hpp maps wire lines onto Request/Response and
// serve/net.hpp carries the bytes, so everything above can be tested (and
// benchmarked -- bench_serve) fully in-process.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "batch/batch.hpp"
#include "cache/store.hpp"
#include "core/pipeline.hpp"
#include "core/substrate.hpp"

namespace speccc::serve {

/// The longest deadline accepted, in milliseconds (about 116 days): far
/// inside what the steady clock's nanosecond count can add to "now". The
/// wire protocol and the --default-deadline-ms flag reject anything
/// longer.
inline constexpr double kMaxDeadlineMs = 1e10;

struct ServiceOptions {
  /// Worker threads; 0 means std::thread::hardware_concurrency().
  int workers = 0;
  /// Bounded admission queue: submissions beyond this many queued (not yet
  /// running) requests are rejected with a retry hint. Must be >= 1.
  std::size_t queue_capacity = 256;
  /// Deadline applied to requests that do not carry their own; 0 means
  /// unlimited. At most kMaxDeadlineMs / 1000.
  double default_deadline_seconds = 0.0;
  /// Per-worker pipeline configuration. `cancelled` is overwritten by the
  /// runner plumbing; `cache`, when set, is shared by every worker.
  core::PipelineOptions pipeline;
};

/// One admitted unit of work: a named specification with scheduling
/// metadata. `id` is the caller's correlation token, echoed verbatim.
struct Request {
  std::string id;
  batch::SpecTask spec;
  /// Lower = served sooner; FIFO within a priority class.
  int priority = 0;
  /// Relative deadline in seconds, measured from admission (queue time
  /// counts). <= 0 means "use the service default". At most
  /// kMaxDeadlineMs / 1000.
  double deadline_seconds = 0.0;
  /// Per-request substrate override (the wire protocol's optional
  /// "substrate" field): replaces the service pipeline's configured spec
  /// for this request only. Canonical output is unaffected -- substrates
  /// agree -- so mixed-substrate traffic stays byte-comparable with batch.
  std::optional<core::SubstrateSpec> substrate;
};

enum class ResponseKind {
  kResult,            ///< the pipeline ran to a verdict (see result.status)
  kRejected,          ///< backpressure: not admitted; retry_after_seconds set
  kDeadlineExceeded,  ///< deadline passed while queued or mid-run
  kError,             ///< internal failure outside the pipeline proper
};

[[nodiscard]] const char* response_kind_name(ResponseKind kind);

struct Response {
  std::string id;
  ResponseKind kind = ResponseKind::kError;
  /// Valid for kResult (always) and kDeadlineExceeded when the request
  /// expired mid-run (status kBudgetExhausted; partial diagnostics).
  batch::TaskResult result;
  double queue_seconds = 0.0;  ///< admission -> worker pickup
  /// kRejected only: the client should wait this long before retrying.
  double retry_after_seconds = 0.0;
  std::string error;  ///< human-readable cause for non-kResult kinds
};

/// Monotone service counters (a snapshot; see Service::stats()).
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;          ///< answered kResult
  std::uint64_t deadline_exceeded = 0;  ///< answered kDeadlineExceeded
  std::uint64_t errors = 0;             ///< answered kError
  std::size_t queue_depth = 0;          ///< point-in-time
  int workers = 0;
};

class Service {
 public:
  using Callback = std::function<void(Response)>;

  explicit Service(ServiceOptions options);
  ~Service();  // drains (shutdown())
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Admit a request. Returns true when queued: `done` will be invoked
  /// exactly once, on a worker thread, when the request resolves. Returns
  /// false on rejection (queue full or draining): `done` has already been
  /// invoked synchronously with the kRejected response. Keep callbacks
  /// cheap; they run on the worker that finished the task.
  bool submit(Request request, Callback done);

  /// Synchronous convenience for tests and benchmarks: submit + wait.
  [[nodiscard]] Response check(Request request);

  /// Stop admitting, drain every queued and in-flight request, join the
  /// workers. Idempotent; submit() after this rejects.
  void shutdown();

  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] const ServiceOptions& options() const { return options_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Item {
    Request request;
    Callback done;
    std::uint64_t seq = 0;
    Clock::time_point enqueued_at;
    bool has_deadline = false;
    Clock::time_point deadline_at;
  };

  void worker_loop(int worker_id);
  void process(Item item, batch::TaskRunner& runner);
  [[nodiscard]] double retry_hint_locked() const;

  ServiceOptions options_;
  batch::RunnerOptions runner_options_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Item> queue_;  // heap ordered by (priority, seq)
  std::uint64_t next_seq_ = 0;
  bool draining_ = false;
  double ewma_run_seconds_ = 0.05;  // retry-hint seed before any sample

  std::vector<std::thread> workers_;

  // Counters (guarded by mutex_; queue_depth derived from queue_).
  std::uint64_t submitted_ = 0;
  std::uint64_t accepted_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t deadline_exceeded_ = 0;
  std::uint64_t errors_ = 0;
};

}  // namespace speccc::serve
