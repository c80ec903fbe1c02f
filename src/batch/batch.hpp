// Parallel batch checking: many specifications through the Fig. 1 pipeline
// concurrently (cf. Vuotto 2018 on continuously checked requirement sets).
//
// Threading rule: everything mutable is per worker. Each worker owns its
// own core::Pipeline (hence its own lexicon/dictionary copies and, inside
// every synthesis call, its own bdd::Manager -- the manager is
// single-threaded by design) and its own diagnostics sink (failures are
// captured into the task's result, never a shared stream). The only shared
// mutable state the workers touch is the formula intern arena, which is
// mutex-protected, and the scheduler's own deques.
//
// Scheduling is work-stealing: tasks are dealt round-robin across
// per-worker deques; a worker pops its own deque in input order and, when
// empty, steals from the back of a victim's deque, so long specifications
// (e.g. Table I's rows 2.2.2 / 3.2) do not serialize the tail of a batch
// and a one-worker batch degenerates to exactly the sequential loop.
//
// Determinism contract: the report lists results in input order, and every
// non-timing field of every result is a pure function of the task -- the
// same batch yields byte-identical canonical() output for any worker
// count. Timings, worker ids, and steal counts are diagnostics and are
// excluded from the canonical form.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bdd/bdd.hpp"
#include "cache/store.hpp"
#include "core/pipeline.hpp"
#include "core/substrate.hpp"
#include "synth/bounded.hpp"
#include "translate/translator.hpp"

namespace speccc::batch {

/// One unit of work: a named specification, checked by a whole-spec
/// pipeline run.
struct SpecTask {
  std::string name;
  std::vector<translate::RequirementText> requirements;
};

enum class TaskStatus {
  kConsistent,        // realizable (possibly after refinement)
  kInconsistent,      // definitively unrealizable
  kError,             // the pipeline threw (parse error, internal error, ...)
  kBudgetExhausted,   // the per-task time budget ran out at a poll
  kCancelled,         // the batch-wide cancel flag was raised
};

[[nodiscard]] const char* status_name(TaskStatus status);

/// Substrate cross-check (optional): the same spec re-decided by every
/// registered substrate separately. Mirrors the difftest oracle's
/// agreement property: opposite *definite* verdicts are a disagreement,
/// kUnknown never is.
struct AgreementStats {
  bool checked = false;
  /// (substrate name, verdict) in registry order (tableau, bounded,
  /// symbolic for the builtins). Inapplicable substrates abstain with
  /// kUnknown. Input-pure, so part of canonical().
  std::vector<std::pair<std::string, synth::Realizability>> verdicts;

  /// The verdict of one substrate; kUnknown when absent.
  [[nodiscard]] synth::Realizability verdict_of(std::string_view name) const {
    for (const auto& entry : verdicts) {
      if (entry.first == name) return entry.second;
    }
    return synth::Realizability::kUnknown;
  }

  [[nodiscard]] bool agree() const {
    using R = synth::Realizability;
    bool realizable = false;
    bool unrealizable = false;
    for (const auto& entry : verdicts) {
      realizable |= entry.second == R::kRealizable;
      unrealizable |= entry.second == R::kUnrealizable;
    }
    return !checked || !(realizable && unrealizable);
  }
};

struct TaskResult {
  std::string name;
  TaskStatus status = TaskStatus::kError;
  std::string detail;  // error message / cancellation reason
  std::size_t formulas = 0;
  std::size_t inputs = 0;
  std::size_t outputs = 0;
  bool refined = false;  // consistency restored by partition adjustment
  std::vector<std::string> unsatisfiable_requirements;
  /// Requirement ids of the stage-3 minimal inconsistent subset (MUS),
  /// present whenever refinement ran (even when an adjustment then
  /// restored consistency -- the MUS names the sentences that clashed
  /// under the original partition). Input-pure, so part of canonical().
  std::vector<std::string> mus;
  /// Requirement ids of each minimal correction set, smallest first;
  /// filled for genuinely inconsistent specs when the pipeline's
  /// LocalizeOptions asked for them (speccc_batch --diagnose). Input-pure,
  /// part of canonical().
  std::vector<std::vector<std::string>> correction_sets;
  AgreementStats agreement;
  // Diagnostics (excluded from the canonical form):
  /// Which substrate produced the stage-2 verdict ("tableau", "bounded",
  /// "symbolic"; empty for errored/cancelled tasks and pre-substrate cache
  /// hits). Under a race spec this is the winner -- timing-dependent, so a
  /// diagnostic like the timings.
  std::string substrate;
  /// Per-racer wall/verdict stats when stage 2 actually raced (kRace spec,
  /// cache miss); see core/portfolio.hpp.
  std::optional<core::PortfolioStats> portfolio;
  /// Per-task cache accounting (thread-local deltas, see
  /// cache::Store::thread_stats()): exact hits/misses/evictions this task
  /// caused, meaningful only when the pipeline ran with a store attached.
  /// Diagnostics like the timings -- two workers racing on a miss make
  /// these input-impure.
  cache::StatsSnapshot cache;
  double seconds = 0.0;  // whole-task wall clock on its worker
  double translation_seconds = 0.0;
  double synthesis_seconds = 0.0;
  double refinement_seconds = 0.0;
  double screen_seconds = 0.0;  // satisfiability screen (inconsistent only)
  int worker = -1;  // which worker ran it
  /// BDD-manager counters of the task's initial synthesis (zero when the
  /// bounded engine decided it). Every worker owns its managers, so these
  /// are per-task-deterministic, but they are engine diagnostics like the
  /// timings and stay out of canonical().
  bdd::Stats bdd;
};

/// Batch-wide BDD engine aggregate: counters summed over every task that
/// ran the symbolic engine, peak nodes as the max over tasks (managers are
/// per-call, so sums of peaks would be meaningless).
struct BddAggregate {
  std::size_t tasks = 0;  ///< tasks decided by the symbolic engine
  std::size_t peak_nodes_max = 0;
  std::size_t unique_hits = 0;
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  std::size_t cache_evictions = 0;
};

/// Configuration of one warm task-execution engine (TaskRunner below):
/// the per-worker slice of BatchOptions, reused by the serve worker pool.
struct RunnerOptions {
  /// Pipeline configuration. PipelineOptions::cancelled is overwritten by
  /// the runner (it carries the budget/cancel polling); cache, when set,
  /// may be shared across runners (the store is thread-safe).
  core::PipelineOptions pipeline;
  /// Re-decide every spec with every registered substrate and record
  /// agreement (see BatchOptions::check_agreement).
  bool check_agreement = false;
};

/// Per-run limits (see core::RunLimits, defined next to the substrate
/// layer it carries the per-request override for).
using RunLimits = core::RunLimits;

/// A warm per-worker execution engine: one core::Pipeline built once
/// (lexicon/dictionary/translator construction is the expensive part),
/// then reused across tasks with per-run budget/cancel wiring. This is
/// the unit both batch::check workers and serve::Service workers are made
/// of. Not thread-safe: one runner belongs to one thread.
class TaskRunner {
 public:
  TaskRunner(int worker_id, const RunnerOptions& options);
  ~TaskRunner();
  TaskRunner(const TaskRunner&) = delete;
  TaskRunner& operator=(const TaskRunner&) = delete;

  /// Run one task under the given limits. Never throws for per-task
  /// failures (they become kError/kBudgetExhausted/kCancelled results).
  [[nodiscard]] TaskResult run(const SpecTask& task,
                               const RunLimits& limits = {});

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

struct BatchOptions {
  /// Worker threads; 0 means std::thread::hardware_concurrency().
  int jobs = 0;
  /// Per-worker pipeline configuration. PipelineOptions::cancelled is
  /// overwritten by the scheduler (it carries the budget/cancel polling).
  /// PipelineOptions::cache, when set, is shared by every worker (the
  /// store is sharded and thread-safe -- the sanctioned exception to the
  /// per-worker-isolation rule); persist one store across batches for
  /// cross-batch reuse. Repeated and revised specifications then skip
  /// re-parsing unchanged sentences and re-deciding unchanged formulas.
  core::PipelineOptions pipeline;
  /// Per-task wall-clock budget in seconds; 0 means unlimited. Polled at
  /// pipeline stage boundaries and inside every engine after translation
  /// -- synthesis, refinement, the satisfiability screen (see
  /// PipelineOptions::cancelled); only stage 1 in flight finishes.
  double task_time_budget_seconds = 0.0;
  /// Batch-wide cancellation: raise to drain the queue. Running tasks stop
  /// at their next poll (see task_time_budget_seconds); queued tasks are
  /// marked kCancelled without running.
  const std::atomic<bool>* cancel = nullptr;
  /// Re-decide every spec with every registered substrate and record
  /// agreement (multiplies the cost; the bounded substrate runs under
  /// fixed give-up caps and answers kUnknown beyond them, which never
  /// counts as disagreement). The agreement pass always runs the
  /// substrates directly -- it is never answered from pipeline.cache, so a
  /// cached batch still cross-checks for real.
  bool check_agreement = false;
  /// Completion callback, invoked under the scheduler lock in completion
  /// order (not input order). Keep it cheap; it may run on any worker.
  std::function<void(const TaskResult&)> on_result;
};

struct BatchReport {
  std::vector<TaskResult> results;  // input order, always same size as tasks
  int jobs = 1;
  double wall_seconds = 0.0;  // whole-batch wall clock
  std::size_t steals = 0;     // scheduler diagnostics
  std::size_t consistent = 0;
  std::size_t inconsistent = 0;
  std::size_t errors = 0;
  std::size_t budget_exhausted = 0;
  std::size_t cancelled = 0;
  std::size_t disagreements = 0;  // only when check_agreement
  /// Cache statistics scoped to this batch (stats delta over the run);
  /// meaningful only when cache_enabled. Diagnostics, like timings and
  /// steal counts: concurrent workers race on misses (two workers can
  /// both miss the same key and both compute it), so the counters are not
  /// a pure function of the inputs and are excluded from canonical().
  bool cache_enabled = false;
  cache::StatsSnapshot cache_stats;
  /// Per-worker bdd::Manager counters aggregated over the batch (see
  /// BddAggregate). Diagnostics; excluded from canonical().
  BddAggregate bdd;

  [[nodiscard]] bool all_consistent() const {
    return consistent == results.size();
  }
  /// Aggregate CPU seconds across tasks (compare against wall_seconds for
  /// the effective speedup).
  [[nodiscard]] double cpu_seconds() const;
};

/// Check every task. Deterministic in everything but timings/worker ids;
/// never throws for per-task failures (they become kError results).
[[nodiscard]] BatchReport check(const std::vector<SpecTask>& tasks,
                                const BatchOptions& options = {});

/// The determinism contract in printable form: name, status, scale,
/// refinement, unsatisfiable requirements, and agreement verdicts of every
/// result in input order -- no timings, worker ids, or steal counts. Equal
/// strings for any jobs count, including jobs=1.
[[nodiscard]] std::string canonical(const BatchReport& report);

/// One result's canonical rendering (a single newline-terminated line),
/// exactly the line canonical() emits for it. The serve protocol embeds
/// this so daemon verdicts are byte-comparable with speccc_batch output.
[[nodiscard]] std::string canonical_line(const TaskResult& result);

/// Machine-readable report (timings included) for CI artifacts.
[[nodiscard]] std::string to_json(const BatchReport& report);

/// Human-readable per-spec table plus totals.
void print_summary(std::ostream& os, const BatchReport& report);

}  // namespace speccc::batch
