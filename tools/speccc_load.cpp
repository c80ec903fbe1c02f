// speccc_load: load generator and soak client for speccc_serve.
//
// Drives the NDJSON protocol over loopback TCP with a workload of
// generated or corpus specifications, measures per-request latency, and
// verifies the protocol contract as it goes: every request gets exactly
// one well-formed response, correlated by id. Two modes:
//
//   closed-loop (default): --connections C threads, each holding one
//     connection with one request outstanding -- throughput follows
//     service capacity, the classic soak shape.
//   open-loop: --rate R sends R requests/second on one connection
//     regardless of completions (a reader thread collects responses), so
//     queueing and backpressure actually engage.
//
// Workload: --generate N, --seed S and --corpus NAME, read as speccc_batch
// reads them (the shared flag table of docs/TOOLS.md), so outputs are
// comparable; and
//   --requests M            total requests (default: workload size; larger
//                           cycles the workload round-robin)
//
// Scheduling mix:
//   --substrate SPEC        attach a per-request "substrate" field to every
//                           check ("auto", tableau | bounded | symbolic, or
//                           "race:a,b,..."); validated locally before the
//                           run, so a typo fails fast instead of filling
//                           the report with protocol errors
//   --deadline-ms D         deadline on selected requests (default none)
//   --deadline-fraction F   fraction of requests carrying the deadline
//                           (default 1.0 when --deadline-ms is set; picked
//                           deterministically: request k has a deadline iff
//                           fract(k * F) < F as computed by index striding)
//   --priority-spread P     cycle priorities 0..P-1 across requests
//
// Output and checking:
//   --canonical-out FILE    write each verdict's embedded canonical line,
//                           in request order, to FILE -- diffable against
//                           `speccc_batch --canonical` for the same
//                           workload (the CI serve smoke does exactly
//                           this). Requires every request to answer
//                           "result" (no deadlines/rejections in the run).
//   --quiet                 suppress the per-run latency report
//
// The report prints counts by response kind and latency p50/p95/p99.
// Rejections and deadline-exceeded responses are EXPECTED protocol
// outcomes, not errors. Exit codes: 0 no protocol errors; 3 protocol
// errors (missing/duplicate/malformed response, server "error" kind, or
// --canonical-out with a non-result answer); 1 usage or connect failure.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "batch/batch.hpp"
#include "cli.hpp"
#include "serve/net.hpp"
#include "util/args.hpp"
#include "util/diagnostics.hpp"
#include "util/json.hpp"

namespace {

using Clock = std::chrono::steady_clock;

int usage() {
  std::cerr
      << "usage: speccc_load (--port N | --port-file FILE)\n"
         "                   [--generate N] [--seed S] [--corpus NAME]\n"
         "                   [--requests M] [--connections C] [--rate R]\n"
         "                   [--substrate auto|NAME|race:a,b,...]\n"
         "                   [--duration S] [--deadline-ms D]\n"
         "                   [--deadline-fraction F] [--priority-spread P]\n"
         "                   [--canonical-out FILE] [--quiet]\n";
  return 1;
}

struct PlannedRequest {
  std::string id;
  std::string line;  // rendered NDJSON, newline-terminated
};

struct Outcome {
  std::string kind;
  std::string canonical;
  double latency_seconds = 0.0;
  bool answered = false;
};

/// Shared run state: the request plan, one outcome slot per request, and
/// the protocol-error tally.
struct Run {
  std::vector<PlannedRequest> plan;
  std::vector<Outcome> outcomes;  // indexed like plan
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> protocol_errors{0};
  std::mutex mutex;  // guards outcomes writes from reader threads
};

std::size_t index_of(const Run& run, const std::string& id) {
  // Ids are "q<index>"; anything else is a protocol error.
  if (id.size() < 2 || id[0] != 'q') return run.plan.size();
  std::size_t index = 0;
  for (std::size_t i = 1; i < id.size(); ++i) {
    if (id[i] < '0' || id[i] > '9') return run.plan.size();
    index = index * 10 + static_cast<std::size_t>(id[i] - '0');
  }
  return index < run.plan.size() ? index : run.plan.size();
}

/// Record one response line against its request. Returns false on a
/// protocol violation (unparseable, unknown id, duplicate).
bool record_response(Run& run, const std::string& line,
                     const std::map<std::size_t, Clock::time_point>& sent_at) {
  using speccc::util::json::Kind;
  std::string kind;
  std::string id;
  std::string canonical;
  try {
    const auto doc = speccc::util::json::parse(line);
    if (doc.kind() != Kind::kObject) throw speccc::util::ParseError("not an object");
    if (const auto* v = doc.find("id"); v != nullptr) id = v->as_string();
    if (const auto* v = doc.find("kind"); v != nullptr) kind = v->as_string();
    if (const auto* v = doc.find("canonical"); v != nullptr) {
      canonical = v->as_string();
    }
  } catch (const std::exception& e) {
    std::cerr << "protocol error: unparseable response: " << e.what() << "\n";
    return false;
  }
  const std::size_t index = index_of(run, id);
  if (index >= run.plan.size() || kind.empty()) {
    std::cerr << "protocol error: response with unknown id \"" << id << "\"\n";
    return false;
  }
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(run.mutex);
  Outcome& outcome = run.outcomes[index];
  if (outcome.answered) {
    std::cerr << "protocol error: duplicate response for \"" << id << "\"\n";
    return false;
  }
  outcome.answered = true;
  outcome.kind = kind;
  outcome.canonical = std::move(canonical);
  if (const auto it = sent_at.find(index); it != sent_at.end()) {
    outcome.latency_seconds =
        std::chrono::duration<double>(now - it->second).count();
  }
  if (kind == "error") {
    std::cerr << "protocol error: server error for \"" << id << "\": " << line
              << "\n";
    return false;
  }
  return true;
}

/// Closed-loop worker: one connection, one request outstanding at a time.
void closed_loop_worker(std::uint16_t port, Run& run) {
  speccc::serve::net::Socket socket;
  try {
    socket = speccc::serve::net::dial(port);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    run.protocol_errors.fetch_add(1);
    return;
  }
  speccc::serve::net::LineReader reader(socket);
  std::map<std::size_t, Clock::time_point> sent_at;
  std::string line;
  for (;;) {
    const std::size_t index = run.next.fetch_add(1);
    if (index >= run.plan.size()) return;
    sent_at[index] = Clock::now();
    if (!socket.send_all(run.plan[index].line)) {
      std::cerr << "protocol error: connection lost mid-run\n";
      run.protocol_errors.fetch_add(1);
      return;
    }
    if (!reader.read_line(line)) {
      std::cerr << "protocol error: connection closed before response\n";
      run.protocol_errors.fetch_add(1);
      return;
    }
    if (!record_response(run, line, sent_at)) run.protocol_errors.fetch_add(1);
  }
}

/// Open-loop run: pace sends on one connection at `rate` req/s; a reader
/// thread collects responses until all sent requests have answered or the
/// connection closes.
void open_loop_run(std::uint16_t port, Run& run, double rate,
                   double duration_seconds) {
  speccc::serve::net::Socket socket;
  try {
    socket = speccc::serve::net::dial(port);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    run.protocol_errors.fetch_add(1);
    return;
  }

  std::mutex sent_mutex;
  std::map<std::size_t, Clock::time_point> sent_at;
  std::atomic<std::size_t> sent_count{0};
  std::atomic<bool> sending_done{false};

  std::thread reader_thread([&] {
    speccc::serve::net::LineReader reader(socket);
    std::string line;
    std::size_t received = 0;
    for (;;) {
      if (sending_done.load() && received >= sent_count.load()) return;
      if (!reader.read_line(line)) {
        if (!sending_done.load() || received < sent_count.load()) {
          std::cerr << "protocol error: connection closed with "
                    << (sent_count.load() - received) << " responses pending\n";
          run.protocol_errors.fetch_add(1);
        }
        return;
      }
      ++received;
      std::map<std::size_t, Clock::time_point> snapshot;
      {
        std::lock_guard<std::mutex> lock(sent_mutex);
        snapshot = sent_at;
      }
      if (!record_response(run, line, snapshot)) {
        run.protocol_errors.fetch_add(1);
      }
    }
  });

  const Clock::time_point start = Clock::now();
  const auto interval =
      std::chrono::duration<double>(rate > 0.0 ? 1.0 / rate : 0.0);
  for (std::size_t index = 0; index < run.plan.size(); ++index) {
    const Clock::time_point slot =
        start + std::chrono::duration_cast<Clock::duration>(
                    interval * static_cast<double>(index));
    std::this_thread::sleep_until(slot);
    if (duration_seconds > 0.0 &&
        std::chrono::duration<double>(Clock::now() - start).count() >
            duration_seconds) {
      break;
    }
    {
      std::lock_guard<std::mutex> lock(sent_mutex);
      sent_at[index] = Clock::now();
    }
    sent_count.fetch_add(1);
    if (!socket.send_all(run.plan[index].line)) {
      std::cerr << "protocol error: connection lost mid-run\n";
      run.protocol_errors.fetch_add(1);
      break;
    }
  }
  sending_done.store(true);
  reader_thread.join();
}

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const std::size_t low = static_cast<std::size_t>(rank);
  const std::size_t high = std::min(low + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(low);
  return sorted[low] * (1.0 - frac) + sorted[high] * frac;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace speccc;

  int port = 0;
  std::string port_file;
  int generate_count = 0;
  std::uint64_t seed = 1;
  std::vector<batch::SpecTask> workload;
  std::size_t requests = 0;
  int connections = 1;
  double rate = 0.0;
  double duration_seconds = 0.0;
  double deadline_ms = 0.0;
  double deadline_fraction = -1.0;
  int priority_spread = 1;
  std::string substrate_spec;
  std::string canonical_out;
  bool quiet = false;

  try {
    util::Args args(argc, argv);
    while (args.advance()) {
      const std::string& arg = args.flag();
      if (arg == "--port") port = args.number(0, 65535);
      else if (arg == "--port-file") port_file = args.next();
      else if (arg == "--generate") generate_count = args.number(0);
      else if (arg == "--seed") seed = args.number(std::uint64_t{0});
      else if (arg == "--corpus") workload = cli::corpus_tasks(args.next());
      else if (arg == "--requests") requests = args.number(std::size_t{0});
      else if (arg == "--connections") connections = args.number(1);
      else if (arg == "--rate") rate = args.number(0.0);
      else if (arg == "--duration") duration_seconds = args.number(0.0);
      else if (arg == "--deadline-ms") deadline_ms = args.number(0.0);
      else if (arg == "--deadline-fraction") {
        deadline_fraction = args.number(0.0, 1.0);
      } else if (arg == "--priority-spread") priority_spread = args.number(1);
      else if (arg == "--substrate") {
        substrate_spec = args.next();
        (void)cli::substrate(substrate_spec);
      } else if (arg == "--canonical-out") canonical_out = args.next();
      else if (arg == "--quiet") quiet = true;
      else throw util::UsageError("unknown option: " + arg);
    }
  } catch (const util::UsageError& e) {
    std::cerr << e.what() << "\n";
    return usage();
  }

  if (!port_file.empty()) {
    std::ifstream in(port_file);
    if (!(in >> port)) {
      std::cerr << "cannot read a port from " << port_file << "\n";
      return 1;
    }
  }
  if (port <= 0 || port > 65535) {
    std::cerr << "need --port or --port-file naming a TCP port\n";
    return usage();
  }

  // The workload, in the same order speccc_batch would check it: the
  // corpus, then the generated specs.
  try {
    for (batch::SpecTask& task : cli::generated_tasks(seed, generate_count)) {
      workload.push_back(std::move(task));
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  if (workload.empty()) {
    std::cerr << "no workload (--generate or --corpus)\n";
    return usage();
  }
  if (requests == 0) requests = workload.size();
  if (deadline_ms > 0.0 && deadline_fraction < 0.0) deadline_fraction = 1.0;
  if (deadline_fraction < 0.0) deadline_fraction = 0.0;

  // Render every request line upfront so the send path is pure I/O.
  Run run;
  run.plan.reserve(requests);
  run.outcomes.resize(requests);
  double deadline_acc = 0.0;
  for (std::size_t k = 0; k < requests; ++k) {
    const batch::SpecTask& spec = workload[k % workload.size()];
    util::json::Array reqs;
    for (const translate::RequirementText& r : spec.requirements) {
      reqs.emplace_back(util::json::Object{{"id", r.id}, {"text", r.text}});
    }
    util::json::Object o{{"method", "check"},
                         {"id", "q" + std::to_string(k)},
                         {"name", spec.name},
                         {"requirements", std::move(reqs)}};
    if (!substrate_spec.empty()) o["substrate"] = substrate_spec;
    if (priority_spread > 1) {
      o["priority"] = k % static_cast<std::size_t>(priority_spread);
    }
    // Deterministic deadline mix: an accumulator crosses 1.0 on exactly
    // round(fraction * requests) of the indices.
    deadline_acc += deadline_fraction;
    if (deadline_ms > 0.0 && deadline_acc >= 1.0) {
      deadline_acc -= 1.0;
      o["deadline_ms"] = deadline_ms;
    }
    PlannedRequest planned;
    planned.id = "q" + std::to_string(k);
    util::json::write(planned.line, std::move(o));
    planned.line += '\n';
    run.plan.push_back(std::move(planned));
  }

  const Clock::time_point start = Clock::now();
  if (rate > 0.0) {
    open_loop_run(static_cast<std::uint16_t>(port), run, rate,
                  duration_seconds);
  } else {
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(connections));
    for (int c = 0; c < connections; ++c) {
      workers.emplace_back(closed_loop_worker, static_cast<std::uint16_t>(port),
                           std::ref(run));
    }
    for (std::thread& worker : workers) worker.join();
  }
  const double wall =
      std::chrono::duration<double>(Clock::now() - start).count();

  // Tally. Unanswered requests that were never sent (open-loop --duration
  // cut the plan short) are fine; unanswered SENT requests were already
  // counted as protocol errors by the readers.
  std::size_t results = 0, rejected = 0, deadline_exceeded = 0, unanswered = 0;
  std::vector<double> latencies;
  for (const Outcome& outcome : run.outcomes) {
    if (!outcome.answered) {
      ++unanswered;
      continue;
    }
    latencies.push_back(outcome.latency_seconds);
    if (outcome.kind == "result") ++results;
    else if (outcome.kind == "rejected") ++rejected;
    else if (outcome.kind == "deadline-exceeded") ++deadline_exceeded;
  }
  std::sort(latencies.begin(), latencies.end());

  if (!canonical_out.empty()) {
    std::ofstream out(canonical_out);
    if (!out) {
      std::cerr << "cannot write " << canonical_out << "\n";
      return 1;
    }
    for (std::size_t k = 0; k < run.outcomes.size(); ++k) {
      const Outcome& outcome = run.outcomes[k];
      if (!outcome.answered || outcome.kind != "result") {
        std::cerr << "canonical-out: request q" << k
                  << " did not answer with a result ("
                  << (outcome.answered ? outcome.kind : "unanswered")
                  << ")\n";
        run.protocol_errors.fetch_add(1);
        continue;
      }
      out << outcome.canonical << "\n";
    }
  }

  if (!quiet) {
    std::cerr << "speccc_load: " << run.plan.size() << " planned, " << results
              << " results, " << rejected << " rejected, " << deadline_exceeded
              << " deadline-exceeded, " << unanswered << " unanswered in "
              << wall << "s\n";
    if (!latencies.empty()) {
      std::cerr << "  latency p50=" << percentile(latencies, 0.50) * 1000.0
                << "ms p95=" << percentile(latencies, 0.95) * 1000.0
                << "ms p99=" << percentile(latencies, 0.99) * 1000.0 << "ms\n";
    }
  }
  return run.protocol_errors.load() == 0 ? 0 : 3;
}
