#include "batch/batch.hpp"

#include <algorithm>
#include <deque>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>
#include <thread>

#include "synth/symbolic_engine.hpp"
#include "synth/synthesizer.hpp"
#include "util/diagnostics.hpp"
#include "util/json.hpp"

namespace speccc::batch {

const char* status_name(TaskStatus status) {
  switch (status) {
    case TaskStatus::kConsistent: return "consistent";
    case TaskStatus::kInconsistent: return "inconsistent";
    case TaskStatus::kError: return "error";
    case TaskStatus::kBudgetExhausted: return "budget-exhausted";
    case TaskStatus::kCancelled: return "cancelled";
  }
  return "?";
}

namespace {

/// Per-task budget state read by the worker pipeline's cancelled functor.
/// Lives in a shared_ptr because PipelineOptions copies the functor into
/// the worker's long-lived Pipeline while the worker resets the state
/// between tasks.
struct BudgetState {
  util::Stopwatch clock;
  double budget_seconds = 0.0;
  const std::atomic<bool>* cancel = nullptr;

  [[nodiscard]] bool externally_cancelled() const {
    return cancel != nullptr && cancel->load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool expired() const {
    return (budget_seconds > 0.0 && clock.seconds() > budget_seconds) ||
           externally_cancelled();
  }
};

/// Work-stealing deques: round-robin dealt; the owner pops from the front
/// (input order -- a one-worker batch is exactly the sequential loop) and
/// thieves steal from the back, the tasks the owner would reach last.
/// Tasks are all known upfront and never re-queued, so a worker may exit
/// as soon as every deque is empty (in-flight tasks belong to their
/// workers). A small per-deque mutex is deliberate: task granularity is a
/// whole pipeline run (milliseconds to seconds), so queue contention is
/// noise and a lock-free Chase-Lev deque would buy nothing but risk.
class StealingQueues {
 public:
  StealingQueues(std::size_t workers, std::size_t tasks) : queues_(workers) {
    for (std::size_t t = 0; t < tasks; ++t) {
      queues_[t % workers].items.push_back(t);
    }
  }

  /// Next task for `self`: own deque first, then steal. Returns false when
  /// every deque is empty.
  bool next(std::size_t self, std::size_t& out, std::size_t& steals) {
    {
      Queue& own = queues_[self];
      std::lock_guard<std::mutex> lock(own.mutex);
      if (!own.items.empty()) {
        out = own.items.front();
        own.items.pop_front();
        return true;
      }
    }
    for (std::size_t i = 1; i < queues_.size(); ++i) {
      Queue& victim = queues_[(self + i) % queues_.size()];
      std::lock_guard<std::mutex> lock(victim.mutex);
      if (!victim.items.empty()) {
        out = victim.items.back();
        victim.items.pop_back();
        ++steals;
        return true;
      }
    }
    return false;
  }

 private:
  struct Queue {
    std::mutex mutex;
    std::deque<std::size_t> items;
  };
  std::vector<Queue> queues_;
};

/// Caps for the agreement pass's bounded run, the difftest oracle's
/// give-up caps: the pipeline's own unbounded defaults would let one
/// adversarial spec stall the whole batch.
const synth::BoundedOptions kAgreementBounded = {.max_k = 4,
                                                 .extract = false,
                                                 .max_game_positions = 20'000,
                                                 .max_ucw_states = 150,
                                                 .cancelled = {}};

/// Opposite-definite-verdict cross-check of one already-translated spec:
/// every registered substrate re-decides it independently (the batch
/// counterpart of the difftest oracle). Inapplicable substrates --
/// symbolic outside its fragment, bounded beyond the alphabet cap --
/// abstain with kUnknown, which never counts as disagreement.
AgreementStats check_substrates(const core::PipelineResult& pipeline_result) {
  AgreementStats stats;
  stats.checked = true;

  const std::vector<ltl::Formula> formulas =
      pipeline_result.translation.formulas();
  const synth::IoSignature signature =
      partition::signature(pipeline_result.partition);

  synth::SynthesisOptions options;
  options.bounded = kAgreementBounded;

  const core::SubstrateRegistry& registry = core::SubstrateRegistry::global();
  for (const std::string& name : registry.names()) {
    const core::Substrate* substrate = registry.find(name);
    synth::Realizability verdict = synth::Realizability::kUnknown;
    try {
      verdict = substrate->check(formulas, signature, options, {}).verdict;
    } catch (const util::SpecError&) {
      // Inapplicable: the substrate abstains.
    }
    stats.verdicts.emplace_back(name, verdict);
  }
  return stats;
}

}  // namespace

struct TaskRunner::Impl {
  int id;
  RunnerOptions options;
  std::shared_ptr<BudgetState> budget;
  std::unique_ptr<core::Pipeline> pipeline;
};

TaskRunner::TaskRunner(int worker_id, const RunnerOptions& options)
    : impl_(std::make_unique<Impl>()) {
  impl_->id = worker_id;
  impl_->options = options;
  impl_->budget = std::make_shared<BudgetState>();

  core::PipelineOptions pipeline_options = options.pipeline;
  const std::shared_ptr<BudgetState> budget = impl_->budget;
  pipeline_options.cancelled = [budget] { return budget->expired(); };
  impl_->pipeline = std::make_unique<core::Pipeline>(std::move(pipeline_options));
}

TaskRunner::~TaskRunner() = default;

TaskResult TaskRunner::run(const SpecTask& task, const RunLimits& limits) {
  BudgetState& budget = *impl_->budget;
  budget.budget_seconds = limits.budget_seconds;
  budget.cancel = limits.cancel;

  TaskResult result;
  result.name = task.name;
  result.worker = impl_->id;

  if (budget.externally_cancelled()) {
    result.status = TaskStatus::kCancelled;
    result.detail = "cancelled before the task started";
    return result;
  }

  const bool track_cache = impl_->options.pipeline.cache != nullptr;
  const cache::StatsSnapshot cache_before =
      track_cache ? cache::Store::thread_stats() : cache::StatsSnapshot{};

  budget.clock.reset();
  util::Stopwatch task_clock;
  try {
    const core::PipelineResult pipeline_result =
        impl_->pipeline->run(task.name, task.requirements, limits.substrate);
    result.status = pipeline_result.consistent ? TaskStatus::kConsistent
                                               : TaskStatus::kInconsistent;
    result.formulas = pipeline_result.num_formulas();
    result.inputs = pipeline_result.num_inputs();
    result.outputs = pipeline_result.num_outputs();
    result.refined = pipeline_result.refinement.has_value() &&
                     pipeline_result.refinement->consistent;
    result.unsatisfiable_requirements =
        pipeline_result.unsatisfiable_requirements;
    if (pipeline_result.refinement.has_value()) {
      // Map localization indices onto requirement ids: the diagnosis the
      // user reads names sentences, not positions.
      const auto& requirements = pipeline_result.translation.requirements;
      const auto id_of = [&requirements](std::size_t i) {
        return i < requirements.size() ? requirements[i].id
                                       : "#" + std::to_string(i);
      };
      const refine::Localization& loc =
          pipeline_result.refinement->localization;
      for (std::size_t i : loc.core) result.mus.push_back(id_of(i));
      for (const auto& mcs : loc.correction_sets) {
        std::vector<std::string> ids;
        ids.reserve(mcs.size());
        for (std::size_t i : mcs) ids.push_back(id_of(i));
        result.correction_sets.push_back(std::move(ids));
      }
    }
    result.translation_seconds = pipeline_result.translation_seconds;
    result.synthesis_seconds = pipeline_result.synthesis_seconds;
    result.refinement_seconds = pipeline_result.refinement_seconds;
    result.screen_seconds = pipeline_result.screen_seconds;
    if (pipeline_result.synthesis.engine_used == synth::Engine::kSymbolic) {
      result.bdd = pipeline_result.synthesis.bdd_stats;
    }
    result.substrate = pipeline_result.synthesis.substrate_used;
    result.portfolio = pipeline_result.portfolio;
    if (impl_->options.check_agreement) {
      result.agreement = check_substrates(pipeline_result);
    }
  } catch (const util::CancelledError& e) {
    result.status = budget.externally_cancelled() ? TaskStatus::kCancelled
                                                  : TaskStatus::kBudgetExhausted;
    result.detail = e.what();
  } catch (const std::exception& e) {
    result.status = TaskStatus::kError;
    result.detail = e.what();
  }
  result.seconds = task_clock.seconds();
  if (track_cache) {
    result.cache = cache::Store::thread_stats().since(cache_before);
  }
  return result;
}

double BatchReport::cpu_seconds() const {
  double total = 0.0;
  for (const TaskResult& r : results) total += r.seconds;
  return total;
}

BatchReport check(const std::vector<SpecTask>& tasks,
                  const BatchOptions& options) {
  BatchReport report;
  int jobs = options.jobs;
  if (jobs <= 0) {
    jobs = static_cast<int>(std::thread::hardware_concurrency());
    if (jobs <= 0) jobs = 1;
  }
  jobs = std::min(jobs,
                  static_cast<int>(std::max<std::size_t>(tasks.size(), 1)));
  report.jobs = jobs;
  report.results.resize(tasks.size());
  report.cache_enabled = options.pipeline.cache != nullptr;
  if (tasks.empty()) return report;

  const cache::StatsSnapshot stats_before =
      report.cache_enabled ? options.pipeline.cache->stats()
                           : cache::StatsSnapshot{};

  util::Stopwatch wall;
  StealingQueues queues(static_cast<std::size_t>(jobs), tasks.size());
  std::mutex report_mutex;  // guards results slots' publication + on_result
  std::atomic<std::size_t> total_steals{0};

  RunnerOptions runner_options;
  runner_options.pipeline = options.pipeline;
  runner_options.check_agreement = options.check_agreement;
  RunLimits limits;
  limits.budget_seconds = options.task_time_budget_seconds;
  limits.cancel = options.cancel;

  const auto worker_loop = [&](std::size_t worker_id) {
    TaskRunner worker(static_cast<int>(worker_id), runner_options);
    std::size_t index = 0;
    std::size_t steals = 0;
    while (queues.next(worker_id, index, steals)) {
      TaskResult result = worker.run(tasks[index], limits);
      std::lock_guard<std::mutex> lock(report_mutex);
      report.results[index] = std::move(result);
      if (options.on_result) options.on_result(report.results[index]);
    }
    total_steals.fetch_add(steals, std::memory_order_relaxed);
  };

  if (jobs == 1) {
    worker_loop(0);  // inline: keeps jobs=1 usable under thread-less debuggers
  } else {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(jobs));
    for (int w = 0; w < jobs; ++w) {
      threads.emplace_back(worker_loop, static_cast<std::size_t>(w));
    }
    for (std::thread& t : threads) t.join();
  }

  report.wall_seconds = wall.seconds();
  report.steals = total_steals.load();
  if (report.cache_enabled) {
    report.cache_stats = options.pipeline.cache->stats().since(stats_before);
  }
  for (const TaskResult& r : report.results) {
    switch (r.status) {
      case TaskStatus::kConsistent: ++report.consistent; break;
      case TaskStatus::kInconsistent: ++report.inconsistent; break;
      case TaskStatus::kError: ++report.errors; break;
      case TaskStatus::kBudgetExhausted: ++report.budget_exhausted; break;
      case TaskStatus::kCancelled: ++report.cancelled; break;
    }
    if (r.agreement.checked && !r.agreement.agree()) ++report.disagreements;
    if (r.bdd.peak_nodes > 0) {
      ++report.bdd.tasks;
      report.bdd.peak_nodes_max =
          std::max(report.bdd.peak_nodes_max, r.bdd.peak_nodes);
      report.bdd.unique_hits += r.bdd.unique_hits;
      report.bdd.cache_hits += r.bdd.cache_hits;
      report.bdd.cache_misses += r.bdd.cache_misses;
      report.bdd.cache_evictions += r.bdd.cache_evictions;
    }
  }
  return report;
}

namespace {

void canonical_result(std::ostream& os, const TaskResult& r) {
  os << r.name << " status=" << status_name(r.status) << " formulas="
     << r.formulas << " in=" << r.inputs << " out=" << r.outputs
     << " refined=" << (r.refined ? 1 : 0);
  if (!r.unsatisfiable_requirements.empty()) {
    os << " unsat=";
    for (std::size_t i = 0; i < r.unsatisfiable_requirements.size(); ++i) {
      if (i > 0) os << ',';
      os << r.unsatisfiable_requirements[i];
    }
  }
  // The diagnosis is input-pure (a function of the spec and the pipeline
  // options alone), so unlike cache/bdd statistics it belongs to the
  // canonical contract: byte-identical for any jobs count and cache mode.
  if (!r.mus.empty()) {
    os << " mus=";
    for (std::size_t i = 0; i < r.mus.size(); ++i) {
      if (i > 0) os << ',';
      os << r.mus[i];
    }
  }
  if (!r.correction_sets.empty()) {
    os << " mcs=";
    for (std::size_t s = 0; s < r.correction_sets.size(); ++s) {
      if (s > 0) os << ';';
      for (std::size_t i = 0; i < r.correction_sets[s].size(); ++i) {
        if (i > 0) os << ',';
        os << r.correction_sets[s][i];
      }
    }
  }
  if (r.agreement.checked) {
    // One verdict per registered substrate, registry order: input-pure
    // (every substrate's caps are deterministic), hence canonical.
    for (const auto& entry : r.agreement.verdicts) {
      os << ' ' << entry.first << '=' << synth::realizability_name(entry.second);
    }
    os << " agree=" << (r.agreement.agree() ? 1 : 0);
  }
  if (r.status == TaskStatus::kError) os << " detail=" << r.detail;
  os << '\n';
}

util::json::Value strings_json(const std::vector<std::string>& items) {
  return util::json::Array(items.begin(), items.end());
}

}  // namespace

std::string canonical(const BatchReport& report) {
  std::ostringstream os;
  for (const TaskResult& r : report.results) canonical_result(os, r);
  return os.str();
}

std::string canonical_line(const TaskResult& result) {
  std::ostringstream os;
  canonical_result(os, result);
  return os.str();
}

std::string to_json(const BatchReport& report) {
  namespace json = util::json;
  json::Array specs;
  specs.reserve(report.results.size());
  for (const TaskResult& r : report.results) {
    json::Object spec{
        {"name", r.name}, {"status", status_name(r.status)},
        {"formulas", r.formulas}, {"inputs", r.inputs}, {"outputs", r.outputs},
        {"refined", r.refined}, {"worker", r.worker}, {"seconds", r.seconds},
        {"translation_seconds", r.translation_seconds},
        {"synthesis_seconds", r.synthesis_seconds},
        {"refinement_seconds", r.refinement_seconds},
        {"screen_seconds", r.screen_seconds}};
    if (!r.mus.empty()) spec["mus"] = strings_json(r.mus);
    if (!r.correction_sets.empty()) {
      json::Array sets;
      for (const auto& set : r.correction_sets) {
        sets.push_back(strings_json(set));
      }
      spec["correction_sets"] = std::move(sets);
    }
    if (r.bdd.peak_nodes > 0) {
      spec["bdd_peak_nodes"] = r.bdd.peak_nodes;
      spec["bdd_cache_hits"] = r.bdd.cache_hits;
      spec["bdd_cache_misses"] = r.bdd.cache_misses;
    }
    if (!r.substrate.empty()) spec["substrate"] = r.substrate;
    if (r.portfolio.has_value()) {
      spec["won"] = r.portfolio->winner;
      spec["substrates"] = core::substrates_json(*r.portfolio);
    }
    if (r.agreement.checked) {
      for (const auto& [substrate, verdict] : r.agreement.verdicts) {
        spec[substrate] = synth::realizability_name(verdict);
      }
      spec["agree"] = r.agreement.agree();
    }
    if (!r.detail.empty()) spec["detail"] = r.detail;
    specs.emplace_back(std::move(spec));
  }

  json::Object doc{
      {"jobs", report.jobs}, {"steals", report.steals},
      {"wall_seconds", report.wall_seconds},
      {"cpu_seconds", report.cpu_seconds()},
      {"consistent", report.consistent}, {"inconsistent", report.inconsistent},
      {"errors", report.errors}, {"budget_exhausted", report.budget_exhausted},
      {"cancelled", report.cancelled}, {"disagreements", report.disagreements},
      {"specs", std::move(specs)}};
  if (report.cache_enabled) {
    doc["cache"] = cache::stats_json(report.cache_stats);
  }
  if (report.bdd.tasks > 0) {
    const BddAggregate& b = report.bdd;
    doc["bdd"] = json::Object{
        {"tasks", b.tasks}, {"peak_nodes_max", b.peak_nodes_max},
        {"unique_hits", b.unique_hits}, {"cache_hits", b.cache_hits},
        {"cache_misses", b.cache_misses},
        {"cache_evictions", b.cache_evictions}};
  }
  std::string out;
  json::write(out, std::move(doc));
  out += '\n';
  return out;
}

void print_summary(std::ostream& os, const BatchReport& report) {
  for (const TaskResult& r : report.results) {
    os << "  " << r.name << ": " << status_name(r.status);
    if (r.status == TaskStatus::kConsistent ||
        r.status == TaskStatus::kInconsistent) {
      os << " (" << r.formulas << " formulas, " << r.inputs << " in, "
         << r.outputs << " out";
      if (r.refined) os << ", refined";
      os << ", " << r.seconds << "s";
      if (r.portfolio.has_value() && !r.portfolio->winner.empty()) {
        os << ", " << r.portfolio->winner << " won";
      } else if (!r.substrate.empty()) {
        os << ", " << r.substrate;
      }
      os << ")";
      if (!r.mus.empty()) {
        os << "\n    conflicting sentences:";
        for (const std::string& id : r.mus) os << " " << id;
      }
      for (const auto& mcs : r.correction_sets) {
        os << "\n    fix by removing:";
        for (const std::string& id : mcs) os << " " << id;
      }
    } else if (!r.detail.empty()) {
      os << " (" << r.detail << ")";
    }
    if (r.agreement.checked && !r.agreement.agree()) {
      os << "  SUBSTRATE DISAGREEMENT";
    }
    os << "\n";
  }
  os << report.results.size() << " specs with " << report.jobs << " jobs in "
     << report.wall_seconds << "s wall (" << report.cpu_seconds()
     << "s cpu, " << report.steals << " steals): " << report.consistent
     << " consistent, " << report.inconsistent << " inconsistent, "
     << report.errors << " errors, " << report.budget_exhausted
     << " budget-exhausted, " << report.cancelled << " cancelled";
  if (report.disagreements > 0) {
    os << ", " << report.disagreements << " SUBSTRATE DISAGREEMENTS";
  }
  os << "\n";
  if (report.cache_enabled) cache::print_stats(os, report.cache_stats);
  if (report.bdd.tasks > 0) {
    const BddAggregate& b = report.bdd;
    os << "bdd engine: " << b.tasks << " symbolic tasks, peak "
       << b.peak_nodes_max << " nodes, " << b.unique_hits << " unique hits, "
       << b.cache_hits << " cache hits / " << b.cache_misses << " misses / "
       << b.cache_evictions << " evictions\n";
  }
}

}  // namespace speccc::batch
