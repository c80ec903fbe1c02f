#include "core/portfolio.hpp"

#include <atomic>
#include <cmath>
#include <exception>
#include <thread>
#include <utility>

#include "util/diagnostics.hpp"

namespace speccc::core {

namespace {

[[nodiscard]] bool definite(synth::Realizability verdict) {
  return verdict == synth::Realizability::kRealizable ||
         verdict == synth::Realizability::kUnrealizable;
}

/// Per-racer slot, written only by its own thread until the join barrier.
struct RacerSlot {
  std::optional<synth::SynthesisResult> result;
  std::exception_ptr error;
  double wall_seconds = 0.0;
  bool cancelled = false;
};

}  // namespace

PortfolioRunner::PortfolioRunner(const SubstrateRegistry& registry,
                                 SubstrateSpec spec)
    : registry_(registry), spec_(std::move(spec)) {
  speccc_check(!spec_.is_auto(),
               "PortfolioRunner needs a solo or race substrate spec");
}

synth::SynthesisResult PortfolioRunner::run(
    const std::vector<ltl::Formula>& formulas,
    const synth::IoSignature& signature, const synth::SynthesisOptions& options,
    const CancelFn& external, PortfolioStats* stats) const {
  const std::vector<const Substrate*> racers = registry_.resolve(spec_);
  speccc_check(!racers.empty(), "a substrate spec resolves to >= 1 racers");

  util::Stopwatch race_timer;
  std::atomic<bool> race_over{false};
  std::atomic<int> winner{-1};
  std::vector<RacerSlot> slots(racers.size());

  const auto drive = [&](std::size_t index) {
    RacerSlot& slot = slots[index];
    // Losers see the winner's flag (or the external cancel) at their next
    // engine poll point and unwind with CancelledError.
    const CancelFn racer_cancel = [&race_over, &external]() {
      return race_over.load(std::memory_order_relaxed) ||
             (external && external());
    };
    util::Stopwatch timer;
    try {
      synth::SynthesisResult result =
          racers[index]->check(formulas, signature, options, racer_cancel);
      slot.wall_seconds = timer.seconds();
      if (definite(result.verdict)) {
        int expected = -1;
        if (winner.compare_exchange_strong(expected,
                                           static_cast<int>(index))) {
          race_over.store(true, std::memory_order_relaxed);
        }
      }
      slot.result = std::move(result);
    } catch (const util::CancelledError&) {
      slot.wall_seconds = timer.seconds();
      slot.cancelled = true;
    } catch (...) {
      slot.wall_seconds = timer.seconds();
      slot.error = std::current_exception();
    }
  };

  // Racer 0 runs inline so a one-lane "race" costs no thread, and so the
  // caller's thread does useful work instead of blocking on a join.
  std::vector<std::thread> threads;
  threads.reserve(racers.size() > 0 ? racers.size() - 1 : 0);
  for (std::size_t i = 1; i < racers.size(); ++i) {
    threads.emplace_back(drive, i);
  }
  drive(0);
  for (std::thread& thread : threads) thread.join();

  const int winner_index = winner.load(std::memory_order_relaxed);

  if (stats != nullptr) {
    stats->winner.clear();
    stats->wall_seconds = race_timer.seconds();
    stats->runs.clear();
    stats->runs.reserve(racers.size());
    for (std::size_t i = 0; i < racers.size(); ++i) {
      SubstrateRunStats run_stats;
      run_stats.name = std::string(racers[i]->name());
      run_stats.wall_seconds = slots[i].wall_seconds;
      run_stats.cancelled = slots[i].cancelled;
      run_stats.won = static_cast<int>(i) == winner_index;
      if (slots[i].result.has_value()) {
        run_stats.verdict = slots[i].result->verdict;
      }
      if (slots[i].error) {
        try {
          std::rethrow_exception(slots[i].error);
        } catch (const std::exception& e) {
          run_stats.error = e.what();
        } catch (...) {
          run_stats.error = "unknown error";
        }
      }
      stats->runs.push_back(std::move(run_stats));
      if (stats->runs.back().won) stats->winner = stats->runs.back().name;
    }
  }

  // A definite verdict is THE verdict (the oracle contract): return it
  // even if the external cancel also fired -- solo semantics likewise let
  // a completed stage stand, and the pipeline's next stage-boundary poll
  // still honors the cancellation.
  if (winner_index >= 0) {
    synth::SynthesisResult result =
        std::move(*slots[static_cast<std::size_t>(winner_index)].result);
    result.substrate_used = std::string(racers[winner_index]->name());
    return result;
  }

  // No winner. If the external cancel fired, every racer was torn down by
  // it (race_over is only set by a winner), so surface the cancellation.
  if (external && external()) {
    throw util::CancelledError("portfolio race cancelled before any verdict");
  }

  // Everyone abstained or errored: deterministic tie-break in spec order.
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (slots[i].result.has_value()) {
      synth::SynthesisResult result = std::move(*slots[i].result);
      result.substrate_used = std::string(racers[i]->name());
      return result;
    }
  }
  for (const RacerSlot& slot : slots) {
    if (slot.error) std::rethrow_exception(slot.error);
  }
  // All racers reported CancelledError with no winner and no external
  // cancel: a substrate polled a stale flag. Treat as cancellation.
  throw util::CancelledError("portfolio race ended with no result");
}

util::json::Value substrates_json(const PortfolioStats& portfolio) {
  util::json::Array runs;
  runs.reserve(portfolio.runs.size());
  for (const SubstrateRunStats& run : portfolio.runs) {
    util::json::Object o{{"name", run.name},
                         {"verdict", synth::realizability_name(run.verdict)},
                         {"run_ms", std::llround(run.wall_seconds * 1000.0)},
                         {"won", run.won},
                         {"cancelled", run.cancelled}};
    if (!run.error.empty()) o["error"] = run.error;
    runs.emplace_back(std::move(o));
  }
  return runs;
}

}  // namespace speccc::core
