// First-verdict-wins substrate racing (ROADMAP item 4).
//
// PortfolioRunner races the substrates of a kRace SubstrateSpec on one
// thread each (racer 0 runs inline on the caller's thread). The first
// racer to reach a *definite* verdict (kRealizable/kUnrealizable) wins:
// it flips the shared race flag, the losers observe it through their
// CancelFn at the next engine poll point and unwind with CancelledError,
// and every racer thread is joined before run() returns -- no thread or
// budget outlives the call.
//
// Determinism: the difftest oracle contract (definite verdicts never
// disagree across substrates; kUnknown never disagrees with anything)
// makes the winning verdict independent of race timing. When nobody is
// definite, the tie-break is spec order, not arrival order: the
// first-listed racer that completed with kUnknown supplies the result, so
// canonical output stays byte-identical across machines and runs. Which
// racer won, and each racer's wall time, are timing-dependent and
// therefore surface only as non-canonical diagnostics (PortfolioStats).
//
// Threading rule: racers share nothing but the race flag, the external
// cancel predicate, and (one level up, via the pipeline's memoization)
// the thread-safe cache::Store. Each check() builds its own engines.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/substrate.hpp"
#include "util/json.hpp"

namespace speccc::core {

/// One racer's outcome, for the non-canonical report fields.
struct SubstrateRunStats {
  std::string name;
  /// Verdict the racer reached; kUnknown for cancelled/errored racers.
  synth::Realizability verdict = synth::Realizability::kUnknown;
  double wall_seconds = 0.0;
  bool won = false;
  /// Unwound with CancelledError after the winner flipped the race flag
  /// (or the external cancel fired).
  bool cancelled = false;
  /// Error text when the racer threw a non-cancellation SpecError (e.g.
  /// symbolic outside its fragment); empty otherwise.
  std::string error;
};

struct PortfolioStats {
  std::string winner;          // empty when no racer completed
  double wall_seconds = 0.0;   // whole-race wall time
  std::vector<SubstrateRunStats> runs;  // spec order
};

/// The per-racer array of a raced result, as the serve protocol and the
/// batch report both carry it: one {"name", "verdict", "run_ms", "won",
/// "cancelled"[, "error"]} object per racer, spec order. Diagnostics only
/// (which racer wins is timing-dependent), never canonical.
[[nodiscard]] util::json::Value substrates_json(
    const PortfolioStats& portfolio);

/// Race the substrates of `spec` (mode kRace, or kSolo as a degenerate
/// one-lane race) resolved against `registry`.
class PortfolioRunner {
 public:
  PortfolioRunner(const SubstrateRegistry& registry, SubstrateSpec spec);

  /// Race substrates on the conjunction. Returns the winner's result
  /// (substrate name in SynthesisResult::substrate_used) and fills
  /// `stats` (may be null) with per-racer diagnostics.
  ///
  /// No definite verdict: if the external cancel fired, throws
  /// util::CancelledError (preserving the solo kCancelled/kBudget
  /// mapping); otherwise returns the first-listed racer that completed
  /// with kUnknown, and if every racer errored, rethrows the
  /// first-listed racer's error.
  [[nodiscard]] synth::SynthesisResult run(
      const std::vector<ltl::Formula>& formulas,
      const synth::IoSignature& signature,
      const synth::SynthesisOptions& options, const CancelFn& external,
      PortfolioStats* stats = nullptr) const;

 private:
  const SubstrateRegistry& registry_;
  SubstrateSpec spec_;
};

}  // namespace speccc::core
