// Top-level synthesis driver: the SpecCC stand-in for G4LTL (Section V-A).
//
// Given translated requirements and an input/output partition, decides
// realizability -- the paper's notion of specification consistency -- and
// optionally extracts a Mealy controller witnessing it.
//
// try_symbolic and run_bounded are the only code that turns an engine
// outcome into a SynthesisResult; the solo substrates (core/substrate.hpp)
// call them, and synthesize() -- the "auto" substrate -- composes them:
// when every requirement lies in the monitorable pattern fragment
// (everything the Section IV translator emits), the symbolic
// monitor-composition engine decides the game exactly at Table I scale;
// otherwise the explicit bounded-synthesis engine handles full LTL on small
// signatures.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "ltl/formula.hpp"
#include "synth/bounded.hpp"
#include "synth/mealy.hpp"
#include "synth/symbolic_engine.hpp"

namespace speccc::synth {

/// Which engine produced a SynthesisResult (a result tag; kAuto marks a
/// verdict from neither synthesis engine, e.g. the tableau substrate).
enum class Engine { kAuto, kSymbolic, kBounded };

struct SynthesisOptions {
  BoundedOptions bounded;
  SymbolicOptions symbolic;
};

struct SynthesisResult {
  Realizability verdict = Realizability::kUnknown;
  Engine engine_used = Engine::kAuto;
  /// Name of the substrate that produced the verdict ("tableau",
  /// "bounded", "symbolic"); set by every result builder. Non-canonical
  /// diagnostic.
  std::string substrate_used;
  /// Wall-clock seconds of the realizability check (Table I's time column).
  double seconds = 0.0;
  /// Engine statistics (whichever engine ran).
  std::size_t state_bits = 0;        // symbolic: monitor state bits
  std::size_t ucw_states = 0;        // bounded: UCW size
  std::size_t game_positions = 0;    // bounded: peak arena size
  std::size_t peak_bdd_nodes = 0;    // symbolic
  bdd::Stats bdd_stats;              // symbolic: manager counters
  int iterations = 0;                // fixpoint rounds / final k
  std::optional<MealyMachine> controller;

  [[nodiscard]] bool realizable() const {
    return verdict == Realizability::kRealizable;
  }
};

/// The symbolic engine on the conjunction of `requirements`; nullopt when
/// some requirement is outside its pattern fragment or mentions a
/// proposition missing from the signature. Throws util::InvalidInputError
/// on an empty specification.
[[nodiscard]] std::optional<SynthesisResult> try_symbolic(
    const std::vector<ltl::Formula>& requirements, const IoSignature& signature,
    const SymbolicOptions& options);

/// The bounded engine on the conjunction of `requirements`. Throws
/// util::InvalidInputError on an empty specification.
[[nodiscard]] SynthesisResult run_bounded(
    const std::vector<ltl::Formula>& requirements, const IoSignature& signature,
    const BoundedOptions& options);

/// Decide realizability of the conjunction of `requirements`: symbolic when
/// it applies, else bounded.
[[nodiscard]] SynthesisResult synthesize(const std::vector<ltl::Formula>& requirements,
                                         const IoSignature& signature,
                                         const SynthesisOptions& options = {});

}  // namespace speccc::synth
