// Compilation of pattern-fragment specifications into symbolic games.
//
// Every formula the translator emits (Section IV templates) is recognized by
// ltl::recognize_pattern and compiled into a small deterministic monitor:
//
//   kInvariant      G p               stepwise safety, no state
//   kImplication    G (g -> X^n c)    n-bit guard history register
//   kGuardDelayed   G (X^n g -> c)    n-bit consequent history register
//   kResponse       G (g -> F c)      1 obligation bit + Buechi predicate
//   kWeakUntil      G (g -> (p W q))  1 obligation bit, stepwise safety
//   kStrongUntil    G (g -> (p U q))  weak-until monitor + response monitor
//   kExistence      F p               1 latch bit + Buechi predicate
//
// The conjunction of all monitors forms one game::SymbolicGame whose system
// player wins iff the specification is realizable (consistent).
//
// A monitor's BDDs do not depend on the input/output split: the signature
// only decides which proposition variables a game quantifies as inputs and
// which as outputs. So compile_monitor compiles one requirement once, and a
// caller that asks many questions about one requirement list (the stage-3
// oracle, diag/diag.hpp) assembles each question's game from the
// precompiled monitors under whatever split it needs.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "bdd/bdd.hpp"
#include "game/symbolic.hpp"
#include "ltl/formula.hpp"
#include "ltl/patterns.hpp"
#include "synth/mealy.hpp"

namespace speccc::synth {

/// The compiled game plus the initial state strategy extraction starts
/// from.
struct CompiledSpec {
  game::SymbolicGame game;
  /// Initial values of the state bits (same order as game.state_vars).
  std::vector<bool> initial_bits;
};

/// One compiled requirement: the monitor's part of a SymbolicGame.
struct Monitor {
  /// Stepwise safety constraint over (state, proposition) variables.
  bdd::Bdd safe;
  std::vector<int> state_vars;
  /// Transition function and initial value per state variable (same order
  /// as state_vars).
  std::vector<bdd::Bdd> next_state;
  std::vector<bool> initial_bits;
  /// Buechi predicates over state variables.
  std::vector<bdd::Bdd> buchi;
};

/// The BDD variable of a proposition leaf (an ltl::Op::kAp formula); may
/// allocate the variable on first use.
using PropVar = std::function<int(ltl::Formula)>;

/// Compile one recognized pattern instance into `manager`. State bits are
/// allocated as fresh variables; proposition variables come from
/// `prop_var`, so monitors compiled into one manager share them.
[[nodiscard]] Monitor compile_monitor(bdd::Manager& manager,
                                      const ltl::PatternInstance& pattern,
                                      const PropVar& prop_var);

/// Can the whole specification be compiled? True iff every formula is
/// recognized by ltl::recognize_pattern and mentions only signature
/// propositions.
[[nodiscard]] bool fragment_covers(const std::vector<ltl::Formula>& spec);

/// Compile a specification (conjunction of pattern instances) into a
/// symbolic game over a caller-provided manager. Returns nullopt when some
/// formula falls outside the fragment.
[[nodiscard]] std::optional<CompiledSpec> compile_monitors(
    bdd::Manager& manager, const std::vector<ltl::Formula>& spec,
    const IoSignature& signature);

}  // namespace speccc::synth
