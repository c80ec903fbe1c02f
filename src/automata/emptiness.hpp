// Buechi emptiness checking with lasso witnesses, and LTL satisfiability
// (constant-lasso witnesses first, the tableau for the rest).
//
// Used three ways:
//   * screening translated requirements (an unsatisfiable requirement can
//     never be implemented; core::Pipeline names such requirements when a
//     specification ends up inconsistent, the only case they can occur);
//   * generating witness traces for satisfiable formulas (property tests
//     cross-check the witness against the trace semantics);
//   * the model checker in synth/verify.hpp (emptiness of a product).
#pragma once

#include <functional>
#include <optional>

#include "automata/buchi.hpp"
#include "ltl/formula.hpp"
#include "ltl/trace.hpp"

namespace speccc::automata {

/// A lasso witness of nonemptiness, as concrete valuations (propositions not
/// constrained by the accepting run's cubes default to false).
struct Witness {
  ltl::Lasso lasso;
};

/// Is the automaton's language empty? Returns a witness when it is not.
/// Linear in the product of states and transitions (nested DFS).
[[nodiscard]] std::optional<Witness> find_accepting_lasso(const Buchi& automaton);

[[nodiscard]] inline bool is_empty(const Buchi& automaton) {
  return !find_accepting_lasso(automaton).has_value();
}

/// LTL satisfiability, witness first. The two constant one-step lassos (all
/// atoms false, then all of f.atoms() true) are tried under ltl::evaluate;
/// if one satisfies f it is the witness. Controlled-English requirements
/// are implications that a trigger-free trace satisfies vacuously, so this
/// answers nearly all of them in microseconds. Otherwise the tableau
/// decides: satisfiable iff the NBW of f has a nonempty language, and its
/// accepting lasso is the witness. Either way the witness satisfies f. The
/// tableau is exponential in Next-chain depth. `cancelled` is polled once
/// on entry and throughout the tableau's construction (see ltl_to_nbw);
/// returning true raises util::CancelledError.
[[nodiscard]] std::optional<Witness> satisfiable_witness(
    ltl::Formula f, const std::function<bool()>& cancelled = {});

[[nodiscard]] inline bool satisfiable(
    ltl::Formula f, const std::function<bool()>& cancelled = {}) {
  return satisfiable_witness(f, cancelled).has_value();
}

/// Validity: f is valid iff !f is unsatisfiable.
[[nodiscard]] inline bool valid(ltl::Formula f) {
  return !satisfiable(ltl::lnot(f));
}

}  // namespace speccc::automata
