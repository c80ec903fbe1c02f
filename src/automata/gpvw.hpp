// LTL to nondeterministic Buechi automata, via the on-the-fly tableau of
// Gerth, Peled, Vardi and Wolper (GPVW).
//
// The input formula is first normalized into the tableau core (negation
// normal form over literals, And/Or, X, U, R: F a == true U a, G a ==
// false R a, a W b == b R (a || b)). The generalized acceptance condition
// (one set per Until subformula) is then degeneralized with the standard
// counting construction (Baier & Katoen, Thm. 4.56).
//
// The synthesis engine reads the result two ways:
//   * as an NBW for emptiness/membership (tests, baselines);
//   * as a universal co-Buechi automaton (UCW) for phi by building the NBW
//     of !phi and treating its accepting states as rejecting.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>

#include "automata/buchi.hpp"
#include "ltl/formula.hpp"

namespace speccc::automata {

/// Translate an LTL formula into a degeneralized NBW. `cancelled` is
/// polled as in ltl_to_nbw_bounded.
[[nodiscard]] Buchi ltl_to_nbw(ltl::Formula f,
                               const std::function<bool()>& cancelled = {});

/// Construction-bounded variant: gives up (nullopt) once the tableau
/// registers more than max_nodes distinct nodes or exhausts a proportional
/// expansion budget, so pathological formulas (long Next chains under
/// conjoined G obligations are exponential) cost bounded time instead of
/// minutes. Callers that can live with "don't know" -- the bounded
/// synthesis engine, the differential harness -- use this. `cancelled` is
/// polled once per expanded node and once per state the pruning pass's SCC
/// search visits (automata/buchi.hpp); returning true raises
/// util::CancelledError (portfolio racers cancel losing tableaux here).
[[nodiscard]] std::optional<Buchi> ltl_to_nbw_bounded(
    ltl::Formula f, std::size_t max_nodes,
    const std::function<bool()>& cancelled = {});

/// The UCW view for bounded synthesis: the NBW of !phi, whose accepting
/// states are the UCW's rejecting states. A word satisfies phi iff every
/// run of this automaton visits rejecting states only finitely often.
[[nodiscard]] Buchi ucw_for(ltl::Formula f);

/// Construction-bounded UCW (see ltl_to_nbw_bounded).
[[nodiscard]] std::optional<Buchi> ucw_for_bounded(
    ltl::Formula f, std::size_t max_nodes,
    const std::function<bool()>& cancelled = {});

}  // namespace speccc::automata
