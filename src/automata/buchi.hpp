// Nondeterministic Buechi automata over cube-labelled transitions.
//
// Labels are conjunctions of AP literals (cubes) rather than explicit
// alphabet letters: the GPVW tableau naturally produces cubes, and the
// bounded-synthesis engine resolves them against concrete input/output
// valuations on the fly, which keeps automata small even when a
// specification mentions many propositions.
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "ltl/trace.hpp"

namespace speccc::automata {

/// A conjunction of literals over proposition names. Empty cube == true.
struct Cube {
  std::set<std::string> pos;
  std::set<std::string> neg;

  /// False when some proposition occurs both positively and negatively.
  [[nodiscard]] bool consistent() const;
  /// Does a full valuation satisfy every literal?
  [[nodiscard]] bool matches(const ltl::Valuation& valuation) const;
  /// Conjunction; the result may be inconsistent.
  [[nodiscard]] Cube meet(const Cube& other) const;

  friend bool operator==(const Cube&, const Cube&) = default;
};

struct Transition {
  Cube label;
  int target = -1;
};

/// Buechi automaton with a single acceptance set (degeneralized) and a
/// single initial state. `accepting` is indexed by state.
struct Buchi {
  std::vector<std::string> aps;  // propositions mentioned anywhere, sorted
  int initial = 0;
  std::vector<std::vector<Transition>> transitions;  // indexed by state
  std::vector<bool> accepting;

  [[nodiscard]] std::size_t num_states() const { return transitions.size(); }
  [[nodiscard]] std::size_t num_transitions() const;
};

/// Does the automaton accept the ultimately periodic word? (Nondeterministic
/// membership: product graph + accepting-cycle search.) Used to cross-check
/// the tableau construction against the LTL trace semantics.
[[nodiscard]] bool accepts_lasso(const Buchi& automaton, const ltl::Lasso& lasso);

/// Remove states that cannot reach an accepting cycle (they never contribute
/// to acceptance) and states unreachable from the initial state. Keeps the
/// automaton language-equivalent; shrinks the bounded-synthesis state space.
/// Linear in states plus transitions (one iterative Tarjan SCC pass, then a
/// backward and a forward closure); `cancelled` is polled at each state the
/// SCC pass visits and returning true raises util::CancelledError.
[[nodiscard]] Buchi prune(const Buchi& automaton,
                          const std::function<bool()>& cancelled = {});

}  // namespace speccc::automata
