#include "automata/emptiness.hpp"

#include <algorithm>
#include <vector>

#include "automata/gpvw.hpp"
#include "util/diagnostics.hpp"

namespace speccc::automata {

namespace {

/// Breadth-first search for a path from `from` to `to`. When from == to and
/// at_least_one_step is set, searches for a cycle back to `from`. Returns
/// the edge labels along a shortest such path.
std::optional<std::vector<Cube>> find_path(const Buchi& automaton, int from,
                                           int to, bool at_least_one_step) {
  if (from == to && !at_least_one_step) return std::vector<Cube>{};

  const std::size_t n = automaton.num_states();
  std::vector<int> parent(n, -2);        // -2 unvisited, -1 search root
  std::vector<const Cube*> via(n, nullptr);  // label of the edge entering
  std::vector<int> queue{from};
  parent[static_cast<std::size_t>(from)] = -1;

  std::size_t head = 0;
  while (head < queue.size()) {
    const int cur = queue[head++];
    for (const Transition& t :
         automaton.transitions[static_cast<std::size_t>(cur)]) {
      if (!t.label.consistent()) continue;
      if (t.target == to) {
        // Reconstruct: labels from `from` to `cur`, then this edge. A
        // shortest path never revisits `from`, so the parent walk
        // terminates.
        std::vector<Cube> labels{t.label};
        for (int walk = cur; walk != from;
             walk = parent[static_cast<std::size_t>(walk)]) {
          speccc_check(parent[static_cast<std::size_t>(walk)] != -2,
                       "BFS parent chain broken");
          labels.push_back(*via[static_cast<std::size_t>(walk)]);
        }
        std::reverse(labels.begin(), labels.end());
        return labels;
      }
      const auto tgt = static_cast<std::size_t>(t.target);
      if (parent[tgt] == -2) {
        parent[tgt] = cur;
        via[tgt] = &t.label;
        queue.push_back(t.target);
      }
    }
  }
  return std::nullopt;
}

ltl::Valuation valuation_of(const Cube& cube) {
  ltl::Valuation v;
  for (const auto& p : cube.pos) v.insert(p);
  return v;
}

}  // namespace

std::optional<Witness> find_accepting_lasso(const Buchi& automaton) {
  const std::size_t n = automaton.num_states();
  if (n == 0) return std::nullopt;

  for (std::size_t q = 0; q < n; ++q) {
    if (!automaton.accepting[q]) continue;
    // Prefix: initial -> q; loop: q -> q (at least one step).
    const auto prefix =
        find_path(automaton, automaton.initial, static_cast<int>(q),
                  /*at_least_one_step=*/automaton.initial != static_cast<int>(q));
    if (!prefix) continue;
    const auto loop = find_path(automaton, static_cast<int>(q),
                                static_cast<int>(q), /*at_least_one_step=*/true);
    if (!loop) continue;

    std::vector<ltl::Valuation> steps;
    for (const Cube& c : *prefix) steps.push_back(valuation_of(c));
    const std::size_t loop_start = steps.size();
    for (const Cube& c : *loop) steps.push_back(valuation_of(c));
    speccc_check(!steps.empty(), "accepting lasso must have steps");
    return Witness{ltl::Lasso(std::move(steps), loop_start)};
  }
  return std::nullopt;
}

std::optional<Witness> satisfiable_witness(
    ltl::Formula f, const std::function<bool()>& cancelled) {
  if (cancelled && cancelled()) {
    throw util::CancelledError("tableau construction cancelled");
  }
  // A constant trace is a model of most requirements (an implication holds
  // vacuously when its trigger never does), so try the two constant
  // one-step lassos before the exponential tableau.
  for (const ltl::Valuation& constant : {ltl::Valuation{}, f.atoms()}) {
    ltl::Lasso lasso({constant}, 0);
    if (ltl::evaluate(f, lasso)) return Witness{std::move(lasso)};
  }
  return find_accepting_lasso(ltl_to_nbw(f, cancelled));
}

}  // namespace speccc::automata
