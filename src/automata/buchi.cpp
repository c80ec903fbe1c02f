#include "automata/buchi.hpp"

#include <algorithm>

#include "util/diagnostics.hpp"

namespace speccc::automata {

bool Cube::consistent() const {
  for (const auto& p : pos) {
    if (neg.count(p) > 0) return false;
  }
  return true;
}

bool Cube::matches(const ltl::Valuation& valuation) const {
  for (const auto& p : pos) {
    if (valuation.count(p) == 0) return false;
  }
  for (const auto& n : neg) {
    if (valuation.count(n) > 0) return false;
  }
  return true;
}

Cube Cube::meet(const Cube& other) const {
  Cube out = *this;
  out.pos.insert(other.pos.begin(), other.pos.end());
  out.neg.insert(other.neg.begin(), other.neg.end());
  return out;
}

std::size_t Buchi::num_transitions() const {
  std::size_t n = 0;
  for (const auto& ts : transitions) n += ts.size();
  return n;
}

bool accepts_lasso(const Buchi& automaton, const ltl::Lasso& lasso) {
  const std::size_t n_states = automaton.num_states();
  const std::size_t n_pos = lasso.size();
  if (n_states == 0) return false;

  // Product graph node: state * n_pos + position.
  const auto node_id = [n_pos](int state, std::size_t pos) {
    return static_cast<std::size_t>(state) * n_pos + pos;
  };

  // Forward reachability from (initial, 0).
  std::vector<bool> reach(n_states * n_pos, false);
  std::vector<std::pair<int, std::size_t>> stack{{automaton.initial, 0}};
  reach[node_id(automaton.initial, 0)] = true;
  while (!stack.empty()) {
    const auto [state, pos] = stack.back();
    stack.pop_back();
    const std::size_t next_pos = lasso.successor(pos);
    for (const Transition& t : automaton.transitions[static_cast<std::size_t>(state)]) {
      if (!t.label.matches(lasso.at(pos))) continue;
      const std::size_t id = node_id(t.target, next_pos);
      if (!reach[id]) {
        reach[id] = true;
        stack.push_back({t.target, next_pos});
      }
    }
  }

  // For each reachable accepting product node, check whether it lies on a
  // cycle (reachable from itself). The product is small, so a per-node DFS
  // is fine.
  for (int state = 0; state < static_cast<int>(n_states); ++state) {
    if (!automaton.accepting[static_cast<std::size_t>(state)]) continue;
    for (std::size_t pos = lasso.loop_start(); pos < n_pos; ++pos) {
      if (!reach[node_id(state, pos)]) continue;
      // DFS from (state, pos) looking for a path back to itself.
      std::vector<bool> seen(n_states * n_pos, false);
      std::vector<std::pair<int, std::size_t>> dfs{{state, pos}};
      bool found = false;
      while (!dfs.empty() && !found) {
        const auto [s, p] = dfs.back();
        dfs.pop_back();
        const std::size_t np = lasso.successor(p);
        for (const Transition& t : automaton.transitions[static_cast<std::size_t>(s)]) {
          if (!t.label.matches(lasso.at(p))) continue;
          if (t.target == state && np == pos) {
            found = true;
            break;
          }
          const std::size_t id = node_id(t.target, np);
          if (!seen[id]) {
            seen[id] = true;
            dfs.push_back({t.target, np});
          }
        }
      }
      if (found) return true;
    }
  }
  return false;
}

Buchi prune(const Buchi& automaton, const std::function<bool()>& cancelled) {
  const std::size_t n = automaton.num_states();
  std::vector<std::vector<int>> preds(n);
  for (std::size_t s = 0; s < n; ++s) {
    for (const Transition& t : automaton.transitions[s]) {
      preds[static_cast<std::size_t>(t.target)].push_back(static_cast<int>(s));
    }
  }

  // Accepting states on a cycle, from one iterative Tarjan SCC pass over
  // the states reachable from the initial state (no other state survives
  // the forward pass below): an accepting state lies on a cycle iff its SCC
  // is nontrivial or it has a self-loop.
  std::vector<bool> useful(n, false);
  std::vector<int> index(n, -1);
  std::vector<int> low(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<int> scc;
  // DFS frames: a state and the position of its next transition.
  std::vector<std::pair<int, std::size_t>> frames;
  int next_index = 0;
  const auto visit = [&](int s) {
    if (cancelled && cancelled()) {
      throw util::CancelledError("tableau construction cancelled");
    }
    const auto u = static_cast<std::size_t>(s);
    index[u] = low[u] = next_index++;
    scc.push_back(s);
    on_stack[u] = true;
    frames.emplace_back(s, 0);
  };
  visit(automaton.initial);
  while (!frames.empty()) {
    const auto [s, next] = frames.back();
    const auto u = static_cast<std::size_t>(s);
    const std::vector<Transition>& edges = automaton.transitions[u];
    if (next < edges.size()) {
      ++frames.back().second;
      const auto v = static_cast<std::size_t>(edges[next].target);
      if (index[v] == -1) {
        visit(edges[next].target);
      } else if (on_stack[v]) {
        low[u] = std::min(low[u], index[v]);
      }
      continue;
    }
    frames.pop_back();
    if (!frames.empty()) {
      const auto parent = static_cast<std::size_t>(frames.back().first);
      low[parent] = std::min(low[parent], low[u]);
    }
    if (low[u] != index[u]) continue;
    // s roots an SCC: the states above it on the stack.
    std::size_t first = scc.size();
    do {
      --first;
    } while (scc[first] != s);
    const bool nontrivial = scc.size() - first > 1;
    for (std::size_t k = first; k < scc.size(); ++k) {
      const auto m = static_cast<std::size_t>(scc[k]);
      on_stack[m] = false;
      if (!automaton.accepting[m]) continue;
      useful[m] = nontrivial ||
                  std::any_of(edges.begin(), edges.end(), [s](const Transition& t) {
                    return t.target == s;
                  });
    }
    scc.resize(first);
  }

  // Backward closure from accepting-cycle states.
  std::vector<int> work;
  for (std::size_t s = 0; s < n; ++s) {
    if (useful[s]) work.push_back(static_cast<int>(s));
  }
  while (!work.empty()) {
    const int cur = work.back();
    work.pop_back();
    for (int p : preds[static_cast<std::size_t>(cur)]) {
      if (!useful[static_cast<std::size_t>(p)]) {
        useful[static_cast<std::size_t>(p)] = true;
        work.push_back(p);
      }
    }
  }

  // Forward reachability from the initial state, restricted to useful states.
  std::vector<bool> reach(n, false);
  if (useful[static_cast<std::size_t>(automaton.initial)]) {
    reach[static_cast<std::size_t>(automaton.initial)] = true;
    work.push_back(automaton.initial);
    while (!work.empty()) {
      const int cur = work.back();
      work.pop_back();
      for (const Transition& t : automaton.transitions[static_cast<std::size_t>(cur)]) {
        const auto tgt = static_cast<std::size_t>(t.target);
        if (useful[tgt] && !reach[tgt]) {
          reach[tgt] = true;
          work.push_back(t.target);
        }
      }
    }
  }

  // Renumber.
  std::vector<int> remap(n, -1);
  Buchi out;
  out.aps = automaton.aps;
  for (std::size_t s = 0; s < n; ++s) {
    if (reach[s]) {
      remap[s] = static_cast<int>(out.transitions.size());
      out.transitions.emplace_back();
      out.accepting.push_back(automaton.accepting[s]);
    }
  }
  if (remap[static_cast<std::size_t>(automaton.initial)] == -1) {
    // Empty language: single non-accepting sink with no transitions.
    Buchi empty;
    empty.aps = automaton.aps;
    empty.initial = 0;
    empty.transitions.emplace_back();
    empty.accepting.push_back(false);
    return empty;
  }
  out.initial = remap[static_cast<std::size_t>(automaton.initial)];
  for (std::size_t s = 0; s < n; ++s) {
    if (remap[s] == -1) continue;
    for (const Transition& t : automaton.transitions[s]) {
      const int nt = remap[static_cast<std::size_t>(t.target)];
      if (nt != -1) {
        out.transitions[static_cast<std::size_t>(remap[s])].push_back({t.label, nt});
      }
    }
  }
  return out;
}

}  // namespace speccc::automata
