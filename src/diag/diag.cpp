#include "diag/diag.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <set>
#include <string>
#include <unordered_map>

#include "bdd/bdd.hpp"
#include "game/symbolic.hpp"
#include "ltl/patterns.hpp"
#include "synth/monitors.hpp"
#include "util/diagnostics.hpp"

namespace speccc::diag {

namespace {

/// `sorted` minus one element, order preserved.
std::vector<std::size_t> without(const std::vector<std::size_t>& sorted,
                                 std::size_t element) {
  std::vector<std::size_t> out;
  out.reserve(sorted.size() - 1);
  for (std::size_t e : sorted) {
    if (e != element) out.push_back(e);
  }
  return out;
}

}  // namespace

std::vector<std::size_t> shrink_mus(std::vector<std::size_t> candidates,
                                    const CoreOracle& oracle,
                                    std::size_t& checks) {
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());

  // Necessity proofs survive shrinking: once candidates \ {e} tested
  // consistent, every later candidate set is a subset of it, so dropping e
  // from that too stays consistent -- e remains necessary.
  std::set<std::size_t> proven;
  for (;;) {
    const auto next = std::find_if(
        candidates.begin(), candidates.end(),
        [&proven](std::size_t e) { return proven.count(e) == 0; });
    if (next == candidates.end()) break;
    const std::size_t e = *next;
    ++checks;
    if (const auto core = oracle(without(candidates, e))) {
      // Still inconsistent without e: jump to the (possibly much smaller)
      // returned core. A sound core cannot have dropped a proven element:
      // the set minus that element is consistent, and cores are
      // inconsistent. (An empty core means even the empty set is
      // inconsistent -- hard constraints alone -- and the MUS is empty.)
      candidates = *core;
      std::sort(candidates.begin(), candidates.end());
      candidates.erase(std::unique(candidates.begin(), candidates.end()),
                       candidates.end());
    } else {
      proven.insert(e);
    }
  }
  return candidates;
}

std::vector<std::vector<std::size_t>> correction_sets(
    const std::vector<std::size_t>& universe, const CoreOracle& oracle,
    std::size_t max_sets, std::size_t& checks) {
  std::vector<std::vector<std::size_t>> out;
  const std::size_t n = universe.size();
  if (n == 0 || max_sets == 0) return out;

  // One grow pass per rotation start: different starting elements reach
  // different maximal satisfiable subsets, hence different complements.
  for (std::size_t start = 0; start < n && out.size() < max_sets; ++start) {
    std::vector<std::size_t> mss;
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t e = universe[(start + k) % n];
      std::vector<std::size_t> trial = mss;
      trial.insert(std::upper_bound(trial.begin(), trial.end(), e), e);
      ++checks;
      if (!oracle(trial)) mss = std::move(trial);
    }
    // The complement of a maximal satisfiable subset is a minimal
    // correction set: removing it restores consistency (the MSS is
    // consistent), and re-adding any of its elements breaks it again (the
    // grow pass tried each against a subset of the final MSS, and
    // inconsistency is upward monotone).
    std::vector<std::size_t> mcs;
    for (std::size_t e : universe) {
      if (!std::binary_search(mss.begin(), mss.end(), e)) mcs.push_back(e);
    }
    std::sort(mcs.begin(), mcs.end());
    if (!mcs.empty() &&
        std::find(out.begin(), out.end(), mcs) == out.end()) {
      out.push_back(std::move(mcs));
    }
  }

  // Canonical order: smallest repairs first, ties lexicographic.
  std::sort(out.begin(), out.end(),
            [](const std::vector<std::size_t>& a,
               const std::vector<std::size_t>& b) {
              return a.size() != b.size() ? a.size() < b.size() : a < b;
            });
  return out;
}

Diagnosis diagnose(std::size_t num_requirements, const CoreOracle& oracle,
                   const Options& options) {
  Diagnosis diagnosis;
  std::vector<std::size_t> universe(num_requirements);
  for (std::size_t i = 0; i < num_requirements; ++i) universe[i] = i;

  ++diagnosis.checks;
  const auto core = oracle(universe);
  if (!core) return diagnosis;  // consistent: empty mus, no correction sets

  diagnosis.mus = shrink_mus(*core, oracle, diagnosis.checks);
  diagnosis.correction_sets = correction_sets(
      universe, oracle, options.max_correction_sets, diagnosis.checks);
  return diagnosis;
}

namespace {

std::size_t combine(std::size_t seed, std::size_t v) {
  return seed ^ (v + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

/// `base` with every requirement atom (`names`, sorted) moved to the sides
/// `sides` gives it; the other propositions keep their places. Both lists
/// come out in name order.
synth::IoSignature with_sides(const synth::IoSignature& base,
                              const std::vector<std::string>& names,
                              const SynthesisOracle::Sides& sides) {
  synth::IoSignature out;
  const auto keep_others = [&names](const std::vector<std::string>& from,
                                    std::vector<std::string>& to) {
    for (const std::string& name : from) {
      if (!std::binary_search(names.begin(), names.end(), name)) to.push_back(name);
    }
  };
  keep_others(base.inputs, out.inputs);
  keep_others(base.outputs, out.outputs);
  for (std::size_t id = 0; id < names.size(); ++id) {
    if (sides[id] & 1) out.inputs.push_back(names[id]);
    if (sides[id] & 2) out.outputs.push_back(names[id]);
  }
  std::sort(out.inputs.begin(), out.inputs.end());
  std::sort(out.outputs.begin(), out.outputs.end());
  return out;
}

}  // namespace

/// Shared by every view of one SynthesisOracle.
struct SynthesisOracle::State {
  std::vector<ltl::Formula> requirements;
  synth::SynthesisOptions options;
  /// Every requirement atom, sorted; a proposition's id is its rank here,
  /// so ids depend on the requirements alone and id order is name order.
  std::vector<std::string> names;
  /// props[i]: the sorted ids of requirements[i]'s atoms.
  std::vector<std::vector<std::uint32_t>> props;

  /// The one manager every monitor and every component game lives in.
  bdd::Manager manager;
  /// monitors[i]: requirements[i]'s compiled monitor; empty when it is
  /// outside the pattern fragment.
  std::vector<std::optional<synth::Monitor>> monitors;
  /// BDD variable of each atom id (-1 when no monitor reads the atom).
  std::vector<int> prop_var;
  /// Is every requirement in the fragment? Then only an atom missing from
  /// a signature sends a query to the monolithic fallback.
  bool all_monitored = true;

  /// Can some query of a view with these sides reach the monolithic
  /// fallback, the only reader of the view's signature?
  [[nodiscard]] bool reaches_fallback(const Sides& sides) const {
    return !all_monitored || std::find(sides.begin(), sides.end(), 0) != sides.end();
  }

  /// One solved component: its sorted requirement indices, its sorted
  /// (id << 2 | side) proposition codes -- side bit 0 is "an input", bit 1
  /// "an output" -- and its verdict.
  struct Entry {
    std::vector<std::size_t> indices;
    std::vector<std::uint32_t> codes;
    bool realizable = false;

    [[nodiscard]] std::size_t key_hash() const {
      std::size_t h = indices.size();
      for (std::size_t i : indices) h = combine(h, i);
      for (std::uint32_t c : codes) h = combine(h, c);
      return h;
    }
  };
  std::vector<Entry> memo;
  /// Exact-key index into memo: key_hash() -> positions.
  std::unordered_multimap<std::size_t, std::size_t> exact;

  // Per-query scratch, reused across queries.
  std::vector<std::size_t> parent;
  std::vector<std::size_t> owner;
  std::vector<std::size_t> number;
  std::vector<Entry> components;
  std::vector<std::optional<bool>> known;
  std::vector<std::pair<int, bool>> initial;

  /// Does the memo decide a component? First the exact key; then
  /// monotonicity under subsets with the sides fixed: a component inside a
  /// realizable entry is realizable, one holding an unrealizable entry is
  /// unrealizable.
  [[nodiscard]] std::optional<bool> recall(const Entry& component,
                                           std::size_t hash) const {
    const auto [first, last] = exact.equal_range(hash);
    for (auto it = first; it != last; ++it) {
      const Entry& e = memo[it->second];
      if (e.indices == component.indices && e.codes == component.codes) {
        return e.realizable;
      }
    }
    const auto within = [](const Entry& inner, const Entry& outer) {
      return inner.indices.size() <= outer.indices.size() &&
             std::includes(outer.indices.begin(), outer.indices.end(),
                           inner.indices.begin(), inner.indices.end()) &&
             std::includes(outer.codes.begin(), outer.codes.end(),
                           inner.codes.begin(), inner.codes.end());
    };
    for (const Entry& e : memo) {
      if (e.realizable ? within(component, e) : within(e, component)) {
        return e.realizable;
      }
    }
    return std::nullopt;
  }

  /// One monolithic synth::synthesize call on `indices`.
  [[nodiscard]] bool synthesize(const std::vector<std::size_t>& indices,
                                const synth::IoSignature& signature) const {
    std::vector<ltl::Formula> formulas;
    formulas.reserve(indices.size());
    for (std::size_t i : indices) formulas.push_back(requirements[i]);
    return synth::synthesize(formulas, signature, options).verdict ==
           synth::Realizability::kRealizable;
  }

  /// Solve one component: the game of its members' precompiled monitors,
  /// with each proposition quantified on the side its code names.
  [[nodiscard]] bool solve(const Entry& component) {
    game::SymbolicGame game;
    game.manager = &manager;
    game.safe = manager.bdd_true();
    initial.clear();
    for (std::size_t i : component.indices) {
      const synth::Monitor& m = *monitors[i];
      game.safe = manager.bdd_and(game.safe, m.safe);
      game.state_vars.insert(game.state_vars.end(), m.state_vars.begin(),
                             m.state_vars.end());
      game.next_state.insert(game.next_state.end(), m.next_state.begin(),
                             m.next_state.end());
      game.buchi.insert(game.buchi.end(), m.buchi.begin(), m.buchi.end());
      for (std::size_t b = 0; b < m.state_vars.size(); ++b) {
        initial.emplace_back(m.state_vars[b], m.initial_bits[b]);
      }
    }
    for (std::uint32_t code : component.codes) {
      const int v = prop_var[code >> 2];
      if (v < 0) continue;  // no monitor reads it: unconstrained
      if (code & 1) game.input_vars.push_back(v);
      if (code & 2) game.output_vars.push_back(v);
    }
    game.initial = manager.cube(initial);
    return game::solve(game, options.symbolic.cancelled).realizable;
  }

  /// Is the conjunction of `subset` realizable when atom id p has side
  /// sides[p]? `signature` (the same split, with any propositions the
  /// requirements never mention) is only read by the monolithic fallback,
  /// and is null when no query can reach it.
  [[nodiscard]] bool realizable(const std::vector<std::size_t>& subset,
                                const synth::IoSignature* signature,
                                const Sides& sides) {
    bool decomposable = true;
    for (std::size_t i : subset) {
      speccc_check(i < requirements.size(), "oracle subset index out of range");
      decomposable = decomposable && monitors[i].has_value() &&
                     std::all_of(props[i].begin(), props[i].end(),
                                 [&sides](std::uint32_t p) { return sides[p] != 0; });
    }
    if (!decomposable) return synthesize(subset, *signature);
    // Memo hits run no engine, so poll here: every query stays a
    // cancellation point.
    if (options.symbolic.cancelled && options.symbolic.cancelled()) {
      throw util::CancelledError("realizability query cancelled");
    }

    // Union-find over subset positions, joined through shared propositions;
    // components are numbered in order of their first position.
    constexpr std::size_t kNone = static_cast<std::size_t>(-1);
    parent.resize(subset.size());
    std::iota(parent.begin(), parent.end(), std::size_t{0});
    const auto find = [this](std::size_t x) {
      while (parent[x] != x) x = parent[x] = parent[parent[x]];
      return x;
    };
    owner.assign(names.size(), kNone);
    for (std::size_t pos = 0; pos < subset.size(); ++pos) {
      for (std::uint32_t p : props[subset[pos]]) {
        if (owner[p] == kNone) {
          owner[p] = pos;
        } else {
          parent[find(pos)] = find(owner[p]);
        }
      }
    }
    number.assign(subset.size(), kNone);
    std::size_t count = 0;
    for (std::size_t pos = 0; pos < subset.size(); ++pos) {
      std::size_t& n = number[find(pos)];
      if (n == kNone) {
        n = count++;
        if (components.size() < count) components.emplace_back();
        components[n].indices.clear();
        components[n].codes.clear();
      }
      Entry& c = components[n];
      c.indices.push_back(subset[pos]);
      for (std::uint32_t p : props[subset[pos]]) {
        c.codes.push_back(p << 2 | sides[p]);
      }
    }

    // A component the memo knows unrealizable answers at once; otherwise
    // solve the undecided components, stopping at the first unrealizable.
    // (Components are disjoint, so one's new entry never decides another.)
    known.clear();
    for (std::size_t k = 0; k < count; ++k) {
      Entry& c = components[k];
      std::sort(c.indices.begin(), c.indices.end());
      std::sort(c.codes.begin(), c.codes.end());
      c.codes.erase(std::unique(c.codes.begin(), c.codes.end()), c.codes.end());
      known.push_back(recall(c, c.key_hash()));
      if (known.back() == false) return false;
    }
    for (std::size_t k = 0; k < count; ++k) {
      if (known[k].has_value()) continue;
      Entry& c = components[k];
      c.realizable = solve(c);
      exact.emplace(c.key_hash(), memo.size());
      memo.push_back(c);
      if (!c.realizable) return false;
    }
    return true;
  }
};

SynthesisOracle::SynthesisOracle(std::vector<ltl::Formula> requirements,
                                 synth::SynthesisOptions options)
    : state_(std::make_shared<State>()) {
  State& st = *state_;
  st.options = std::move(options);
  st.requirements = std::move(requirements);

  // One walk per requirement collects its distinct atom leaves. Atoms are
  // hash-consed, so a leaf handle stands for its name.
  std::vector<std::vector<ltl::Formula>> leaves(st.requirements.size());
  std::unordered_map<ltl::Formula, std::uint32_t> id_of;
  std::vector<ltl::Formula> stack;
  for (std::size_t i = 0; i < st.requirements.size(); ++i) {
    stack.assign(1, st.requirements[i]);
    while (!stack.empty()) {
      const ltl::Formula f = stack.back();
      stack.pop_back();
      if (f.op() != ltl::Op::kAp) {
        stack.insert(stack.end(), f.children().begin(), f.children().end());
      } else if (std::find(leaves[i].begin(), leaves[i].end(), f) ==
                 leaves[i].end()) {
        leaves[i].push_back(f);
        if (id_of.emplace(f, 0).second) st.names.push_back(f.ap_name());
      }
    }
  }
  // Ids are ranks in name order.
  std::sort(st.names.begin(), st.names.end());
  for (auto& [atom, id] : id_of) {
    id = static_cast<std::uint32_t>(
        std::lower_bound(st.names.begin(), st.names.end(), atom.ap_name()) -
        st.names.begin());
  }
  for (const std::vector<ltl::Formula>& mine : leaves) {
    std::vector<std::uint32_t> ids;
    ids.reserve(mine.size());
    for (ltl::Formula atom : mine) ids.push_back(id_of.at(atom));
    std::sort(ids.begin(), ids.end());
    st.props.push_back(std::move(ids));
  }

  // Compile each fragment requirement's monitor once; proposition
  // variables are allocated on first use, in requirement order.
  st.prop_var.assign(st.names.size(), -1);
  const synth::PropVar prop_var = [&st, &id_of](ltl::Formula atom) {
    int& v = st.prop_var[id_of.at(atom)];
    if (v < 0) v = st.manager.new_var();
    return v;
  };
  for (const ltl::Formula& f : st.requirements) {
    if (const auto pattern = ltl::recognize_pattern(f)) {
      st.monitors.push_back(synth::compile_monitor(st.manager, *pattern, prop_var));
    } else {
      st.monitors.emplace_back();
      st.all_monitored = false;
    }
  }
}

SynthesisOracle::Sides SynthesisOracle::sides(
    const synth::IoSignature& signature) const {
  const std::vector<std::string>& names = state_->names;
  Sides out(names.size(), 0);
  const auto mark = [&](const std::vector<std::string>& list, std::uint8_t bit) {
    for (const std::string& name : list) {
      const auto it = std::lower_bound(names.begin(), names.end(), name);
      if (it != names.end() && *it == name) out[it - names.begin()] |= bit;
    }
  };
  mark(signature.inputs, 1);
  mark(signature.outputs, 2);
  return out;
}

CoreOracle SynthesisOracle::under(const synth::IoSignature& signature) const {
  Sides s = sides(signature);
  std::shared_ptr<const synth::IoSignature> kept;
  if (state_->reaches_fallback(s)) {
    kept = std::make_shared<const synth::IoSignature>(signature);
  }
  return view(std::move(kept), std::move(s));
}

CoreOracle SynthesisOracle::under(const synth::IoSignature& signature,
                                  Sides sides) const {
  speccc_check(sides.size() == state_->names.size(),
               "one side per requirement atom");
  std::shared_ptr<const synth::IoSignature> kept;
  if (state_->reaches_fallback(sides)) {
    kept = std::make_shared<const synth::IoSignature>(
        with_sides(signature, state_->names, sides));
  }
  return view(std::move(kept), std::move(sides));
}

CoreOracle SynthesisOracle::view(std::shared_ptr<const synth::IoSignature> signature,
                                 Sides sides) const {
  return [state = state_, signature = std::move(signature),
          sides = std::move(sides)](const std::vector<std::size_t>& subset)
             -> std::optional<std::vector<std::size_t>> {
    if (subset.empty()) return std::nullopt;  // empty conjunction: realizable
    if (state->realizable(subset, signature.get(), sides)) return std::nullopt;
    return subset;  // no finer core available: echo the query
  };
}

const std::vector<std::string>& SynthesisOracle::atom_names() const {
  return state_->names;
}

const std::vector<std::uint32_t>& SynthesisOracle::atom_ids(std::size_t i) const {
  return state_->props.at(i);
}

CoreOracle synthesis_oracle(std::vector<ltl::Formula> requirements,
                            synth::IoSignature signature,
                            synth::SynthesisOptions options) {
  return SynthesisOracle(std::move(requirements), std::move(options))
      .under(signature);
}

CoreOracle sat_group_oracle(sat::Solver& solver,
                            std::vector<sat::Lit> selectors) {
  return [&solver, selectors = std::move(selectors)](
             const std::vector<std::size_t>& subset)
             -> std::optional<std::vector<std::size_t>> {
    std::vector<sat::Lit> assumptions;
    assumptions.reserve(subset.size());
    for (std::size_t i : subset) {
      speccc_check(i < selectors.size(), "oracle subset index out of range");
      assumptions.push_back(selectors[i]);
    }
    if (solver.solve(assumptions) == sat::Result::kSat) return std::nullopt;
    // Map the failed assumptions back to group indices. An empty solver
    // core (hard clauses alone are unsat) has no consistent subset at all;
    // report the query so shrink_mus still terminates with a witness.
    std::vector<std::size_t> core;
    for (std::size_t k = 0; k < subset.size(); ++k) {
      if (solver.assumption_failed(assumptions[k])) core.push_back(subset[k]);
    }
    if (core.empty()) return subset;
    return core;
  };
}

}  // namespace speccc::diag
