#include "diag/diag.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <set>
#include <string>

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

/// Shared by every view of one SynthesisOracle.
struct SynthesisOracle::State {
  std::vector<ltl::Formula> requirements;
  synth::SynthesisOptions options;
  /// Every requirement atom, sorted; a proposition's id is its rank here,
  /// so ids depend on the requirements alone and id order is name order.
  std::vector<std::string> names;
  /// props[i]: the sorted ids of requirements[i]'s atoms.
  std::vector<std::vector<std::uint32_t>> props;
  /// Is requirements[i] in the symbolic engine's pattern fragment?
  std::vector<bool> in_fragment;

  /// One solved component: its sorted requirement indices, its sorted
  /// (id << 2 | side) proposition codes -- side bit 0 is "an input", bit 1
  /// "an output" -- and its verdict.
  struct Entry {
    std::vector<std::size_t> indices;
    std::vector<std::uint32_t> codes;
    bool realizable = false;
  };
  std::vector<Entry> memo;

  /// Does the memo decide a component? Consistency is monotone under
  /// subsets with the sides fixed: a component inside a realizable entry
  /// is realizable, one holding an unrealizable entry is unrealizable.
  [[nodiscard]] std::optional<bool> recall(const Entry& component) const {
    const auto within = [](const Entry& inner, const Entry& outer) {
      return std::includes(outer.indices.begin(), outer.indices.end(),
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

  [[nodiscard]] bool synthesize(const std::vector<std::size_t>& indices,
                                const synth::IoSignature& signature) const {
    std::vector<ltl::Formula> formulas;
    formulas.reserve(indices.size());
    for (std::size_t i : indices) formulas.push_back(requirements[i]);
    return synth::synthesize(formulas, signature, options).verdict ==
           synth::Realizability::kRealizable;
  }

  /// Is the conjunction of `subset` realizable under `signature`, whose
  /// proposition sides are `side` (indexed by id)?
  [[nodiscard]] bool realizable(const std::vector<std::size_t>& subset,
                                const synth::IoSignature& signature,
                                const std::vector<std::uint32_t>& side) {
    bool decomposable = true;
    for (std::size_t i : subset) {
      speccc_check(i < requirements.size(), "oracle subset index out of range");
      decomposable = decomposable && in_fragment[i] &&
                     std::all_of(props[i].begin(), props[i].end(),
                                 [&side](std::uint32_t p) { return side[p] != 0; });
    }
    if (!decomposable) return synthesize(subset, signature);
    // Memo hits run no engine, so poll here: every query stays a
    // cancellation point.
    if (options.symbolic.cancelled && options.symbolic.cancelled()) {
      throw util::CancelledError("realizability query cancelled");
    }

    // Union-find over subset positions, joined through shared propositions;
    // components are numbered in order of their first position.
    std::vector<std::size_t> parent(subset.size());
    std::iota(parent.begin(), parent.end(), std::size_t{0});
    const auto find = [&parent](std::size_t x) {
      while (parent[x] != x) x = parent[x] = parent[parent[x]];
      return x;
    };
    constexpr std::size_t kNone = static_cast<std::size_t>(-1);
    std::vector<std::size_t> owner(names.size(), kNone);
    for (std::size_t pos = 0; pos < subset.size(); ++pos) {
      for (std::uint32_t p : props[subset[pos]]) {
        if (owner[p] == kNone) {
          owner[p] = pos;
        } else {
          parent[find(pos)] = find(owner[p]);
        }
      }
    }
    std::vector<std::size_t> number(subset.size(), kNone);
    std::vector<Entry> components;
    for (std::size_t pos = 0; pos < subset.size(); ++pos) {
      std::size_t& n = number[find(pos)];
      if (n == kNone) {
        n = components.size();
        components.emplace_back();
      }
      Entry& c = components[n];
      c.indices.push_back(subset[pos]);
      for (std::uint32_t p : props[subset[pos]]) c.codes.push_back(p << 2 | side[p]);
    }
    for (Entry& c : components) {
      std::sort(c.indices.begin(), c.indices.end());
      std::sort(c.codes.begin(), c.codes.end());
      c.codes.erase(std::unique(c.codes.begin(), c.codes.end()), c.codes.end());
    }

    // A component the memo knows unrealizable answers at once; otherwise
    // solve the undecided components, stopping at the first unrealizable.
    // (Components are disjoint, so one's new entry never decides another.)
    std::vector<std::optional<bool>> known;
    for (const Entry& c : components) {
      known.push_back(recall(c));
      if (known.back() == false) return false;
    }
    for (std::size_t k = 0; k < components.size(); ++k) {
      if (known[k].has_value()) continue;
      Entry& c = components[k];
      // The signature projected onto the component, in name order.
      synth::IoSignature projected;
      for (std::uint32_t code : c.codes) {
        const std::string& name = names[code >> 2];
        if (code & 1) projected.inputs.push_back(name);
        if (code & 2) projected.outputs.push_back(name);
      }
      c.realizable = synthesize(c.indices, projected);
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
  std::set<std::string> atoms;
  std::vector<std::set<std::string>> atoms_of;
  for (const ltl::Formula& f : requirements) {
    atoms_of.push_back(f.atoms());
    atoms.insert(atoms_of.back().begin(), atoms_of.back().end());
    st.in_fragment.push_back(synth::fragment_covers({f}));
  }
  st.names.assign(atoms.begin(), atoms.end());
  for (const std::set<std::string>& mine : atoms_of) {
    std::vector<std::uint32_t> ids;
    for (const std::string& atom : mine) {
      ids.push_back(static_cast<std::uint32_t>(
          std::lower_bound(st.names.begin(), st.names.end(), atom) -
          st.names.begin()));
    }
    st.props.push_back(std::move(ids));
  }
  st.requirements = std::move(requirements);
}

CoreOracle SynthesisOracle::under(const synth::IoSignature& signature) const {
  const std::vector<std::string>& names = state_->names;
  std::vector<std::uint32_t> side(names.size(), 0);
  const auto mark = [&](const std::vector<std::string>& list, std::uint32_t bit) {
    for (const std::string& name : list) {
      const auto it = std::lower_bound(names.begin(), names.end(), name);
      if (it != names.end() && *it == name) side[it - names.begin()] |= bit;
    }
  };
  mark(signature.inputs, 1);
  mark(signature.outputs, 2);
  return [state = state_, signature, side = std::move(side)](
             const std::vector<std::size_t>& subset)
             -> std::optional<std::vector<std::size_t>> {
    if (subset.empty()) return std::nullopt;  // empty conjunction: realizable
    if (state->realizable(subset, signature, side)) return std::nullopt;
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
