#include "refine/refine.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>

#include "diag/diag.hpp"
#include "util/diagnostics.hpp"

namespace speccc::refine {

using ltl::Formula;

namespace {

/// By atom id: does some requirement of `core` mention the atom?
std::vector<bool> core_atoms(const diag::SynthesisOracle& synthesis,
                             const std::vector<std::size_t>& core) {
  std::vector<bool> in_core(synthesis.atom_names().size(), false);
  for (std::size_t i : core) {
    for (std::uint32_t a : synthesis.atom_ids(i)) in_core[a] = true;
  }
  return in_core;
}

/// localize() over a caller's oracle, so refine() can share one memo
/// between its own checks and the diagnosis. Propositions are compared by
/// the atom ids `synthesis` computed once per requirement.
Localization localize_with(const diag::SynthesisOracle& synthesis,
                           std::size_t size, const diag::CoreOracle& oracle) {
  const diag::Diagnosis diagnosis =
      diag::diagnose(size, oracle, {.max_correction_sets = 0});
  speccc_check(!diagnosis.consistent(),
               "localize precondition: full specification must be unrealizable");
  Localization out;
  out.core = diagnosis.mus;
  out.checks = diagnosis.checks;

  // Filtering step: requirements sharing propositions with the core.
  const std::vector<bool> in_core = core_atoms(synthesis, out.core);
  for (std::size_t i = 0; i < size; ++i) {
    const std::vector<std::uint32_t>& atoms = synthesis.atom_ids(i);
    const bool shares = std::any_of(atoms.begin(), atoms.end(),
                                    [&in_core](std::uint32_t a) { return in_core[a]; });
    if (shares) out.related.push_back(i);
  }
  return out;
}

}  // namespace

Localization localize(const std::vector<Formula>& requirements,
                      const synth::IoSignature& signature,
                      const synth::SynthesisOptions& options) {
  const diag::SynthesisOracle synthesis(requirements, options);
  return localize_with(synthesis, requirements.size(), synthesis.under(signature));
}

RefinementOutcome refine(const std::vector<Formula>& requirements,
                         const partition::Partition& initial,
                         const synth::SynthesisOptions& options,
                         const LocalizeOptions& localize_options) {
  // The oracle reads an empty subset as consistent; an empty specification
  // is still not something to synthesize from.
  if (requirements.empty()) {
    throw util::InvalidInputError("cannot synthesize from an empty specification");
  }
  RefinementOutcome outcome;
  outcome.partition = initial;

  std::vector<std::size_t> universe(requirements.size());
  std::iota(universe.begin(), universe.end(), std::size_t{0});
  // One memo for every question below: localize's universe query repeats
  // the initial check and is a hit, and a flip re-solves only the
  // components that contain the flipped variable.
  const diag::SynthesisOracle synthesis(requirements, options);
  const synth::IoSignature signature = partition::signature(initial);
  const diag::CoreOracle oracle = synthesis.under(signature);
  ++outcome.checks;
  if (!oracle(universe)) {
    outcome.consistent = true;
    return outcome;
  }

  outcome.localization = localize_with(synthesis, requirements.size(), oracle);
  outcome.checks += outcome.localization.checks;

  // Candidate variables: propositions of the core, ranked by occurrence
  // count over the core and related requirements (most implicated first;
  // ties in name order, which is id order).
  const std::vector<bool> in_core =
      core_atoms(synthesis, outcome.localization.core);
  std::vector<std::size_t> occurrence(in_core.size(), 0);
  for (std::size_t i : outcome.localization.related) {
    for (std::uint32_t a : synthesis.atom_ids(i)) {
      if (in_core[a]) ++occurrence[a];
    }
  }
  std::vector<std::uint32_t> candidates;
  for (std::uint32_t a = 0; a < in_core.size(); ++a) {
    if (in_core[a]) candidates.push_back(a);
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [&occurrence](std::uint32_t a, std::uint32_t b) {
                     return occurrence[a] > occurrence[b];
                   });

  // Try flipping each candidate (paper V-B bullet 2): one changed entry of
  // the atoms' sides; a Partition is built only for the flip that works.
  const diag::SynthesisOracle::Sides sides = synthesis.sides(signature);
  for (std::uint32_t id : candidates) {
    const bool was_input = (sides[id] & 1) != 0;
    // A system needs some input.
    if (was_input && initial.inputs.size() == 1) continue;
    diag::SynthesisOracle::Sides flipped = sides;
    flipped[id] = was_input ? 2 : 1;
    ++outcome.checks;
    if (!synthesis.under(signature, std::move(flipped))(universe)) {
      const std::string& variable = synthesis.atom_names()[id];
      outcome.consistent = true;
      outcome.adjustment = Adjustment{variable, !was_input};
      if (was_input) {
        outcome.partition.inputs.erase(variable);
        outcome.partition.outputs.insert(variable);
      } else {
        outcome.partition.outputs.erase(variable);
        outcome.partition.inputs.insert(variable);
      }
      return outcome;
    }
  }

  // No adjustment helps: genuinely inconsistent (paper V-B bullet 3 -- the
  // requirements themselves must be modified). Enumerate the minimal
  // correction sets now, so the diagnosis says which sentence removals
  // would restore consistency.
  if (localize_options.max_correction_sets > 0) {
    std::size_t checks = 0;
    outcome.localization.correction_sets = diag::correction_sets(
        universe, oracle, localize_options.max_correction_sets, checks);
    outcome.localization.checks += checks;
    outcome.checks += checks;
  }
  return outcome;
}

}  // namespace speccc::refine
