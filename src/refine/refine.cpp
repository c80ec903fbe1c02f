#include "refine/refine.hpp"

#include <algorithm>
#include <map>
#include <numeric>

#include "diag/diag.hpp"
#include "util/diagnostics.hpp"

namespace speccc::refine {

using ltl::Formula;

namespace {

/// localize() over a caller's oracle, so refine() can share one memo
/// between its own checks and the diagnosis.
Localization localize_with(const std::vector<Formula>& requirements,
                           const diag::CoreOracle& oracle) {
  const diag::Diagnosis diagnosis = diag::diagnose(
      requirements.size(), oracle, {.max_correction_sets = 0});
  speccc_check(!diagnosis.consistent(),
               "localize precondition: full specification must be unrealizable");
  Localization out;
  out.core = diagnosis.mus;
  out.checks = diagnosis.checks;

  // Filtering step: requirements sharing propositions with the core.
  std::set<std::string> core_props;
  for (std::size_t i : out.core) {
    const auto atoms = requirements[i].atoms();
    core_props.insert(atoms.begin(), atoms.end());
  }
  for (std::size_t i = 0; i < requirements.size(); ++i) {
    const auto atoms = requirements[i].atoms();
    const bool shares = std::any_of(atoms.begin(), atoms.end(),
                                    [&core_props](const std::string& a) {
                                      return core_props.count(a) > 0;
                                    });
    if (shares) out.related.push_back(i);
  }
  return out;
}

}  // namespace

Localization localize(const std::vector<Formula>& requirements,
                      const synth::IoSignature& signature,
                      const synth::SynthesisOptions& options) {
  return localize_with(requirements,
                       diag::synthesis_oracle(requirements, signature, options));
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
  const diag::CoreOracle oracle =
      synthesis.under(partition::signature(initial));
  ++outcome.checks;
  if (!oracle(universe)) {
    outcome.consistent = true;
    return outcome;
  }

  outcome.localization = localize_with(requirements, oracle);
  outcome.checks += outcome.localization.checks;

  // Candidate variables: propositions of the core, ranked by occurrence
  // count over the core and related requirements (most implicated first).
  std::set<std::string> core_props;
  for (std::size_t i : outcome.localization.core) {
    const auto atoms = requirements[i].atoms();
    core_props.insert(atoms.begin(), atoms.end());
  }
  std::map<std::string, std::size_t> occurrence;
  for (std::size_t i : outcome.localization.related) {
    for (const auto& a : requirements[i].atoms()) {
      if (core_props.count(a) > 0) ++occurrence[a];
    }
  }
  std::vector<std::string> candidates(core_props.begin(), core_props.end());
  std::sort(candidates.begin(), candidates.end(),
            [&occurrence](const std::string& a, const std::string& b) {
              const auto ca = occurrence[a];
              const auto cb = occurrence[b];
              return ca != cb ? ca > cb : a < b;
            });

  // Try flipping each candidate (paper V-B bullet 2).
  for (const std::string& variable : candidates) {
    partition::Partition flipped = initial;
    const bool was_input = flipped.is_input(variable);
    if (was_input) {
      flipped.inputs.erase(variable);
      flipped.outputs.insert(variable);
    } else {
      flipped.outputs.erase(variable);
      flipped.inputs.insert(variable);
    }
    if (flipped.inputs.empty()) continue;  // a system needs some input
    ++outcome.checks;
    if (!synthesis.under(partition::signature(flipped))(universe)) {
      outcome.consistent = true;
      outcome.adjustment = Adjustment{variable, !was_input};
      outcome.partition = flipped;
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
