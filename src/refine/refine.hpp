// Heuristic refinement (paper Section V-B): when synthesis reports the
// specification unrealizable, (1) locate a minimal inconsistent requirement
// core, (2) filter the requirements sharing propositions with it, and
// (3) try adjusting the input/output partition of the implicated variables;
// only if no adjustment helps is the specification declared genuinely
// inconsistent (the requirements themselves must change) -- and then the
// diag engine enumerates minimal correction sets, the alternative sentence
// removals that would restore consistency.
//
// Every realizability question one refine() call asks -- the initial
// check, the MUS shrink, each partition flip and the correction sets -- is
// one query to a single diag::SynthesisOracle, the only stage-3 call into
// synth. They share its component memo: localize's universe query repeats
// the initial check and is a memo hit, and a flip re-solves only the
// components that contain the flipped variable. Counts (`checks`) are
// queries asked, memo hits included.
#pragma once

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "ltl/formula.hpp"
#include "partition/partition.hpp"
#include "synth/synthesizer.hpp"

namespace speccc::refine {

struct LocalizeOptions {
  /// Minimal correction sets to enumerate for genuinely inconsistent
  /// specifications (0 disables the diag MaxSAT loop). refine() defers
  /// them until partition adjustment has failed, so
  /// consistent-after-refinement specs never pay for them.
  std::size_t max_correction_sets = 0;
};

struct Localization {
  /// Indices of a minimal inconsistent requirement subset (MUS).
  std::vector<std::size_t> core;
  /// Minimal correction sets (diag::correction_sets order: smallest
  /// first): removing any one restores consistency. Empty unless
  /// LocalizeOptions::max_correction_sets asked refine() for them.
  std::vector<std::vector<std::size_t>> correction_sets;
  /// Indices of requirements sharing propositions with the core (the
  /// paper's filtering step) -- includes the core itself.
  std::vector<std::size_t> related;
  /// Number of realizability checks performed.
  std::size_t checks = 0;
};

/// Locate a minimal inconsistent core (paper V-B bullet 1) by
/// diag::diagnose over the synthesis oracle, then filter the related
/// requirements. Precondition: the full conjunction is unrealizable under
/// `signature`.
[[nodiscard]] Localization localize(const std::vector<ltl::Formula>& requirements,
                                    const synth::IoSignature& signature,
                                    const synth::SynthesisOptions& options = {});

struct Adjustment {
  std::string variable;
  bool now_input = false;  // direction of the flip
};

struct RefinementOutcome {
  bool consistent = false;  // true if an adjustment restored realizability
  std::optional<Adjustment> adjustment;
  partition::Partition partition;  // final partition (adjusted or original)
  Localization localization;
  std::size_t checks = 0;  // total realizability checks
};

/// The full stage-3 loop: localize, then try single-variable partition flips
/// on the core/related propositions (paper V-B bullet 2). Candidates are
/// ranked by how often they occur in the core and related requirements.
/// When no flip helps and max_correction_sets > 0, the outcome's
/// localization additionally carries the minimal correction sets. Throws
/// util::InvalidInputError on an empty specification. Every realizability
/// check polls options.{symbolic,bounded}.cancelled; the resulting
/// util::CancelledError propagates (nothing here catches it).
[[nodiscard]] RefinementOutcome refine(const std::vector<ltl::Formula>& requirements,
                                       const partition::Partition& initial,
                                       const synth::SynthesisOptions& options = {},
                                       const LocalizeOptions& localize_options = {});

}  // namespace speccc::refine
