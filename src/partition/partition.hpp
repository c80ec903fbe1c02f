// Input/output variable partition heuristics (paper Section IV-F).
//
// Per requirement: propositions in the left-hand side of an implication or
// the right-hand side of an Until/WeakUntil are input candidates; all other
// propositions are output candidates; a proposition appearing on both sides
// within one requirement becomes an output.
//
// Across requirements the per-requirement votes are unified; any conflict
// (input in one requirement, output in another) resolves to output. If no
// input remains, one output is promoted to input -- the paper picks
// randomly, we pick the lexicographically smallest for reproducibility.
// User overrides (paper: "the translator also asks the user") are applied
// last and win unconditionally.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "ltl/formula.hpp"
#include "synth/mealy.hpp"

namespace speccc::partition {

struct Partition {
  std::set<std::string> inputs;
  std::set<std::string> outputs;

  [[nodiscard]] bool is_input(const std::string& name) const {
    return inputs.count(name) > 0;
  }
};

/// The partition as the synthesis engines' I/O signature: both name lists
/// in sorted order.
[[nodiscard]] synth::IoSignature signature(const Partition& partition);

/// Per-requirement classification votes.
struct Votes {
  std::set<std::string> inputs;
  std::set<std::string> outputs;
};

/// Classify one requirement formula.
[[nodiscard]] Votes classify(ltl::Formula requirement);

struct Overrides {
  /// proposition -> true for input, false for output.
  std::map<std::string, bool> forced;
};

/// Unify the votes of all requirements into a single partition.
[[nodiscard]] Partition unify(const std::vector<ltl::Formula>& requirements,
                              const Overrides& overrides = {});

}  // namespace speccc::partition
