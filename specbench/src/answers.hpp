// Workload inputs and their known answers.
//
// Every expected answer comes from somewhere other than the checker under
// test: Table I rows from the paper's published formula/input/output
// counts and appendix formulas, planted specifications from the fault sets
// the generator wove in, generated specifications from the generator's
// realizable-by-construction shape. The checker's output is compared
// against them; it never feeds them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "batch/batch.hpp"
#include "core/pipeline.hpp"
#include "difftest/random.hpp"

namespace specbench {

struct Expected {
  bool consistent = true;
  std::size_t formulas = 0;
  /// Published partition sizes (Table I). The input count may deviate by
  /// `inputs_slack` (CARA/0: the published formulas carry typo-induced
  /// propositions, so 22 published inputs read as 22 or 23).
  std::optional<std::size_t> inputs;
  std::optional<std::size_t> outputs;
  std::size_t inputs_slack = 0;
  /// Published LTL renderings by requirement id (CARA/0's appendix).
  std::vector<std::pair<std::string, std::string>> formulas_by_id;
  /// Planted faults as requirement ids: the localized core must equal one.
  std::vector<std::vector<std::string>> faults;
};

struct Case {
  speccc::batch::SpecTask task;
  Expected expected;
};

/// What the checker said about one specification, in a form both a
/// core::PipelineResult and a batch::TaskResult reduce to.
struct Verdict {
  std::string error;  // non-empty: no verdict (error, budget, cancellation)
  bool consistent = false;
  std::size_t formulas = 0;
  std::size_t inputs = 0;
  std::size_t outputs = 0;
  std::vector<std::string> unsatisfiable;
  std::vector<std::string> mus;  // requirement ids of the localized core
  std::vector<std::pair<std::string, std::string>> formula_text;  // id, LTL
};

[[nodiscard]] Verdict verdict_of(const speccc::core::PipelineResult& result);
[[nodiscard]] Verdict verdict_of(const speccc::batch::TaskResult& result);

/// Empty when `verdict` matches the known answer, else what differs.
[[nodiscard]] std::string mismatch(const Expected& expected,
                                   const Verdict& verdict);

/// Empty when two verdicts agree on everything a canonical batch row
/// shows (the traced replica against Pipeline::run), else what differs.
[[nodiscard]] std::string replica_mismatch(const Verdict& canonical,
                                           const Verdict& replica);

/// Corrupt each field of a case's known answer in turn and confirm
/// mismatch() notices; returns the first corruption it missed, or empty.
[[nodiscard]] std::string self_test(const Case& c, const Verdict& verdict);

/// The 22 Table I rows with their published answers.
[[nodiscard]] std::vector<Case> table1_cases();

/// Planted-fault specification `index` of `seed`, its base spec without
/// "in N seconds" sentences.
[[nodiscard]] Case planted_case(std::uint64_t seed, int index);

/// Generated (realizable by construction) specification `index` of `seed`.
[[nodiscard]] Case generated_case(std::uint64_t seed, int index,
                                  const speccc::difftest::SpecConfig& config = {});

/// `base` with requirement `drop` removed: a one-requirement revision. Any
/// subset of a generated spec keeps its shape (inputs only in antecedents,
/// positive consequents), so it stays realizable.
[[nodiscard]] Case revision_of(const Case& base, std::size_t drop);

}  // namespace specbench
