// Tests for heuristic refinement (paper Section V-B): inconsistency
// localization and partition adjustment.
#include <gtest/gtest.h>

#include "ltl/parser.hpp"
#include "refine/refine.hpp"
#include "util/diagnostics.hpp"

namespace refine = speccc::refine;
namespace ltl = speccc::ltl;
using speccc::synth::IoSignature;

namespace {

std::vector<ltl::Formula> parse_all(const std::vector<std::string>& texts) {
  std::vector<ltl::Formula> out;
  for (const auto& t : texts) out.push_back(ltl::parse(t));
  return out;
}

TEST(Localize, FindsThePairOfConflictingRequirements) {
  // Formulas 1 and 3 conflict; 0 and 2 are innocent bystanders.
  const auto spec = parse_all({
      "G (a -> x)",
      "G (b -> y)",
      "G (a -> z)",
      "G (b -> !y)",
  });
  const IoSignature sig{{"a", "b"}, {"x", "y", "z"}};
  const auto loc = refine::localize(spec, sig);
  EXPECT_EQ(loc.core, (std::vector<std::size_t>{1, 3}));
  // Related requirements share propositions with the core (b, y): both core
  // members; requirement 0 and 2 share nothing.
  EXPECT_EQ(loc.related, (std::vector<std::size_t>{1, 3}));
}

TEST(Localize, FiltersRelatedRequirements) {
  const auto spec = parse_all({
      "G (a -> y && x)",  // shares y with the core
      "G (b -> y)",
      "G (b -> !y)",
  });
  const IoSignature sig{{"a", "b"}, {"x", "y"}};
  const auto loc = refine::localize(spec, sig);
  EXPECT_EQ(loc.core, (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(loc.related, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(Localize, CoreIsMinimal) {
  // Three-way conflict: y must hold (req 1), and both a-triggered
  // obligations are fine, but req 3 forbids y under c. Minimal core is
  // {1, 3}.
  const auto spec = parse_all({
      "G (a -> x)",
      "G y",
      "G (a -> z)",
      "G (c -> !y)",
  });
  const IoSignature sig{{"a", "c"}, {"x", "y", "z"}};
  const auto loc = refine::localize(spec, sig);
  EXPECT_EQ(loc.core, (std::vector<std::size_t>{1, 3}));
}

TEST(Refine, RealizableSpecNeedsNothing) {
  const auto spec = parse_all({"G (a -> x)"});
  speccc::partition::Partition p;
  p.inputs = {"a"};
  p.outputs = {"x"};
  const auto outcome = refine::refine(spec, p);
  EXPECT_TRUE(outcome.consistent);
  EXPECT_FALSE(outcome.adjustment.has_value());
}

TEST(Refine, FlipsMisclassifiedInputToOutput) {
  // The TELEPROMISE situation: v only occurs in antecedents, so the
  // heuristics called it an input; realizability needs the system to
  // control it.
  const auto spec = parse_all({
      "G (v -> x)",
      "G (v -> y)",
      "G (b -> !x)",
  });
  speccc::partition::Partition p;
  p.inputs = {"v", "b"};
  p.outputs = {"x", "y"};
  const auto outcome = refine::refine(spec, p);
  ASSERT_TRUE(outcome.consistent);
  ASSERT_TRUE(outcome.adjustment.has_value());
  EXPECT_EQ(outcome.adjustment->variable, "v");
  EXPECT_FALSE(outcome.adjustment->now_input);
  EXPECT_TRUE(outcome.partition.outputs.count("v") > 0);
}

TEST(Refine, GenuinelyInconsistentSpecStaysInconsistent) {
  // x and !x forced unconditionally: no partition flip can help.
  const auto spec = parse_all({
      "G x",
      "G !x",
      "G (a -> y)",
  });
  speccc::partition::Partition p;
  p.inputs = {"a"};
  p.outputs = {"x", "y"};
  const auto outcome = refine::refine(spec, p);
  EXPECT_FALSE(outcome.consistent);
  EXPECT_FALSE(outcome.adjustment.has_value());
  // The core still identifies the contradictory pair.
  EXPECT_EQ(outcome.localization.core, (std::vector<std::size_t>{0, 1}));
}

TEST(Refine, EmptySpecificationIsAnInvalidInput) {
  speccc::partition::Partition p;
  p.inputs = {"a"};
  EXPECT_THROW((void)refine::refine({}, p), speccc::util::InvalidInputError);
}

TEST(Refine, NeverLeavesSystemWithoutInputs) {
  // Only one input exists; flipping it to output would leave none, so the
  // refiner must not propose it.
  const auto spec = parse_all({
      "G (a -> x)",
      "G (a -> !x)",
  });
  speccc::partition::Partition p;
  p.inputs = {"a"};
  p.outputs = {"x"};
  const auto outcome = refine::refine(spec, p);
  EXPECT_FALSE(outcome.consistent);
}

}  // namespace
