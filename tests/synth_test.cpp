// Tests for the synthesis engines: realizability verdicts on canonical
// specifications (including the paper's clairvoyance footnote), agreement
// between the bounded and symbolic engines, and verification that extracted
// controllers actually satisfy the specification on simulated traces.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/substrate.hpp"
#include "ltl/parser.hpp"
#include "ltl/trace.hpp"
#include "synth/bounded.hpp"
#include "synth/monitors.hpp"
#include "synth/symbolic_engine.hpp"
#include "synth/synthesizer.hpp"
#include "util/diagnostics.hpp"

namespace synth = speccc::synth;
namespace ltl = speccc::ltl;
using synth::IoSignature;
using synth::Realizability;

namespace {

std::vector<ltl::Formula> parse_all(const std::vector<std::string>& texts) {
  std::vector<ltl::Formula> out;
  for (const auto& t : texts) out.push_back(ltl::parse(t));
  return out;
}

// ---- Bounded engine ---------------------------------------------------------

TEST(Bounded, EchoIsRealizable) {
  // G (in -> out) realizable by always asserting out.
  const auto outcome = synth::bounded_synthesize(
      ltl::parse("G (in -> out)"), {{"in"}, {"out"}});
  EXPECT_EQ(outcome.verdict, Realizability::kRealizable);
  ASSERT_TRUE(outcome.controller.has_value());
}

TEST(Bounded, PaperFootnoteClairvoyanceIsUnrealizable) {
  // Section I footnote: G (output <-> X X X input) demands clairvoyance.
  const auto outcome = synth::bounded_synthesize(
      ltl::parse("G (out <-> X X X in)"), {{"in"}, {"out"}});
  EXPECT_EQ(outcome.verdict, Realizability::kUnrealizable);
}

TEST(Bounded, DelayedEchoIsRealizable) {
  // The mirror image G (in -> X X out) is realizable (remember the input).
  const auto outcome = synth::bounded_synthesize(
      ltl::parse("G (in -> X X out)"), {{"in"}, {"out"}});
  EXPECT_EQ(outcome.verdict, Realizability::kRealizable);
}

TEST(Bounded, EnvironmentControlledObligationUnrealizable) {
  // G in: the system cannot force an input to hold.
  const auto outcome =
      synth::bounded_synthesize(ltl::parse("G in"), {{"in"}, {"out"}});
  EXPECT_EQ(outcome.verdict, Realizability::kUnrealizable);
}

TEST(Bounded, ResponseRealizable) {
  const auto outcome = synth::bounded_synthesize(
      ltl::parse("G (req -> F grant)"), {{"req"}, {"grant"}});
  EXPECT_EQ(outcome.verdict, Realizability::kRealizable);
}

TEST(Bounded, ConflictingObligationsUnrealizable) {
  // out and !out demanded under the same environment-controlled trigger.
  const auto outcome = synth::bounded_synthesize(
      ltl::parse("G (a -> out) && G (b -> !out)"), {{"a", "b"}, {"out"}});
  EXPECT_EQ(outcome.verdict, Realizability::kUnrealizable);
}

TEST(Bounded, UntilObligation) {
  // G (a -> (out U b)): system must hold out until the environment's b;
  // strong until makes b mandatory, which the environment can refuse.
  const auto outcome = synth::bounded_synthesize(
      ltl::parse("G (a -> (out U b))"), {{"a", "b"}, {"out"}});
  EXPECT_EQ(outcome.verdict, Realizability::kUnrealizable);
  // The weak variant is realizable: hold out forever.
  const auto weak = synth::bounded_synthesize(
      ltl::parse("G (a -> (out W b))"), {{"a", "b"}, {"out"}});
  EXPECT_EQ(weak.verdict, Realizability::kRealizable);
}

TEST(Bounded, RejectsOversizedSignatures) {
  IoSignature sig;
  for (int i = 0; i < 10; ++i) sig.inputs.push_back("i" + std::to_string(i));
  for (int i = 0; i < 10; ++i) sig.outputs.push_back("o" + std::to_string(i));
  EXPECT_THROW(
      (void)synth::bounded_synthesize(ltl::parse("G (i0 -> o0)"), sig),
      speccc::util::InvalidInputError);
}

TEST(Bounded, RejectsUnknownPropositions) {
  EXPECT_THROW((void)synth::bounded_synthesize(ltl::parse("G (x -> out)"),
                                               {{"in"}, {"out"}}),
               speccc::util::InvalidInputError);
}

TEST(Bounded, ControllerTraceSatisfiesSpec) {
  const ltl::Formula spec = ltl::parse("G (in -> X out) && G (!in -> X !out)");
  const auto outcome = synth::bounded_synthesize(spec, {{"in"}, {"out"}});
  ASSERT_EQ(outcome.verdict, Realizability::kRealizable);
  ASSERT_TRUE(outcome.controller.has_value());
  const auto& machine = *outcome.controller;

  speccc::util::Rng rng(2024);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<synth::Word> prefix;
    std::vector<synth::Word> loop;
    const std::size_t np = rng.below(4);
    const std::size_t nl = 1 + rng.below(4);
    for (std::size_t i = 0; i < np; ++i) prefix.push_back(rng.below(2) ? 1 : 0);
    for (std::size_t i = 0; i < nl; ++i) loop.push_back(rng.below(2) ? 1 : 0);
    const ltl::Lasso trace = machine.lasso(prefix, loop);
    EXPECT_TRUE(ltl::evaluate(spec, trace)) << "controller violates spec";
  }
}

// ---- Symbolic engine --------------------------------------------------------

TEST(Symbolic, CompilesPatternSpecs) {
  const auto spec = parse_all({"G (a -> out)", "G (b -> F out2)", "F done"});
  EXPECT_TRUE(synth::fragment_covers(spec));
}

TEST(Symbolic, RefusesNonPatternSpecs) {
  const auto spec = parse_all({"G (a -> out)", "G F a -> G F b"});
  EXPECT_FALSE(synth::fragment_covers(spec));
  const auto outcome =
      synth::symbolic_synthesize(spec, {{"a", "b"}, {"out"}});
  EXPECT_FALSE(outcome.has_value());
}

TEST(Symbolic, EchoRealizable) {
  const auto outcome = synth::symbolic_synthesize(
      parse_all({"G (in -> out)"}), {{"in"}, {"out"}});
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->verdict, Realizability::kRealizable);
}

TEST(Symbolic, ConflictUnrealizable) {
  const auto outcome = synth::symbolic_synthesize(
      parse_all({"G (a -> out)", "G (b -> !out)"}), {{"a", "b"}, {"out"}});
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->verdict, Realizability::kUnrealizable);
}

TEST(Symbolic, GuardDelayedRealizableByConstantOutput) {
  // The paper's Req-28 shape: G (X X X !bp -> trigger). Constant triggering
  // realizes it without clairvoyance.
  const auto outcome = synth::symbolic_synthesize(
      parse_all({"G (X X X !bp -> trigger)"}), {{"bp"}, {"trigger"}});
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->verdict, Realizability::kRealizable);
}

TEST(Symbolic, ResponseWithResetRealizable) {
  const auto spec = parse_all(
      {"G (req -> F grant)", "G (cancel -> !grant)"});
  const auto outcome =
      synth::symbolic_synthesize(spec, {{"req", "cancel"}, {"grant"}});
  ASSERT_TRUE(outcome.has_value());
  // The environment can hold cancel forever while requesting: grant must
  // eventually fire but is forbidden: unrealizable.
  EXPECT_EQ(outcome->verdict, Realizability::kUnrealizable);
}

TEST(Symbolic, ControllerSatisfiesSpecOnTraces) {
  const auto spec = parse_all({
      "G (req -> F grant)",
      "G (grant -> X !grant)",  // no two grants in a row
  });
  synth::SymbolicOptions opts;
  opts.extract = true;
  const auto outcome = synth::symbolic_synthesize(spec, {{"req"}, {"grant"}}, opts);
  ASSERT_TRUE(outcome.has_value());
  ASSERT_EQ(outcome->verdict, Realizability::kRealizable);
  ASSERT_TRUE(outcome->controller.has_value());
  const auto& machine = *outcome->controller;
  const ltl::Formula conj = ltl::land(spec);

  speccc::util::Rng rng(77);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<synth::Word> prefix;
    std::vector<synth::Word> loop;
    for (std::size_t i = rng.below(3); i-- > 0;) prefix.push_back(rng.below(2) ? 1 : 0);
    for (std::size_t i = 1 + rng.below(3); i-- > 0;) loop.push_back(rng.below(2) ? 1 : 0);
    const ltl::Lasso trace = machine.lasso(prefix, loop);
    EXPECT_TRUE(ltl::evaluate(conj, trace))
        << "controller violates spec on trial " << trial;
  }
}

// ---- Engine agreement -------------------------------------------------------

class EngineAgreementTest : public ::testing::TestWithParam<std::string> {};

TEST_P(EngineAgreementTest, SymbolicMatchesBounded) {
  // Single-formula specs over fixed small signature; both engines must
  // return the same verdict.
  const ltl::Formula f = ltl::parse(GetParam());
  const IoSignature sig{{"a", "b"}, {"x", "y"}};
  const std::vector<ltl::Formula> spec{f};

  const auto symbolic = synth::symbolic_synthesize(spec, sig);
  ASSERT_TRUE(symbolic.has_value()) << "not in fragment: " << GetParam();

  const auto bounded = synth::bounded_synthesize(f, sig);
  ASSERT_NE(bounded.verdict, Realizability::kUnknown) << GetParam();
  EXPECT_EQ(symbolic->verdict, bounded.verdict) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EngineAgreementTest,
    ::testing::Values(
        "G (a -> x)", "G (a -> !x)", "G (a -> X x)", "G (a -> X X x)",
        "G (a && b -> x && y)", "G (a -> F x)", "G (x -> F a)",
        "G (a -> (x W b))", "G (a -> (x U b))", "G (a -> (x W y))",
        "G (X X a -> x)", "G a", "G (a || x)", "F x", "F a",
        "G (a -> !b -> (x W b))"));

// Conjunction-level agreement: random 2-3 formula specs drawn from a pool of
// pattern templates; both engines must agree on the verdict of the whole
// specification, not just single formulas.
class ConjunctionAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(ConjunctionAgreementTest, SymbolicMatchesBoundedOnSpecs) {
  static const std::vector<std::string> pool = {
      "G (a -> x)",      "G (a -> !x)",    "G (b -> y)",   "G (b -> !y)",
      "G (a -> X y)",    "G (a -> F x)",   "G (x -> F b)", "G (a -> (x W b))",
      "G (a && b -> x)", "G (!a -> !y)",   "F x",          "G (y -> x)",
  };
  speccc::util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7001 + 11);
  std::vector<ltl::Formula> spec;
  const std::size_t n = 2 + rng.below(2);
  for (std::size_t i = 0; i < n; ++i) {
    spec.push_back(ltl::parse(pool[rng.below(pool.size())]));
  }
  const IoSignature sig{{"a", "b"}, {"x", "y"}};

  const auto symbolic = synth::symbolic_synthesize(spec, sig);
  ASSERT_TRUE(symbolic.has_value());
  const auto bounded = synth::bounded_synthesize(ltl::land(spec), sig);
  if (bounded.verdict == Realizability::kUnknown) {
    GTEST_SKIP() << "bounded engine hit its k bound";
  }
  EXPECT_EQ(symbolic->verdict, bounded.verdict)
      << "spec: " << ltl::to_string(ltl::land(spec));
}

INSTANTIATE_TEST_SUITE_P(Sweep, ConjunctionAgreementTest,
                         ::testing::Range(0, 25));

// ---- Driver -----------------------------------------------------------------

TEST(Synthesizer, AutoSelectsSymbolicForPatternSpecs) {
  const auto result = synth::synthesize(parse_all({"G (a -> x)"}), {{"a"}, {"x"}});
  EXPECT_EQ(result.engine_used, synth::Engine::kSymbolic);
  EXPECT_TRUE(result.realizable());
}

TEST(Synthesizer, AutoFallsBackToBounded) {
  const auto result = synth::synthesize(
      parse_all({"G (a -> F (x && X x))"}), {{"a"}, {"x"}});
  EXPECT_EQ(result.engine_used, synth::Engine::kBounded);
  EXPECT_EQ(result.verdict, Realizability::kRealizable);
}

TEST(Synthesizer, EmptySpecThrows) {
  EXPECT_THROW((void)synth::synthesize({}, {{"a"}, {"x"}}),
               speccc::util::InvalidInputError);
}

TEST(Synthesizer, ForcedSymbolicOnNonFragmentThrows) {
  const auto* symbolic =
      speccc::core::SubstrateRegistry::global().find("symbolic");
  ASSERT_NE(symbolic, nullptr);
  EXPECT_THROW((void)symbolic->check(parse_all({"G F a -> G F x"}),
                                     {{"a"}, {"x"}}, {}, nullptr),
               speccc::util::InvalidInputError);
}

}  // namespace
