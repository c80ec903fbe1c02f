// Tests for Buechi emptiness / LTL satisfiability with lasso witnesses.
#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "automata/emptiness.hpp"
#include "automata/gpvw.hpp"
#include "ltl/parser.hpp"
#include "ltl/trace.hpp"
#include "util/diagnostics.hpp"

namespace automata = speccc::automata;
namespace ltl = speccc::ltl;

namespace {

TEST(Satisfiability, BasicVerdicts) {
  EXPECT_TRUE(automata::satisfiable(ltl::parse("a")));
  EXPECT_TRUE(automata::satisfiable(ltl::parse("G F a")));
  EXPECT_FALSE(automata::satisfiable(ltl::parse("a && !a")));
  EXPECT_FALSE(automata::satisfiable(ltl::parse("G a && F !a")));
  EXPECT_FALSE(automata::satisfiable(ltl::parse("false")));
  EXPECT_TRUE(automata::satisfiable(ltl::parse("true")));
}

TEST(Satisfiability, Validity) {
  EXPECT_TRUE(automata::valid(ltl::parse("a || !a")));
  EXPECT_TRUE(automata::valid(ltl::parse("G a -> F a")));
  EXPECT_TRUE(automata::valid(ltl::parse("a U b -> F b")));
  EXPECT_FALSE(automata::valid(ltl::parse("F a -> G a")));
  // W does not imply eventuality.
  EXPECT_FALSE(automata::valid(ltl::parse("a W b -> F b")));
}

TEST(Satisfiability, ConflictingObligationsOverTime) {
  // Satisfiable even though instantaneously contradictory-looking.
  EXPECT_TRUE(automata::satisfiable(ltl::parse("F a && F !a")));
  EXPECT_FALSE(automata::satisfiable(ltl::parse("G (a -> X a) && a && F !a")));
}

TEST(Emptiness, WitnessIsAccepted) {
  const ltl::Formula f = ltl::parse("G (a -> F b) && F a");
  const auto nbw = automata::ltl_to_nbw(f);
  const auto witness = automata::find_accepting_lasso(nbw);
  ASSERT_TRUE(witness.has_value());
  EXPECT_TRUE(automata::accepts_lasso(nbw, witness->lasso));
}

TEST(Emptiness, EmptyAutomatonHasNoWitness) {
  const auto nbw = automata::ltl_to_nbw(ltl::parse("a && !a"));
  EXPECT_TRUE(automata::is_empty(nbw));
}

std::string next_chain(int depth, const std::string& body) {
  std::string out;
  for (int i = 0; i < depth; ++i) out += "X ";
  return out + body;
}

void expect_same_lasso(const ltl::Lasso& a, const ltl::Lasso& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.loop_start(), b.loop_start());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a.at(i), b.at(i)) << i;
}

TEST(Satisfiability, ConstantTraceWitnessesAVacuousImplication) {
  const ltl::Formula f = ltl::parse("G (a -> " + next_chain(12, "b") + ")");
  const auto witness = automata::satisfiable_witness(f);
  ASSERT_TRUE(witness.has_value());
  EXPECT_EQ(witness->lasso.size(), 1u);
  EXPECT_TRUE(ltl::evaluate(f, witness->lasso));
  // The all-true lasso, when the all-false one is no model.
  const ltl::Formula g = ltl::parse("G (a || b)");
  const auto all_true = automata::satisfiable_witness(g);
  ASSERT_TRUE(all_true.has_value());
  EXPECT_EQ(all_true->lasso.size(), 1u);
  EXPECT_EQ(all_true->lasso.at(0), (ltl::Valuation{"a", "b"}));
}

TEST(Satisfiability, NoConstantModelFallsThroughToTheTableau) {
  for (const char* text : {"F a && F !a", "G (a && !b)"}) {
    const ltl::Formula f = ltl::parse(text);
    const auto witness = automata::satisfiable_witness(f);
    ASSERT_TRUE(witness.has_value()) << text;
    EXPECT_TRUE(ltl::evaluate(f, witness->lasso)) << text;
    const auto tableau = automata::find_accepting_lasso(automata::ltl_to_nbw(f));
    ASSERT_TRUE(tableau.has_value()) << text;
    expect_same_lasso(witness->lasso, tableau->lasso);
  }
}

TEST(Satisfiability, PreRaisedCancelThrowsOnEitherPath) {
  const std::function<bool()> cancelled = [] { return true; };
  // Constant-witnessed, tableau-decided satisfiable, and unsatisfiable.
  for (const char* text : {"G (a -> X b)", "F a && F !a", "a && !a"}) {
    EXPECT_THROW((void)automata::satisfiable_witness(ltl::parse(text), cancelled),
                 speccc::util::CancelledError)
        << text;
  }
}

// Property sweep: every satisfiability witness actually satisfies the
// formula under the trace semantics, and unsatisfiable formulas reject all
// random lassos.
class WitnessTest : public ::testing::TestWithParam<std::string> {};

TEST_P(WitnessTest, WitnessSatisfiesFormula) {
  const ltl::Formula f = ltl::parse(GetParam());
  const auto witness = automata::satisfiable_witness(f);
  if (witness.has_value()) {
    EXPECT_TRUE(ltl::evaluate(f, witness->lasso))
        << "witness does not satisfy " << GetParam();
  } else {
    // Cross-check unsatisfiability on random lassos.
    speccc::util::Rng rng(31);
    for (int trial = 0; trial < 64; ++trial) {
      const std::size_t len = 1 + rng.below(5);
      std::vector<ltl::Valuation> steps(len);
      for (auto& s : steps) {
        for (const char* p : {"a", "b", "c"}) {
          if (rng.chance(1, 2)) s.insert(p);
        }
      }
      EXPECT_FALSE(ltl::evaluate(f, ltl::Lasso(steps, rng.below(len))))
          << GetParam() << " claimed unsat but a lasso satisfies it";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WitnessTest,
    ::testing::Values("a", "X X a", "F (a && b)", "G (a -> X b)",
                      "a U (b && c)", "G F a && G F !a", "a W b",
                      "G (a -> F b) && G (b -> F a) && F a",
                      "a && G (a -> X !a) && G (!a -> X a)",
                      "G a && F (b && !a)",            // unsat
                      "(a U b) && G !b",               // unsat
                      "F G a && G F !a",               // unsat
                      "X X X (a && !a) || F c"));

}  // namespace
