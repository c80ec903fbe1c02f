// Tests for the LTL core: hash-consing (also from several threads at once),
// printing, parsing round-trips, rewriting, and lasso-trace semantics.
#include <gtest/gtest.h>

#include <cctype>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "batch/corpus_tasks.hpp"
#include "core/pipeline.hpp"
#include "difftest/random.hpp"
#include "ltl/formula.hpp"
#include "ltl/parser.hpp"
#include "ltl/patterns.hpp"
#include "ltl/rewrite.hpp"
#include "ltl/trace.hpp"
#include "util/diagnostics.hpp"

namespace ltl = speccc::ltl;
using ltl::Formula;

namespace {

Formula a() { return ltl::ap("a"); }
Formula b() { return ltl::ap("b"); }
Formula c() { return ltl::ap("c"); }

TEST(Formula, HashConsingGivesPointerEquality) {
  Formula f1 = ltl::land(a(), ltl::next(b()));
  Formula f2 = ltl::land(a(), ltl::next(b()));
  EXPECT_EQ(f1, f2);
  EXPECT_EQ(f1.hash(), f2.hash());
}

TEST(Formula, NeutralSimplifications) {
  EXPECT_EQ(ltl::lnot(ltl::lnot(a())), a());
  EXPECT_EQ(ltl::land(a(), ltl::tru()), a());
  EXPECT_EQ(ltl::land(a(), ltl::fls()), ltl::fls());
  EXPECT_EQ(ltl::lor(a(), ltl::tru()), ltl::tru());
  EXPECT_EQ(ltl::lor(a(), ltl::fls()), a());
  EXPECT_EQ(ltl::always(ltl::always(a())), ltl::always(a()));
  EXPECT_EQ(ltl::eventually(ltl::eventually(a())), ltl::eventually(a()));
}

TEST(Formula, NaryFlattening) {
  Formula f = ltl::land(ltl::land(a(), b()), c());
  Formula g = ltl::land({a(), b(), c()});
  EXPECT_EQ(f, g);
  EXPECT_EQ(f.arity(), 3u);
}

TEST(Formula, FlatteningPreservesOrder) {
  Formula f = ltl::land({c(), a(), b()});
  EXPECT_EQ(ltl::to_string(f), "c && a && b");
}

TEST(Formula, DuplicateOperandsDropped) {
  EXPECT_EQ(ltl::land({a(), a(), b()}), ltl::land(a(), b()));
  EXPECT_EQ(ltl::lor({a(), a()}), a());
}

TEST(Formula, AtomsCollectsAllPropositions) {
  Formula f = ltl::always(ltl::implies(ltl::land(a(), b()), ltl::next(c())));
  const auto atoms = f.atoms();
  EXPECT_EQ(atoms, (std::set<std::string>{"a", "b", "c"}));
}

TEST(Formula, LengthCountsTreeUnfolding) {
  // G (a -> b): always, implies, a, b => 4 nodes.
  Formula f = ltl::always(ltl::implies(a(), b()));
  EXPECT_EQ(f.length(), 4u);
}

TEST(Formula, IsPropositional) {
  EXPECT_TRUE(ltl::implies(a(), ltl::lor(b(), c())).is_propositional());
  EXPECT_FALSE(ltl::next(a()).is_propositional());
  EXPECT_FALSE(ltl::land(a(), ltl::eventually(b())).is_propositional());
}

// ---- Interning from several threads -------------------------------------------

/// `ascii` with every proposition renamed to `prefix` + its name, so the
/// text parses to nodes nothing has built yet.
std::string rename_atoms(const std::string& ascii, const std::string& prefix) {
  static const std::set<std::string> kKeywords{"true", "false", "X", "F",
                                               "G",    "U",     "W", "R"};
  const auto word_char = [](char ch) {
    return std::isalnum(static_cast<unsigned char>(ch)) != 0 || ch == '_';
  };
  std::string out;
  for (std::size_t i = 0; i < ascii.size();) {
    if (!word_char(ascii[i])) {
      out += ascii[i++];
      continue;
    }
    std::size_t end = i;
    while (end < ascii.size() && word_char(ascii[end])) ++end;
    const std::string word = ascii.substr(i, end - i);
    if (kKeywords.count(word) == 0) out += prefix;
    out += word;
    i = end;
  }
  return out;
}

/// Node count of the formula unfolded as a tree, counted here rather than
/// read from Formula::length().
std::size_t unfolded_size(Formula f) {
  std::size_t n = 1;
  for (Formula c : f.children()) n += unfolded_size(c);
  return n;
}

TEST(Arena, ConcurrentInternIsCanonical) {
  // Every Table I formula and 2,000 seeded random formulas, each paired
  // with its sequentially built handle, plus a copy of each text renamed
  // onto fresh propositions. The threads only hit on the first half and
  // race to build every node of the second; its sequential handles are
  // parsed after they join.
  std::vector<std::pair<std::string, Formula>> cases;
  const speccc::core::Pipeline pipeline;
  for (const speccc::batch::SpecTask& task : speccc::batch::table1_tasks()) {
    const auto result = pipeline.run(task.name, task.requirements);
    for (Formula f : result.translation.formulas()) {
      cases.emplace_back(ltl::to_string(f), f);
    }
  }
  const std::size_t table1 = cases.size();
  ASSERT_GT(table1, 100u);
  speccc::difftest::FormulaConfig config;
  config.max_depth = 6;
  speccc::util::Rng rng(20261021);
  for (int i = 0; i < 2000; ++i) {
    const Formula f = speccc::difftest::random_formula(rng, config);
    cases.emplace_back(ltl::to_string(f), f);
  }
  const std::size_t built_first = cases.size();
  for (std::size_t i = 0; i < built_first; ++i) {
    cases.emplace_back(
        rename_atoms(cases[i].first, i < table1 ? "arena_t_" : "arena_r_"),
        Formula());
  }

  constexpr std::size_t kThreads = 4;
  const std::size_t n = cases.size();
  std::vector<std::vector<Formula>> rebuilt(kThreads, std::vector<Formula>(n));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    // Each thread starts at its own offset and odd threads walk backwards,
    // so the threads meet on different nodes.
    threads.emplace_back([&cases, &out = rebuilt[t], t, n] {
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t step = t % 2 == 0 ? k : n - 1 - k;
        const std::size_t i = (step + t * n / kThreads) % n;
        out[i] = ltl::parse(cases[i].first);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (std::size_t i = built_first; i < n; ++i) {
    cases[i].second = ltl::parse(cases[i].first);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const Formula sequential = cases[i].second;
    ASSERT_EQ(sequential.length(), unfolded_size(sequential)) << cases[i].first;
    for (std::size_t t = 0; t < kThreads; ++t) {
      const Formula f = rebuilt[t][i];
      ASSERT_EQ(f, sequential) << "thread " << t << ": " << cases[i].first;
      ASSERT_EQ(f.hash(), sequential.hash());
      ASSERT_EQ(f.length(), sequential.length());
    }
  }
}

TEST(Printer, MatchesPaperShapes) {
  Formula req17 = ltl::always(ltl::implies(ltl::ap("enter_auto_control_mode"),
                                           ltl::eventually(ltl::ap("inflate_cuff"))));
  EXPECT_EQ(ltl::to_string(req17),
            "G (enter_auto_control_mode -> F inflate_cuff)");
  EXPECT_EQ(ltl::to_string(req17, ltl::Style::kPaper),
            "□ (enter_auto_control_mode → ♦ inflate_cuff)");
}

TEST(Printer, NextChains) {
  Formula f = ltl::always(
      ltl::implies(ltl::lnot(ltl::ap("air_ok")), ltl::next_n(ltl::ap("term"), 3)));
  EXPECT_EQ(ltl::to_string(f), "G (!air_ok -> X X X term)");
}

TEST(Printer, PrecedenceParens) {
  Formula f = ltl::land(ltl::lor(a(), b()), c());
  EXPECT_EQ(ltl::to_string(f), "(a || b) && c");
  Formula g = ltl::lor(ltl::land(a(), b()), c());
  EXPECT_EQ(ltl::to_string(g), "a && b || c");
}

TEST(Parser, RoundTripsSimpleFormulas) {
  const std::vector<std::string> inputs = {
      "a",
      "!a",
      "a && b",
      "a || b && c",
      "(a || b) && c",
      "a -> b -> c",
      "a <-> b",
      "X X a",
      "G (a -> F b)",
      "a U b",
      "a W b",
      "a R b",
      "G (a -> (b W c))",
      "true",
      "false",
  };
  for (const auto& in : inputs) {
    Formula f = ltl::parse(in);
    Formula g = ltl::parse(ltl::to_string(f));
    EXPECT_EQ(f, g) << "round trip failed for: " << in;
  }
}

TEST(Parser, BindingStrengths) {
  // U binds looser than || and &&, tighter than ->.
  EXPECT_EQ(ltl::parse("a || b U c"), ltl::until(ltl::lor(a(), b()), c()));
  EXPECT_EQ(ltl::parse("a U b -> c"), ltl::implies(ltl::until(a(), b()), c()));
  EXPECT_EQ(ltl::parse("!a && b"), ltl::land(ltl::lnot(a()), b()));
}

TEST(Parser, RejectsMalformedInput) {
  EXPECT_THROW((void)ltl::parse(""), speccc::util::ParseError);
  EXPECT_THROW((void)ltl::parse("a &&"), speccc::util::ParseError);
  EXPECT_THROW((void)ltl::parse("(a"), speccc::util::ParseError);
  EXPECT_THROW((void)ltl::parse("a b"), speccc::util::ParseError);
  EXPECT_THROW((void)ltl::parse("a & b"), speccc::util::ParseError);
  EXPECT_THROW((void)ltl::parse("->"), speccc::util::ParseError);
}

// Round-trip property: under hash-consing, parse(to_string(f)) must return
// the very same node for arbitrary formulas, not just the hand-picked list
// above. The difftest generator supplies the arbitrary part.
TEST(Parser, RoundTripsRandomFormulas) {
  speccc::difftest::FormulaConfig config;
  config.max_depth = 5;
  speccc::util::Rng rng(20260730);
  for (int i = 0; i < 300; ++i) {
    const Formula f = speccc::difftest::random_formula(rng, config);
    EXPECT_EQ(ltl::parse(ltl::to_string(f)), f)
        << "round trip failed for: " << ltl::to_string(f);
  }
}

TEST(Parser, RoundTripsThePaperStyleTooDeepNesting) {
  // Regression guard for printer precedence: deeply right-nested binary
  // temporal operators round-trip without parenthesis loss.
  const std::string in = "a U (b W (c R (a U b)))";
  const Formula f = ltl::parse(in);
  EXPECT_EQ(ltl::parse(ltl::to_string(f)), f);
}

TEST(Rewrite, NnfPushesNegations) {
  Formula f = ltl::lnot(ltl::always(ltl::implies(a(), ltl::eventually(b()))));
  // !G(a -> F b) == F (a && G !b)
  Formula expected =
      ltl::eventually(ltl::land(a(), ltl::always(ltl::lnot(b()))));
  EXPECT_EQ(ltl::nnf(f), expected);
}

TEST(Rewrite, NnfHandlesUntilDualities) {
  EXPECT_EQ(ltl::nnf(ltl::lnot(ltl::until(a(), b()))),
            ltl::release(ltl::lnot(a()), ltl::lnot(b())));
  EXPECT_EQ(ltl::nnf(ltl::lnot(ltl::release(a(), b()))),
            ltl::until(ltl::lnot(a()), ltl::lnot(b())));
  EXPECT_EQ(ltl::nnf(ltl::lnot(ltl::next(a()))), ltl::next(ltl::lnot(a())));
}

TEST(Rewrite, NnfIsIdempotent) {
  const std::vector<std::string> inputs = {
      "!(a U (b && !c))", "!(a W b)", "!(a <-> b)", "!G F a", "!(a -> b)"};
  for (const auto& in : inputs) {
    Formula f = ltl::nnf(ltl::parse(in));
    EXPECT_EQ(f, ltl::nnf(f)) << in;
  }
}

TEST(Rewrite, WeakUntilElimination) {
  Formula f = ltl::weak_until(a(), b());
  Formula g = ltl::eliminate_weak_until(f);
  EXPECT_EQ(g, ltl::release(b(), ltl::lor(a(), b())));
}

TEST(Rewrite, SubstituteReplacesAtoms) {
  Formula f = ltl::always(ltl::implies(a(), ltl::next(b())));
  Formula g = ltl::substitute(f, {{"a", ltl::land(b(), c())}});
  EXPECT_EQ(g, ltl::always(ltl::implies(ltl::land(b(), c()), ltl::next(b()))));
}

TEST(Rewrite, MaxNextChain) {
  EXPECT_EQ(ltl::max_next_chain(ltl::parse("a")), 0u);
  EXPECT_EQ(ltl::max_next_chain(ltl::parse("X a")), 1u);
  EXPECT_EQ(ltl::max_next_chain(ltl::parse("G (a -> X X X b)")), 3u);
  EXPECT_EQ(ltl::max_next_chain(ltl::parse("X X a && X b")), 2u);
}

TEST(Rewrite, SyntacticSafety) {
  EXPECT_TRUE(ltl::is_syntactic_safety(ltl::parse("G (a -> X b)")));
  EXPECT_TRUE(ltl::is_syntactic_safety(ltl::parse("G (a -> (b W c))")));
  EXPECT_FALSE(ltl::is_syntactic_safety(ltl::parse("G (a -> F b)")));
  EXPECT_FALSE(ltl::is_syntactic_safety(ltl::parse("a U b")));
  // Negation flips: !(F a) is safety.
  EXPECT_TRUE(ltl::is_syntactic_safety(ltl::parse("!F a")));
}

// ---- Lasso semantics --------------------------------------------------------

ltl::Lasso make_lasso(std::initializer_list<ltl::Valuation> steps,
                      std::size_t loop_start) {
  return ltl::Lasso(std::vector<ltl::Valuation>(steps), loop_start);
}

TEST(Trace, PropositionalEvaluation) {
  auto w = make_lasso({{"a"}, {"b"}}, 1);
  EXPECT_TRUE(ltl::evaluate(ltl::parse("a"), w, 0));
  EXPECT_FALSE(ltl::evaluate(ltl::parse("b"), w, 0));
  EXPECT_TRUE(ltl::evaluate(ltl::parse("a -> !b"), w, 0));
  EXPECT_TRUE(ltl::evaluate(ltl::parse("X b"), w, 0));
  EXPECT_TRUE(ltl::evaluate(ltl::parse("X X b"), w, 0));  // loop on b
}

TEST(Trace, AlwaysOnLoop) {
  // a holds only in the prefix; loop has b.
  auto w = make_lasso({{"a"}, {"b"}}, 1);
  EXPECT_FALSE(ltl::evaluate(ltl::parse("G a"), w, 0));
  EXPECT_TRUE(ltl::evaluate(ltl::parse("G b"), w, 1));
  EXPECT_TRUE(ltl::evaluate(ltl::parse("X G b"), w, 0));
  EXPECT_TRUE(ltl::evaluate(ltl::parse("F G b"), w, 0));
}

TEST(Trace, EventuallyFindsLaterStep) {
  auto w = make_lasso({{}, {}, {"goal"}, {}}, 3);
  EXPECT_TRUE(ltl::evaluate(ltl::parse("F goal"), w, 0));
  // Once past the goal, it never recurs (loop excludes it).
  EXPECT_FALSE(ltl::evaluate(ltl::parse("F goal"), w, 3));
  EXPECT_FALSE(ltl::evaluate(ltl::parse("G F goal"), w, 0));
}

TEST(Trace, UntilSemantics) {
  auto w = make_lasso({{"p"}, {"p"}, {"q"}, {}}, 3);
  EXPECT_TRUE(ltl::evaluate(ltl::parse("p U q"), w, 0));
  EXPECT_FALSE(ltl::evaluate(ltl::parse("p U r"), w, 0));
  // Weak until is satisfied by G p even without the release.
  auto w2 = make_lasso({{"p"}}, 0);
  EXPECT_TRUE(ltl::evaluate(ltl::parse("p W q"), w2, 0));
  EXPECT_FALSE(ltl::evaluate(ltl::parse("p U q"), w2, 0));
}

TEST(Trace, ReleaseSemantics) {
  // a R b: b must hold up to and including the first a.
  auto w = make_lasso({{"b"}, {"a", "b"}, {}}, 2);
  EXPECT_TRUE(ltl::evaluate(ltl::parse("a R b"), w, 0));
  auto w2 = make_lasso({{"b"}, {"a"}, {}}, 2);
  EXPECT_FALSE(ltl::evaluate(ltl::parse("a R b"), w2, 0));
  auto w3 = make_lasso({{"b"}}, 0);
  EXPECT_TRUE(ltl::evaluate(ltl::parse("a R b"), w3, 0));  // b forever
}

TEST(Trace, PaperFootnoteFormulaOnWitness) {
  // G (out <-> X X X in): satisfied by a trace where out anticipates in by
  // exactly 3 steps (all-empty trace works trivially).
  auto w = make_lasso({{}}, 0);
  EXPECT_TRUE(ltl::evaluate(ltl::parse("G (out <-> X X X in)"), w, 0));
  auto w2 = make_lasso({{"out"}, {}, {}, {"in"}}, 3);
  EXPECT_FALSE(ltl::evaluate(ltl::parse("G (out <-> X X X in)"), w2, 0));
}

// ---- Lasso edge cases -------------------------------------------------------

TEST(Lasso, SingleStepLoop) {
  // One position that loops on itself: successor(0) == 0.
  auto w = make_lasso({{"p"}}, 0);
  EXPECT_EQ(w.size(), 1u);
  EXPECT_EQ(w.successor(0), 0u);
  EXPECT_TRUE(ltl::evaluate(ltl::parse("G p"), w, 0));
  EXPECT_TRUE(ltl::evaluate(ltl::parse("X p"), w, 0));
  EXPECT_TRUE(ltl::evaluate(ltl::parse("X X X p"), w, 0));
  EXPECT_FALSE(ltl::evaluate(ltl::parse("F q"), w, 0));
}

TEST(Lasso, LoopStartAtLastPosition) {
  // The loop is the single final position: the suffix stutters forever.
  auto w = make_lasso({{"a"}, {}, {"p"}}, 2);
  EXPECT_EQ(w.successor(0), 1u);
  EXPECT_EQ(w.successor(1), 2u);
  EXPECT_EQ(w.successor(2), 2u);
  EXPECT_TRUE(ltl::evaluate(ltl::parse("F G p"), w, 0));
  EXPECT_TRUE(ltl::evaluate(ltl::parse("G (a -> F p)"), w, 0));
  // a never recurs once the loop is entered.
  EXPECT_FALSE(ltl::evaluate(ltl::parse("G F a"), w, 0));
}

TEST(Lasso, WrapAroundSuccessor) {
  // Loop of length 3 starting at 1: the last position wraps to 1, not 0.
  auto w = make_lasso({{"a"}, {"p"}, {}, {"q"}}, 1);
  EXPECT_EQ(w.successor(3), 1u);
  // X at the last position reads the loop start.
  EXPECT_TRUE(ltl::evaluate(ltl::parse("X p"), w, 3));
  // a lives only in the never-revisited prefix.
  EXPECT_TRUE(ltl::evaluate(ltl::parse("a && !F X X X X a"), w, 0));
  EXPECT_TRUE(ltl::evaluate(ltl::parse("G F q"), w, 0));
  EXPECT_TRUE(ltl::evaluate(ltl::parse("G F p"), w, 3));
}

TEST(Lasso, EvaluateAtLaterPositions) {
  auto w = make_lasso({{"p"}, {"q"}, {"r"}}, 1);
  EXPECT_TRUE(ltl::evaluate(ltl::parse("q"), w, 1));
  EXPECT_TRUE(ltl::evaluate(ltl::parse("G (q || r)"), w, 1));
  EXPECT_FALSE(ltl::evaluate(ltl::parse("F p"), w, 1));
}

TEST(Lasso, RejectsMalformedShapes) {
  // Empty step list and out-of-range loop start violate the contract.
  EXPECT_THROW(ltl::Lasso(std::vector<ltl::Valuation>{}, 0),
               speccc::util::InternalError);
  EXPECT_THROW(make_lasso({{"p"}, {}}, 2), speccc::util::InternalError);
  auto w = make_lasso({{"p"}}, 0);
  EXPECT_THROW((void)w.at(1), speccc::util::InternalError);
  EXPECT_THROW((void)w.successor(1), speccc::util::InternalError);
}

// Property sweep: NNF preserves lasso semantics on a family of formulas and
// deterministic pseudo-random lassos.
class NnfSemanticsTest : public ::testing::TestWithParam<std::string> {};

TEST_P(NnfSemanticsTest, NnfPreservesSemantics) {
  Formula f = ltl::parse(GetParam());
  Formula g = ltl::nnf(f);
  Formula h = ltl::eliminate_weak_until(f);
  speccc::util::Rng rng(1234);
  for (int trial = 0; trial < 64; ++trial) {
    const std::size_t len = 1 + rng.below(6);
    const std::size_t loop = rng.below(len);
    std::vector<ltl::Valuation> steps(len);
    for (auto& step : steps) {
      for (const char* name : {"a", "b", "c"}) {
        if (rng.chance(1, 2)) step.insert(name);
      }
    }
    ltl::Lasso w(steps, loop);
    EXPECT_EQ(ltl::evaluate(f, w), ltl::evaluate(g, w))
        << "nnf mismatch on " << GetParam();
    EXPECT_EQ(ltl::evaluate(f, w), ltl::evaluate(h, w))
        << "W-elimination mismatch on " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NnfSemanticsTest,
    ::testing::Values("!(a U b)", "!(a W b)", "!(a R b)", "!(a <-> b)",
                      "!G (a -> F b)", "!(a -> (b U c))", "G (a -> X X b)",
                      "!F (a && X b)", "a W (b && c)", "!(a U (b W c))",
                      "G F a -> F G b", "!(X a <-> F b)"));

// ---- Pattern recognition ----------------------------------------------------

TEST(Patterns, RecognizeInvariant) {
  auto p = ltl::recognize_pattern(ltl::parse("G (a -> b || c)"));
  ASSERT_TRUE(p.has_value());
  // G of a propositional implication is an implication pattern.
  EXPECT_EQ(p->kind, ltl::PatternKind::kImplication);
  EXPECT_EQ(p->guard, a());
  EXPECT_EQ(p->delay, 0u);
}

TEST(Patterns, RecognizePureInvariant) {
  auto p = ltl::recognize_pattern(ltl::parse("G (!a || b)"));
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->kind, ltl::PatternKind::kInvariant);
}

TEST(Patterns, RecognizeDelayedImplication) {
  auto p = ltl::recognize_pattern(ltl::parse("G (a && b -> X X X c)"));
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->kind, ltl::PatternKind::kImplication);
  EXPECT_EQ(p->delay, 3u);
  EXPECT_EQ(p->consequent, c());
}

TEST(Patterns, RecognizeGuardDelayed) {
  // The paper's Req-28 shape.
  auto p = ltl::recognize_pattern(ltl::parse("G (X X X !bp -> trigger)"));
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->kind, ltl::PatternKind::kGuardDelayed);
  EXPECT_EQ(p->delay, 3u);
}

TEST(Patterns, RecognizeResponse) {
  auto p = ltl::recognize_pattern(ltl::parse("G (a -> F b)"));
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->kind, ltl::PatternKind::kResponse);
}

TEST(Patterns, RecognizeNestedGuards) {
  // Req-17.4 shape: G (a -> (b -> c)).
  auto p = ltl::recognize_pattern(ltl::parse("G (a -> (b && !d -> c))"));
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->kind, ltl::PatternKind::kImplication);
  EXPECT_EQ(p->guard, ltl::land(a(), ltl::land(b(), ltl::lnot(ltl::ap("d")))));
}

TEST(Patterns, RecognizeWeakUntil) {
  // Req-49 shape.
  auto p = ltl::recognize_pattern(
      ltl::parse("G (btn -> (!press -> (btn W press)))"));
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->kind, ltl::PatternKind::kWeakUntil);
  EXPECT_EQ(p->guard, ltl::land(ltl::ap("btn"), ltl::lnot(ltl::ap("press"))));
  EXPECT_EQ(p->consequent, ltl::ap("btn"));
  EXPECT_EQ(p->release, ltl::ap("press"));
}

TEST(Patterns, RecognizeExistence) {
  auto p = ltl::recognize_pattern(ltl::parse("F done"));
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->kind, ltl::PatternKind::kExistence);
}

TEST(Patterns, RejectsOutsideFragment) {
  EXPECT_FALSE(ltl::recognize_pattern(ltl::parse("G (a -> F X b)")).has_value());
  EXPECT_FALSE(ltl::recognize_pattern(ltl::parse("G F a -> G F b")).has_value());
  EXPECT_FALSE(ltl::recognize_pattern(ltl::parse("a U b")).has_value());
  EXPECT_FALSE(
      ltl::recognize_pattern(ltl::parse("G (F a -> b)")).has_value());
}

}  // namespace
