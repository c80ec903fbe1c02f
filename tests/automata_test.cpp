// Tests for the Buechi substrate: cube semantics, GPVW translation checked
// against the LTL lasso semantics (the strongest property we have), pruning,
// and membership.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "automata/buchi.hpp"
#include "automata/gpvw.hpp"
#include "ltl/parser.hpp"
#include "ltl/trace.hpp"
#include "util/diagnostics.hpp"

namespace automata = speccc::automata;
namespace ltl = speccc::ltl;

namespace {

TEST(Cube, ConsistencyAndMatching) {
  automata::Cube c;
  c.pos.insert("a");
  c.neg.insert("b");
  EXPECT_TRUE(c.consistent());
  EXPECT_TRUE(c.matches({"a"}));
  EXPECT_TRUE(c.matches({"a", "c"}));
  EXPECT_FALSE(c.matches({"a", "b"}));
  EXPECT_FALSE(c.matches({}));

  automata::Cube contradictory = c.meet(automata::Cube{{"b"}, {}});
  EXPECT_FALSE(contradictory.consistent());
}

TEST(Cube, EmptyCubeMatchesEverything) {
  automata::Cube c;
  EXPECT_TRUE(c.consistent());
  EXPECT_TRUE(c.matches({}));
  EXPECT_TRUE(c.matches({"x", "y"}));
}

ltl::Lasso make_lasso(std::vector<ltl::Valuation> steps, std::size_t loop) {
  return ltl::Lasso(std::move(steps), loop);
}

TEST(Gpvw, SingleProposition) {
  const auto nbw = automata::ltl_to_nbw(ltl::parse("a"));
  EXPECT_TRUE(automata::accepts_lasso(nbw, make_lasso({{"a"}}, 0)));
  EXPECT_FALSE(automata::accepts_lasso(nbw, make_lasso({{}}, 0)));
}

TEST(Gpvw, AlwaysEventually) {
  const auto nbw = automata::ltl_to_nbw(ltl::parse("G F a"));
  EXPECT_TRUE(automata::accepts_lasso(nbw, make_lasso({{}, {"a"}}, 0)));
  EXPECT_FALSE(automata::accepts_lasso(nbw, make_lasso({{"a"}, {}}, 1)));
}

TEST(Gpvw, UntilRequiresRelease) {
  const auto nbw = automata::ltl_to_nbw(ltl::parse("a U b"));
  EXPECT_TRUE(automata::accepts_lasso(nbw, make_lasso({{"a"}, {"b"}, {}}, 2)));
  EXPECT_TRUE(automata::accepts_lasso(nbw, make_lasso({{"b"}, {}}, 1)));
  // a forever without b: not accepted (strong until).
  EXPECT_FALSE(automata::accepts_lasso(nbw, make_lasso({{"a"}}, 0)));
}

TEST(Gpvw, UnsatisfiableFormulaHasEmptyLanguage) {
  const auto nbw = automata::ltl_to_nbw(ltl::parse("a && !a"));
  EXPECT_FALSE(automata::accepts_lasso(nbw, make_lasso({{"a"}}, 0)));
  EXPECT_FALSE(automata::accepts_lasso(nbw, make_lasso({{}}, 0)));
}

TEST(Gpvw, FalseConstant) {
  const auto nbw = automata::ltl_to_nbw(ltl::parse("false"));
  EXPECT_FALSE(automata::accepts_lasso(nbw, make_lasso({{}}, 0)));
}

TEST(Gpvw, PaperFootnoteAutomaton) {
  // G (out <-> X X X in): the NBW must accept the anticipating trace and
  // reject a violating one.
  const auto nbw = automata::ltl_to_nbw(ltl::parse("G (out <-> X X X in)"));
  EXPECT_TRUE(automata::accepts_lasso(nbw, make_lasso({{}}, 0)));
  // out true now but in false three steps later (all-empty loop).
  EXPECT_FALSE(automata::accepts_lasso(nbw, make_lasso({{"out"}, {}}, 1)));
}

TEST(Gpvw, UcwViewIsComplementConstruction) {
  // UCW for phi is NBW for !phi: a word satisfies phi iff the NBW rejects.
  const ltl::Formula phi = ltl::parse("G (a -> F b)");
  const auto ucw = automata::ucw_for(phi);
  const auto good = make_lasso({{"a"}, {"b"}}, 1);
  const auto bad = make_lasso({{"a"}, {}}, 1);
  EXPECT_TRUE(ltl::evaluate(phi, good));
  EXPECT_FALSE(automata::accepts_lasso(ucw, good));
  EXPECT_FALSE(ltl::evaluate(phi, bad));
  EXPECT_TRUE(automata::accepts_lasso(ucw, bad));
}

TEST(Gpvw, BoundedConstructionMatchesUnboundedUnderGenerousCap) {
  for (const char* text : {"G (a -> F b)", "a U (b R c)", "G (a -> X X b)"}) {
    const ltl::Formula phi = ltl::parse(text);
    const auto bounded = automata::ltl_to_nbw_bounded(phi, 100'000);
    ASSERT_TRUE(bounded.has_value()) << text;
    EXPECT_EQ(bounded->num_states(), automata::ltl_to_nbw(phi).num_states())
        << text;
  }
}

TEST(Gpvw, BoundedConstructionGivesUpUnderTightCap) {
  // Two interleaved Next chains under G force more than two tableau nodes.
  const ltl::Formula phi =
      ltl::parse("G (a -> X X X b) && G (c -> X X d) && G (b -> F c)");
  EXPECT_FALSE(automata::ltl_to_nbw_bounded(phi, 2).has_value());
  EXPECT_FALSE(automata::ucw_for_bounded(phi, 2).has_value());
  // The unbounded entry point still succeeds.
  EXPECT_GT(automata::ltl_to_nbw(phi).num_states(), 2u);
}

TEST(Prune, KeepsLanguage) {
  const ltl::Formula phi = ltl::parse("F (a && X a)");
  const auto nbw = automata::ltl_to_nbw(phi);  // ltl_to_nbw already prunes
  EXPECT_TRUE(automata::accepts_lasso(nbw, make_lasso({{}, {"a"}, {"a"}, {}}, 3)));
  EXPECT_FALSE(automata::accepts_lasso(nbw, make_lasso({{"a"}, {}}, 1)));
}

TEST(Prune, EmptyLanguageCollapses) {
  automata::Buchi b;
  b.initial = 0;
  b.transitions.assign(2, {});
  b.accepting = {false, true};
  // Accepting state unreachable; no cycles at all.
  b.transitions[1].push_back({automata::Cube{}, 1});
  const auto pruned = automata::prune(b);
  EXPECT_EQ(pruned.num_states(), 1u);
  EXPECT_FALSE(automata::accepts_lasso(pruned, make_lasso({{}}, 0)));
}

/// prune by its definition: keep the states reachable from the initial
/// state that reach an accepting state on a cycle, in original order, and
/// the transitions between kept states.
automata::Buchi reference_prune(const automata::Buchi& b) {
  const std::size_t n = b.num_states();
  const auto reach_from = [&b, n](std::size_t s) {
    std::vector<bool> seen(n, false);
    std::vector<std::size_t> work{s};
    seen[s] = true;
    while (!work.empty()) {
      const std::size_t cur = work.back();
      work.pop_back();
      for (const automata::Transition& t : b.transitions[cur]) {
        const auto tgt = static_cast<std::size_t>(t.target);
        if (!seen[tgt]) {
          seen[tgt] = true;
          work.push_back(tgt);
        }
      }
    }
    return seen;
  };
  std::vector<std::vector<bool>> reach(n);
  for (std::size_t s = 0; s < n; ++s) reach[s] = reach_from(s);
  const auto on_cycle = [&](std::size_t s) {
    for (const automata::Transition& t : b.transitions[s]) {
      if (reach[static_cast<std::size_t>(t.target)][s]) return true;
    }
    return false;
  };
  std::vector<int> remap(n, -1);
  automata::Buchi out;
  out.aps = b.aps;
  for (std::size_t s = 0; s < n; ++s) {
    bool alive = false;
    for (std::size_t a = 0; a < n && !alive; ++a) {
      alive = reach[s][a] && b.accepting[a] && on_cycle(a);
    }
    if (!alive || !reach[static_cast<std::size_t>(b.initial)][s]) continue;
    remap[s] = static_cast<int>(out.transitions.size());
    out.transitions.emplace_back();
    out.accepting.push_back(b.accepting[s]);
  }
  if (remap[static_cast<std::size_t>(b.initial)] == -1) {
    out.transitions.assign(1, {});
    out.accepting.assign(1, false);
    return out;
  }
  out.initial = remap[static_cast<std::size_t>(b.initial)];
  for (std::size_t s = 0; s < n; ++s) {
    if (remap[s] == -1) continue;
    for (const automata::Transition& t : b.transitions[s]) {
      const int nt = remap[static_cast<std::size_t>(t.target)];
      if (nt != -1) {
        out.transitions[static_cast<std::size_t>(remap[s])].push_back({t.label, nt});
      }
    }
  }
  return out;
}

TEST(Prune, MatchesItsDefinitionOnRandomAutomata) {
  speccc::util::Rng rng(0x5eedULL);
  for (int trial = 0; trial < 400; ++trial) {
    automata::Buchi b;
    b.aps = {"a"};
    const std::size_t n = 1 + rng.below(10);
    b.initial = static_cast<int>(rng.below(n));
    b.transitions.assign(n, {});
    for (std::size_t s = 0; s < n; ++s) {
      b.accepting.push_back(rng.chance(1, 3));
      const std::size_t out_degree = rng.below(4);
      for (std::size_t k = 0; k < out_degree; ++k) {
        automata::Cube label;
        if (rng.chance(1, 2)) label.pos.insert("a");
        b.transitions[s].push_back({label, static_cast<int>(rng.below(n))});
      }
    }
    const automata::Buchi expected = reference_prune(b);
    const automata::Buchi pruned = automata::prune(b);
    ASSERT_EQ(pruned.initial, expected.initial) << "trial " << trial;
    ASSERT_EQ(pruned.accepting, expected.accepting) << "trial " << trial;
    ASSERT_EQ(pruned.num_states(), expected.num_states()) << "trial " << trial;
    for (std::size_t s = 0; s < pruned.num_states(); ++s) {
      ASSERT_EQ(pruned.transitions[s].size(), expected.transitions[s].size())
          << "trial " << trial << " state " << s;
      for (std::size_t k = 0; k < pruned.transitions[s].size(); ++k) {
        EXPECT_EQ(pruned.transitions[s][k].target, expected.transitions[s][k].target);
        EXPECT_EQ(pruned.transitions[s][k].label, expected.transitions[s][k].label);
      }
    }
  }
}

TEST(Prune, PollsCancelWhileSearchingForCycles) {
  // A chain 0 -> 1 -> ... -> 7 -> 7 with state 7 accepting.
  automata::Buchi b;
  b.transitions.assign(8, {});
  b.accepting.assign(8, false);
  b.accepting[7] = true;
  for (int s = 0; s < 8; ++s) {
    b.transitions[static_cast<std::size_t>(s)].push_back({{}, std::min(s + 1, 7)});
  }
  int polls = 0;
  EXPECT_EQ(automata::prune(b, [&polls] { return ++polls < 0; }).num_states(), 8u);
  EXPECT_GE(polls, 8);
  int left = 3;
  EXPECT_THROW((void)automata::prune(b, [&left] { return --left < 0; }),
               speccc::util::CancelledError);
}

// The central property test: GPVW agrees with the trace semantics on a
// formula family x lasso family grid.
class GpvwSemanticsTest : public ::testing::TestWithParam<std::string> {};

TEST_P(GpvwSemanticsTest, AgreesWithTraceSemantics) {
  const ltl::Formula f = ltl::parse(GetParam());
  const auto nbw = automata::ltl_to_nbw(f);

  speccc::util::Rng rng(0xbadc0ffeULL);
  for (int trial = 0; trial < 80; ++trial) {
    const std::size_t len = 1 + rng.below(6);
    const std::size_t loop = rng.below(len);
    std::vector<ltl::Valuation> steps(len);
    for (auto& step : steps) {
      for (const char* name : {"a", "b", "c"}) {
        if (rng.chance(1, 2)) step.insert(name);
      }
    }
    const ltl::Lasso w(steps, loop);
    EXPECT_EQ(ltl::evaluate(f, w), automata::accepts_lasso(nbw, w))
        << "formula " << GetParam() << " trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GpvwSemanticsTest,
    ::testing::Values("a", "!a", "X a", "X X b", "F a", "G a", "a U b",
                      "a W b", "a R b", "G F a", "F G a", "G (a -> F b)",
                      "G (a -> X X b)", "(a U b) U c", "G (a -> (b W c))",
                      "F (a && X (b U c))", "G (a -> X b) && F c",
                      "!(a U b) || F c", "G ((a && !b) -> X (b R c))",
                      "a U (b U c)", "G (a <-> X b)"));

}  // namespace
