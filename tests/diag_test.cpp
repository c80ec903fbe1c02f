// Tests for the diagnosis engine (diag/diag.hpp): deletion-based MUS
// shrinking and the rotation/grow MCS enumeration, over both oracles --
// sat_group_oracle (incremental assumption cores, brute-force verified)
// and synthesis_oracle (planted-fault specs where the ground-truth MUSes
// are known by construction) -- plus pinned end-to-end pipeline diagnoses
// of the hand-written multi-fault specs in examples/specs/faults/ and a
// digest pin of refine's whole outcome on generated planted specs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "corpus/loaders.hpp"
#include "diag/diag.hpp"
#include "difftest/harness.hpp"
#include "difftest/oracle.hpp"
#include "ltl/parser.hpp"
#include "partition/partition.hpp"
#include "refine/refine.hpp"
#include "sat/solver.hpp"
#include "synth/monitors.hpp"
#include "util/diagnostics.hpp"
#include "util/digest.hpp"

namespace diag = speccc::diag;
namespace difftest = speccc::difftest;
namespace sat = speccc::sat;
namespace synth = speccc::synth;
using speccc::synth::IoSignature;

namespace {

using Index = std::size_t;
using Subset = std::vector<Index>;

Subset without(const Subset& set, Index element) {
  Subset out;
  for (Index e : set) {
    if (e != element) out.push_back(e);
  }
  return out;
}

Subset universe_of(std::size_t n) {
  Subset out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = i;
  return out;
}

// A group CNF instance: groups of clauses enabled per-group by selector
// assumptions, the classic MUS-extraction encoding.
struct GroupInstance {
  std::vector<std::vector<sat::Clause>> groups;
  sat::Solver solver;
  std::vector<sat::Lit> selectors;

  explicit GroupInstance(std::vector<std::vector<sat::Clause>> g, int num_vars)
      : groups(std::move(g)) {
    for (int v = 0; v < num_vars; ++v) solver.new_var();
    for (const auto& group : groups) {
      const sat::Lit selector(solver.new_var(), true);
      selectors.push_back(selector);
      for (sat::Clause clause : group) {
        clause.push_back(selector.negated());  // selector -> clause
        solver.add_clause(std::move(clause));
      }
    }
  }
};

// Independent consistency check: a fresh solver with only the chosen
// groups' clauses asserted outright -- no selectors, no shared learned
// clauses -- so the incremental oracle is verified against first
// principles, not against itself.
bool brute_force_consistent(const std::vector<std::vector<sat::Clause>>& groups,
                            int num_vars, const Subset& subset) {
  sat::Solver fresh;
  for (int v = 0; v < num_vars; ++v) fresh.new_var();
  for (Index g : subset) {
    for (const sat::Clause& clause : groups[g]) fresh.add_clause(clause);
  }
  return fresh.solve() == sat::Result::kSat;
}

sat::Lit lit(int var, bool positive) { return sat::Lit(var, positive); }

TEST(Diagnose, ConsistentGroupsYieldAnEmptyDiagnosis) {
  // x, y, x || y: jointly satisfiable.
  GroupInstance inst({{{lit(0, true)}}, {{lit(1, true)}},
                      {{lit(0, true), lit(1, true)}}},
                     2);
  const auto oracle = diag::sat_group_oracle(inst.solver, inst.selectors);
  const diag::Diagnosis d = diag::diagnose(inst.groups.size(), oracle);
  EXPECT_TRUE(d.consistent());
  EXPECT_TRUE(d.mus.empty());
  EXPECT_TRUE(d.correction_sets.empty());
  EXPECT_EQ(d.checks, 1u);  // one universe query settles it
}

TEST(Diagnose, PinsTheContradictoryGroupPair) {
  // Groups: {x}, {!x}, {y}, {x || y}. The only MUS is {0, 1}; the two
  // repairs are dropping either unit.
  GroupInstance inst({{{lit(0, true)}},
                      {{lit(0, false)}},
                      {{lit(1, true)}},
                      {{lit(0, true), lit(1, true)}}},
                     2);
  const auto oracle = diag::sat_group_oracle(inst.solver, inst.selectors);
  const diag::Diagnosis d = diag::diagnose(inst.groups.size(), oracle);
  EXPECT_FALSE(d.consistent());
  EXPECT_EQ(d.mus, (Subset{0, 1}));
  EXPECT_EQ(d.correction_sets,
            (std::vector<Subset>{{0}, {1}}));
}

TEST(Diagnose, CoreJumpsPruneInnocentGroups) {
  // Eight innocent tautologies around one contradiction: the solver's
  // assumption core should let the shrinker jump straight past the
  // bystanders instead of deleting them one by one.
  std::vector<std::vector<sat::Clause>> groups;
  for (int v = 1; v <= 8; ++v) groups.push_back({{lit(v, true)}});
  groups.push_back({{lit(0, true)}});
  groups.push_back({{lit(0, false)}});
  GroupInstance inst(std::move(groups), 9);
  const auto oracle = diag::sat_group_oracle(inst.solver, inst.selectors);
  diag::Options options;
  options.max_correction_sets = 0;  // measure the MUS extraction alone
  const diag::Diagnosis d = diag::diagnose(inst.groups.size(), oracle, options);
  EXPECT_EQ(d.mus, (Subset{8, 9}));
  // 1 universe query + at most 2 per MUS element; without core jumps the
  // deletion loop alone would need 10+ calls.
  EXPECT_LE(d.checks, 1u + 2u * d.mus.size() + 2u);
}

TEST(Diagnose, RandomGroupInstancesSatisfyTheMusAndMcsProperties) {
  // Random group CNF sweep, every diagnosis verified against a fresh
  // non-incremental solver: the MUS is inconsistent and minimal, every
  // MCS's removal restores consistency and is minimal.
  int inconsistent_seen = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    speccc::util::Rng rng(seed * 0x9e3779b97f4a7c15ULL);
    const int num_vars = rng.range(3, 5);
    const int num_groups = rng.range(3, 8);
    std::vector<std::vector<sat::Clause>> groups;
    for (int g = 0; g < num_groups; ++g) {
      std::vector<sat::Clause> group;
      const int num_clauses = rng.range(1, 2);
      for (int c = 0; c < num_clauses; ++c) {
        sat::Clause clause;
        const int width = rng.range(1, 3);
        for (int k = 0; k < width; ++k) {
          clause.push_back(lit(rng.range(0, num_vars - 1), rng.chance(1, 2)));
        }
        group.push_back(std::move(clause));
      }
      groups.push_back(std::move(group));
    }

    GroupInstance inst(groups, num_vars);
    const auto oracle = diag::sat_group_oracle(inst.solver, inst.selectors);
    diag::Options options;
    options.max_correction_sets = 3;
    const diag::Diagnosis d =
        diag::diagnose(groups.size(), oracle, options);
    const Subset universe = universe_of(groups.size());

    if (d.consistent()) {
      EXPECT_TRUE(brute_force_consistent(groups, num_vars, universe))
          << "seed " << seed;
      continue;
    }
    ++inconsistent_seen;
    EXPECT_FALSE(brute_force_consistent(groups, num_vars, d.mus))
        << "seed " << seed << ": reported MUS is consistent";
    for (Index e : d.mus) {
      EXPECT_TRUE(brute_force_consistent(groups, num_vars, without(d.mus, e)))
          << "seed " << seed << ": MUS not minimal at element " << e;
    }
    EXPECT_FALSE(d.correction_sets.empty()) << "seed " << seed;
    for (const Subset& mcs : d.correction_sets) {
      Subset rest = universe;
      for (Index e : mcs) rest = without(rest, e);
      EXPECT_TRUE(brute_force_consistent(groups, num_vars, rest))
          << "seed " << seed << ": removing the MCS does not repair";
      for (Index e : mcs) {
        // Minimality: putting any MCS element back breaks it again.
        Subset back = rest;
        back.insert(std::lower_bound(back.begin(), back.end(), e), e);
        EXPECT_FALSE(brute_force_consistent(groups, num_vars, back))
            << "seed " << seed << ": MCS not minimal at element " << e;
      }
    }
  }
  // The sweep must actually exercise the inconsistent path to have teeth.
  EXPECT_GE(inconsistent_seen, 5);
}

TEST(SynthesisOracle, PlantedFaultSpecsShrinkToExactlyOnePlantedFault) {
  // Ground-truth workload: every planted fault uses fresh vocabulary
  // disjoint from the base spec and the other faults, so each MUS of the
  // spec is exactly one planted index set (difftest/random.hpp). The
  // heavy sweep lives in difftest_test; this is the fast tier-1 slice.
  for (const auto& [seed, index] : {std::pair<std::uint64_t, int>{1, 0},
                                    {1, 1},
                                    {2, 0},
                                    {2, 1}}) {
    const difftest::PlantedSpec spec =
        difftest::generated_planted_spec(seed, index);
    ASSERT_GE(spec.faults.size(), 2u);
    const difftest::SpecCase sc = difftest::build_spec_case(spec.requirements);
    const auto oracle = diag::synthesis_oracle(sc.requirements, sc.signature);

    const Subset universe = universe_of(sc.requirements.size());
    const auto full = oracle(universe);
    ASSERT_TRUE(full.has_value())
        << spec.name << ": planted spec not inconsistent";

    std::size_t checks = 0;
    const Subset mus = diag::shrink_mus(*full, oracle, checks);
    EXPECT_NE(std::find(spec.faults.begin(), spec.faults.end(), mus),
              spec.faults.end())
        << spec.name << ": MUS is not a planted fault";
    for (Index e : mus) {
      EXPECT_FALSE(oracle(without(mus, e)).has_value())
          << spec.name << ": MUS not minimal at element " << e;
    }
  }
}

TEST(SynthesisOracle, CorrectionSetRemovalRestoresConsistency) {
  const difftest::PlantedSpec spec = difftest::generated_planted_spec(3, 0);
  const difftest::SpecCase sc = difftest::build_spec_case(spec.requirements);
  const auto oracle = diag::synthesis_oracle(sc.requirements, sc.signature);
  const Subset universe = universe_of(sc.requirements.size());
  ASSERT_TRUE(oracle(universe).has_value());

  std::size_t checks = 0;
  const auto sets = diag::correction_sets(universe, oracle, 2, checks);
  ASSERT_FALSE(sets.empty());
  for (const Subset& mcs : sets) {
    Subset rest = universe;
    for (Index e : mcs) rest = without(rest, e);
    EXPECT_FALSE(oracle(rest).has_value())
        << spec.name << ": MCS removal must restore consistency";
  }
}

// ---------------------------------------------------------------------------
// The compositional oracle against one monolithic synth::synthesize call
// per subset: splitting a query into independent components and memoizing
// their verdicts across signatures must never change an answer.

std::vector<speccc::ltl::Formula> parse_all(
    const std::vector<std::string>& texts) {
  std::vector<speccc::ltl::Formula> out;
  for (const std::string& t : texts) out.push_back(speccc::ltl::parse(t));
  return out;
}

bool monolithic_consistent(const std::vector<speccc::ltl::Formula>& requirements,
                           const Subset& subset, const IoSignature& signature) {
  if (subset.empty()) return true;
  std::vector<speccc::ltl::Formula> formulas;
  for (Index i : subset) formulas.push_back(requirements[i]);
  return synth::synthesize(formulas, signature).verdict ==
         synth::Realizability::kRealizable;
}

/// Every subset of a small requirement list, under `signature`.
void expect_all_subsets_match(const std::vector<speccc::ltl::Formula>& requirements,
                              const IoSignature& signature) {
  const auto oracle = diag::synthesis_oracle(requirements, signature);
  for (std::size_t mask = 0; mask < (std::size_t{1} << requirements.size());
       ++mask) {
    Subset subset;
    for (Index i = 0; i < requirements.size(); ++i) {
      if ((mask >> i) & 1) subset.push_back(i);
    }
    EXPECT_EQ(!oracle(subset).has_value(),
              monolithic_consistent(requirements, subset, signature))
        << "subset mask " << mask;
  }
}

/// Seeded random subsets (plus the universe) of one spec case, asked
/// through one shared oracle object under the spec's signature and under
/// a signature with its first output flipped to an input.
void expect_random_subsets_match(const difftest::SpecCase& sc,
                                 const std::string& name, std::uint64_t seed) {
  std::vector<IoSignature> signatures{sc.signature};
  if (!sc.signature.outputs.empty()) {
    IoSignature flipped = sc.signature;
    flipped.inputs.push_back(flipped.outputs.front());
    flipped.outputs.erase(flipped.outputs.begin());
    signatures.push_back(flipped);
  }
  const diag::SynthesisOracle oracle(sc.requirements);
  speccc::util::Rng rng(seed);
  for (int round = 0; round < 8; ++round) {
    Subset subset;
    for (Index i = 0; i < sc.requirements.size(); ++i) {
      if (round == 0 || rng.chance(1, 2)) subset.push_back(i);
    }
    for (std::size_t s = 0; s < signatures.size(); ++s) {
      EXPECT_EQ(!oracle.under(signatures[s])(subset).has_value(),
                monolithic_consistent(sc.requirements, subset, signatures[s]))
          << name << " round " << round << " signature " << s;
    }
  }
}

TEST(SynthesisOracle, ComposedAnswersMatchMonolithicSynthesis) {
  for (const std::uint64_t seed : {1u, 2u}) {
    for (int index = 0; index < 12; ++index) {
      const difftest::PlantedSpec spec =
          difftest::generated_planted_spec(seed, index);
      expect_random_subsets_match(difftest::build_spec_case(spec.requirements),
                                  spec.name, seed * 100 + index);
    }
  }
  for (int index = 0; index < 12; ++index) {
    const difftest::GeneratedSpec spec = difftest::generated_spec(4, index);
    expect_random_subsets_match(difftest::build_spec_case(spec.requirements),
                                spec.name, 400 + index);
  }
}

TEST(SynthesisOracle, FlipChangesOneComponentAndTheSharedMemoFollows) {
  // {0, 1} conflict while the environment drives the door and agree once
  // the system does; {2} is realizable either way.
  const auto requirements = parse_all(
      {"G (door -> alarm)", "G (door -> !alarm)", "G (start -> pump)"});
  const IoSignature door_input{{"door", "start"}, {"alarm", "pump"}};
  const IoSignature door_output{{"start"}, {"alarm", "door", "pump"}};
  const diag::SynthesisOracle oracle(requirements);
  const Subset all{0, 1, 2};
  EXPECT_TRUE(oracle.under(door_input)(all).has_value());
  EXPECT_FALSE(oracle.under(door_output)(all).has_value());
  EXPECT_TRUE(oracle.under(door_input)(all).has_value());
  EXPECT_FALSE(oracle.under(door_output)({0, 1}).has_value());
  EXPECT_TRUE(oracle.under(door_input)({0, 1}).has_value());
  EXPECT_FALSE(oracle.under(door_input)({2}).has_value());
  EXPECT_FALSE(oracle.under(door_output)({2}).has_value());

  // Through refine: the first candidate (alarm, as an input) still fails,
  // the second (door, as an output) repairs the spec.
  speccc::partition::Partition initial;
  initial.inputs = {"door", "start"};
  initial.outputs = {"alarm", "pump"};
  const auto outcome = speccc::refine::refine(requirements, initial);
  EXPECT_TRUE(outcome.consistent);
  ASSERT_TRUE(outcome.adjustment.has_value());
  EXPECT_EQ(outcome.adjustment->variable, "door");
  EXPECT_FALSE(outcome.adjustment->now_input);
  EXPECT_EQ(outcome.localization.core, (Subset{0, 1}));
}

TEST(SynthesisOracle, ComponentsWithoutInputsOrPropositionsAnswerAsOneCall) {
  // {1, 2} is a component of outputs only.
  const auto outputs_only = parse_all({"G (a -> b)", "G c", "G !c"});
  ASSERT_TRUE(synth::fragment_covers(outputs_only));
  expect_all_subsets_match(outputs_only, {{"a"}, {"b", "c"}});

  // A requirement without propositions folds to a constant, which the
  // pattern fragment does not cover: a subset holding one is a single
  // monolithic call, and the subsets without it still decompose.
  const auto constants =
      parse_all({"G (a -> b)", "G c", "G !c", "G true", "G false"});
  EXPECT_TRUE(constants[3].atoms().empty());
  EXPECT_FALSE(synth::fragment_covers({constants[3]}));
  EXPECT_FALSE(synth::fragment_covers({constants[4]}));
  expect_all_subsets_match(constants, {{"a"}, {"b", "c"}});
}

TEST(SynthesisOracle, NonFragmentSubsetsTakeOneMonolithicCall) {
  // "a U b" is outside the pattern fragment, so every subset holding it
  // goes to the bounded engine whole, exactly as one synthesize call.
  const auto requirements =
      parse_all({"a U b", "G (a -> c)", "G (a -> !c)", "G (d -> e)"});
  ASSERT_FALSE(synth::fragment_covers({requirements[0]}));
  expect_all_subsets_match(requirements, {{"a", "d"}, {"b", "c", "e"}});
}

// ---------------------------------------------------------------------------
// The questions refine asks, against fresh monolithic synthesis: the
// oracle's precompiled monitors and shared manager must answer each one
// as a new synth::synthesize call on that subset and signature would.

struct Asked {
  Subset subset;
  bool consistent = false;
};

/// `inner`, recording every question and its answer.
diag::CoreOracle recording(diag::CoreOracle inner, std::vector<Asked>& log) {
  return [inner = std::move(inner), &log](const Subset& subset) {
    auto answer = inner(subset);
    log.push_back({subset, !answer.has_value()});
    return answer;
  };
}

TEST(SynthesisOracle, RefineQuestionsMatchFreshMonolithicSynthesis) {
  std::size_t compared = 0;
  for (const std::uint64_t seed : {1u, 2u}) {
    for (int index = 0; index < 100; ++index) {
      const difftest::SpecCase sc = difftest::build_spec_case(
          difftest::generated_planted_spec(seed, index).requirements);
      const speccc::partition::Partition initial =
          speccc::partition::unify(sc.requirements);
      const IoSignature signature = speccc::partition::signature(initial);
      const diag::SynthesisOracle oracle(sc.requirements);

      // Under the initial signature: the initial check, the MUS shrink and
      // the correction sets, each through the oracle refine builds.
      std::vector<Asked> log;
      const diag::Diagnosis diagnosis =
          diag::diagnose(sc.requirements.size(),
                         recording(oracle.under(signature), log),
                         {.max_correction_sets = 4});
      ASSERT_FALSE(diagnosis.consistent());
      for (const Asked& a : log) {
        ASSERT_EQ(a.consistent,
                  monolithic_consistent(sc.requirements, a.subset, signature))
            << "seed " << seed << " spec " << index;
      }
      compared += log.size();

      // Under each single-variable flip, asked as refine asks it (one
      // changed side) and checked against the flipped partition's own
      // signature: the universe and the MUS.
      const diag::SynthesisOracle::Sides sides = oracle.sides(signature);
      const Subset universe = universe_of(sc.requirements.size());
      for (std::uint32_t id = 0; id < sides.size(); ++id) {
        const std::string& variable = oracle.atom_names()[id];
        speccc::partition::Partition moved = initial;
        diag::SynthesisOracle::Sides flipped = sides;
        if (initial.is_input(variable)) {
          moved.inputs.erase(variable);
          moved.outputs.insert(variable);
          flipped[id] = 2;
        } else {
          moved.outputs.erase(variable);
          moved.inputs.insert(variable);
          flipped[id] = 1;
        }
        const auto ask = oracle.under(signature, flipped);
        const IoSignature moved_signature = speccc::partition::signature(moved);
        for (const Subset& subset : {universe, diagnosis.mus}) {
          ASSERT_EQ(!ask(subset).has_value(),
                    monolithic_consistent(sc.requirements, subset, moved_signature))
              << "seed " << seed << " spec " << index << " flip " << variable;
          ++compared;
        }
      }
    }
  }
  EXPECT_GT(compared, 20'000u);
}

TEST(SynthesisOracle, CancelThrowsOnMemoHitsAndInsideASharedManagerSolve) {
  const difftest::SpecCase sc = difftest::build_spec_case(
      difftest::generated_planted_spec(1, 0).requirements);
  const Subset universe = universe_of(sc.requirements.size());
  std::size_t polls = 0;
  std::size_t cancel_after = static_cast<std::size_t>(-1);
  synth::SynthesisOptions options;
  options.symbolic.cancelled = [&] { return ++polls > cancel_after; };

  // A memo hit runs no solve but still polls.
  {
    const diag::SynthesisOracle oracle(sc.requirements, options);
    const auto ask = oracle.under(sc.signature);
    ASSERT_TRUE(ask(universe).has_value());
    cancel_after = polls;
    EXPECT_THROW((void)ask(universe), speccc::util::CancelledError);
  }

  // The query's own poll passes and the component game's first fixpoint
  // round cancels; the aborted solve memoizes nothing, so the oracle
  // answers right once the hook relents.
  polls = 0;
  cancel_after = 1;
  const diag::SynthesisOracle oracle(sc.requirements, options);
  const auto ask = oracle.under(sc.signature);
  try {
    (void)ask(universe);
    ADD_FAILURE() << "cancel inside the solve did not throw";
  } catch (const speccc::util::CancelledError& e) {
    EXPECT_NE(std::string(e.what()).find("game"), std::string::npos) << e.what();
  }
  EXPECT_EQ(polls, 2u);
  cancel_after = static_cast<std::size_t>(-1);
  EXPECT_TRUE(ask(universe).has_value());
}

// ---------------------------------------------------------------------------
// Pinned end-to-end diagnoses of the hand-written multi-fault specs. The
// sentences mirror examples/specs/faults/*.txt (which scripts/check.sh
// smokes through the CLI); the pins here are the library-level contract.

std::vector<std::string> ids_of(const speccc::core::PipelineResult& result,
                                const Subset& indices) {
  std::vector<std::string> out;
  for (Index i : indices) {
    out.push_back(result.translation.requirements.at(i).id);
  }
  return out;
}

speccc::core::PipelineResult diagnose_spec(const std::string& name,
                                           const std::string& document) {
  speccc::core::PipelineOptions options;
  options.localization.max_correction_sets = 4;
  const speccc::core::Pipeline pipeline(options);
  std::istringstream in(document);
  return pipeline.run(name, speccc::corpus::load_requirements(in));
}

TEST(PipelineDiagnosis, PinsThePumpInterlockDiagnosis) {
  const auto result = diagnose_spec("pump_interlock",
      "R1: If the start button is pressed, the pump is activated.\n"
      "R2: If the pressure sensor is detected, the alarm is raised.\n"
      "R3: If the start button is pressed, the status light is updated.\n"
      "R4: If the leak detector is detected, the drain valve is activated.\n"
      "R5: If the pressure sensor is detected, the alarm is not raised.\n"
      "R6: When the mode button is pressed, eventually the monitor light is "
      "activated.\n"
      "R7: If the leak detector is detected, the drain valve is not "
      "activated.\n");
  EXPECT_FALSE(result.consistent);
  ASSERT_TRUE(result.refinement.has_value());
  const auto& loc = result.refinement->localization;
  EXPECT_EQ(ids_of(result, loc.core),
            (std::vector<std::string>{"R4", "R7"}));
  ASSERT_EQ(loc.correction_sets.size(), 4u);
  EXPECT_EQ(ids_of(result, loc.correction_sets[0]),
            (std::vector<std::string>{"R2", "R4"}));
  EXPECT_EQ(ids_of(result, loc.correction_sets[1]),
            (std::vector<std::string>{"R2", "R7"}));
  EXPECT_EQ(ids_of(result, loc.correction_sets[2]),
            (std::vector<std::string>{"R4", "R5"}));
  EXPECT_EQ(ids_of(result, loc.correction_sets[3]),
            (std::vector<std::string>{"R5", "R7"}));
}

TEST(PipelineDiagnosis, PinsTheReservationDiagnosis) {
  // Fault A is the 3-sentence chain R1+R2+R3 (pairwise consistent,
  // jointly inconsistent); fault B the direct contradiction R4 vs R5.
  const auto result = diagnose_spec("reservation",
      "R1: If the booking request is received, the ticket is issued.\n"
      "R2: If the ticket is issued, the confirmation message is sent.\n"
      "R3: If the booking request is received, the confirmation message is "
      "not sent.\n"
      "R4: If the cancel button is pressed, the refund notice is displayed.\n"
      "R5: If the cancel button is pressed, the refund notice is not "
      "displayed.\n"
      "R6: If the payment card is detected, the receipt record is stored.\n");
  EXPECT_FALSE(result.consistent);
  ASSERT_TRUE(result.refinement.has_value());
  const auto& loc = result.refinement->localization;
  EXPECT_EQ(ids_of(result, loc.core),
            (std::vector<std::string>{"R4", "R5"}));
  ASSERT_EQ(loc.correction_sets.size(), 4u);
  EXPECT_EQ(ids_of(result, loc.correction_sets[0]),
            (std::vector<std::string>{"R1", "R5"}));
  EXPECT_EQ(ids_of(result, loc.correction_sets[1]),
            (std::vector<std::string>{"R2", "R5"}));
  EXPECT_EQ(ids_of(result, loc.correction_sets[2]),
            (std::vector<std::string>{"R3", "R4"}));
  EXPECT_EQ(ids_of(result, loc.correction_sets[3]),
            (std::vector<std::string>{"R3", "R5"}));
}

TEST(PipelineDiagnosis, PinsTheVentMonitorDiagnosis) {
  const auto result = diagnose_spec("vent_monitor",
      "R1: If the heat sensor is detected, the cooling fan is activated.\n"
      "R2: If the heat sensor is detected, the cooling fan is not "
      "activated.\n"
      "R3: If the test button is pressed, the status report is displayed in "
      "10 seconds.\n"
      "R4: When the power switch is pressed, eventually the standby light is "
      "activated.\n"
      "R5: If the smoke detector is detected, the vent flap is activated.\n"
      "R6: If the smoke detector is detected, the vent flap is not "
      "activated.\n");
  EXPECT_FALSE(result.consistent);
  ASSERT_TRUE(result.refinement.has_value());
  const auto& loc = result.refinement->localization;
  EXPECT_EQ(ids_of(result, loc.core),
            (std::vector<std::string>{"R5", "R6"}));
  // The rotation search found three distinct repairs here (cap is 4).
  ASSERT_EQ(loc.correction_sets.size(), 3u);
  EXPECT_EQ(ids_of(result, loc.correction_sets[0]),
            (std::vector<std::string>{"R1", "R6"}));
  EXPECT_EQ(ids_of(result, loc.correction_sets[1]),
            (std::vector<std::string>{"R2", "R5"}));
  EXPECT_EQ(ids_of(result, loc.correction_sets[2]),
            (std::vector<std::string>{"R2", "R6"}));
}

TEST(PipelineDiagnosis, ConsistentSpecCarriesNoDiagnosis) {
  const auto result = diagnose_spec("all_fine",
      "R1: If the start button is pressed, the pump is activated.\n"
      "R2: If the stop button is pressed, the status light is updated.\n");
  EXPECT_TRUE(result.consistent);
  EXPECT_FALSE(result.refinement.has_value());
}

// ---------------------------------------------------------------------------
// Refine's whole outcome over 200 planted specs, pinned by digest: the
// oracle call count, MUS, related filter, partition flip and correction
// sets must not move when stage 3 is reorganised.

void absorb(speccc::util::DigestBuilder& digest, const Subset& indices) {
  digest.u64(indices.size());
  for (Index i : indices) digest.u64(i);
}

TEST(Refine, PlantedOutcomesArePinned) {
  speccc::refine::LocalizeOptions localize_options;
  localize_options.max_correction_sets = 4;
  speccc::util::DigestBuilder digest("refine-pin");
  std::size_t checks = 0;
  for (const std::uint64_t seed : {1u, 2u}) {
    for (int index = 0; index < 100; ++index) {
      const difftest::SpecCase sc = difftest::build_spec_case(
          difftest::generated_planted_spec(seed, index).requirements);
      const speccc::refine::RefinementOutcome outcome = speccc::refine::refine(
          sc.requirements, speccc::partition::unify(sc.requirements), {},
          localize_options);
      const speccc::refine::Localization& loc = outcome.localization;
      digest.u64(outcome.consistent ? 1 : 0).u64(outcome.checks).u64(loc.checks);
      absorb(digest, loc.core);
      absorb(digest, loc.related);
      digest.u64(loc.correction_sets.size());
      for (const Subset& mcs : loc.correction_sets) absorb(digest, mcs);
      digest.u64(outcome.adjustment.has_value() ? 1 : 0);
      if (outcome.adjustment) {
        digest.str(outcome.adjustment->variable)
            .u64(outcome.adjustment->now_input ? 1 : 0);
      }
      checks += outcome.checks;
    }
  }
  EXPECT_EQ(checks, 18'715u);
  EXPECT_EQ(digest.finalize().hex(), "64acb135a7b58163055bfc7b43a9878c");
}

}  // namespace
