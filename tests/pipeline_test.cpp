// End-to-end integration tests: the full Fig. 1 pipeline over the three
// case-study corpora, reproducing the paper's Table I verdicts.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "batch/corpus_tasks.hpp"
#include "cache/store.hpp"
#include "corpus/cara.hpp"
#include "corpus/generator.hpp"
#include "corpus/robot.hpp"
#include "corpus/telepromise.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "difftest/harness.hpp"
#include "ltl/formula.hpp"
#include "synth/verify.hpp"
#include "util/diagnostics.hpp"
#include "util/digest.hpp"

namespace core = speccc::core;
namespace corpus = speccc::corpus;
namespace translate = speccc::translate;

namespace {

TEST(PipelineCara, WorkingModeSpecIsConsistent) {
  core::Pipeline pipeline;
  const auto result =
      pipeline.run("CARA working mode", corpus::cara_working_mode_texts());
  EXPECT_TRUE(result.consistent);
  EXPECT_EQ(result.num_formulas(), 30u);  // the published formula count
  EXPECT_EQ(result.synthesis.engine_used, speccc::synth::Engine::kSymbolic);
  // The partition finds the paper's 22-23 inputs (22 published; ours differ
  // by one because the published formulas carry typo-induced propositions).
  EXPECT_NEAR(static_cast<double>(result.num_inputs()), 22.0, 1.5);
}

TEST(PipelineCara, TimeAbstractionMatchesPaperExample) {
  core::Pipeline pipeline;
  const auto result =
      pipeline.run("CARA working mode", corpus::cara_working_mode_texts());
  // Theta = {3, 180, 60}, B = 5 => d = 60, theta' = (0, 3, 1), error 3.
  ASSERT_TRUE(result.abstraction.has_value());
  EXPECT_EQ(result.abstraction->divisor, 60u);
  EXPECT_EQ(result.abstraction->reduced_sum, 4u);
  EXPECT_EQ(result.abstraction->error_sum, 3u);
}

TEST(PipelineCara, GoldenFormulasAfterAbstraction) {
  core::Pipeline pipeline;
  const auto result =
      pipeline.run("CARA working mode", corpus::cara_working_mode_texts());
  for (const auto& golden : corpus::cara_working_mode()) {
    const auto it =
        std::find_if(result.translation.requirements.begin(),
                     result.translation.requirements.end(),
                     [&golden](const auto& r) { return r.id == golden.id; });
    ASSERT_NE(it, result.translation.requirements.end()) << golden.id;
    EXPECT_EQ(speccc::ltl::to_string(it->formula), golden.expected)
        << golden.id;
  }
}

TEST(PipelineCara, AbstractionDisabledKeepsRawDelays) {
  core::PipelineOptions options;
  options.time_abstraction = false;
  core::Pipeline pipeline(options);
  const auto result =
      pipeline.run("CARA raw", corpus::cara_working_mode_texts());
  EXPECT_FALSE(result.abstraction.has_value());
  // Req-28 keeps its 180 X operators; the spec remains consistent (the GCD
  // claim: abstraction preserves realizability) but the monitors are much
  // larger.
  EXPECT_TRUE(result.consistent);
  EXPECT_GT(result.synthesis.state_bits, 180u);
}

TEST(PipelineCara, ComponentRowsMatchPublishedScale) {
  core::Pipeline pipeline;
  for (const auto& component : corpus::cara_component_specs()) {
    const auto result = pipeline.run(component.name, component.requirements);
    EXPECT_TRUE(result.consistent) << component.name;
    EXPECT_EQ(result.num_formulas(),
              static_cast<std::size_t>(component.table_formulas))
        << component.name;
    EXPECT_EQ(result.num_inputs(),
              static_cast<std::size_t>(component.table_inputs))
        << component.name;
    EXPECT_EQ(result.num_outputs(),
              static_cast<std::size_t>(component.table_outputs))
        << component.name;
  }
}

TEST(PipelineTele, AllFiveApplicationsEndConsistent) {
  core::Pipeline pipeline;
  for (const auto& tele : corpus::telepromise_specs()) {
    const auto result = pipeline.run(tele.name, tele.requirements);
    EXPECT_TRUE(result.consistent) << tele.name;
    EXPECT_EQ(result.num_formulas(),
              static_cast<std::size_t>(tele.table_formulas))
        << tele.name;
    EXPECT_EQ(result.num_inputs(), static_cast<std::size_t>(tele.table_inputs))
        << tele.name;
    EXPECT_EQ(result.num_outputs(),
              static_cast<std::size_t>(tele.table_outputs))
        << tele.name;
  }
}

TEST(PipelineTele, LastTwoNeedRepartitioning) {
  // The paper: "G4LTL failed to generate controllers for the last two
  // specifications. The failure was caused by the classification of input
  // and output variables. After ... modifying the input/output variable
  // partition, the specifications are consistent."
  core::Pipeline pipeline;
  for (const auto& tele : corpus::telepromise_specs()) {
    const auto result = pipeline.run(tele.name, tele.requirements);
    if (tele.partition_trap) {
      EXPECT_FALSE(result.synthesis.realizable()) << tele.name;
      ASSERT_TRUE(result.refinement.has_value()) << tele.name;
      EXPECT_TRUE(result.refinement->consistent) << tele.name;
      ASSERT_TRUE(result.refinement->adjustment.has_value()) << tele.name;
      EXPECT_FALSE(result.refinement->adjustment->now_input);
    } else {
      EXPECT_TRUE(result.synthesis.realizable()) << tele.name;
    }
  }
}

TEST(PipelineRobot, AllScenariosConsistentInStrictMode) {
  core::PipelineOptions options;
  options.translation.next_mode = translate::NextMode::kStrict;
  core::Pipeline pipeline(options);
  for (const auto& robot : corpus::robot_specs()) {
    const auto result = pipeline.run(robot.name, robot.requirements);
    EXPECT_TRUE(result.consistent) << robot.name;
    EXPECT_EQ(result.num_formulas(),
              static_cast<std::size_t>(robot.table_formulas))
        << robot.name;
    EXPECT_EQ(result.num_inputs(), static_cast<std::size_t>(robot.table_inputs))
        << robot.name;
    EXPECT_EQ(result.num_outputs(),
              static_cast<std::size_t>(robot.table_outputs))
        << robot.name;
  }
}

TEST(PipelineRobot, MutualExclusionViolationIsCaught) {
  // Force both robots into room 1: inconsistent with mutual exclusion.
  auto spec = corpus::robot_spec(2, 3);
  spec.requirements.push_back({"Bad-1", "Robot 1 is in room 1."});
  spec.requirements.push_back({"Bad-2", "Robot 2 is in room 1."});
  core::PipelineOptions options;
  options.translation.next_mode = translate::NextMode::kStrict;
  options.refine_on_failure = false;
  core::Pipeline pipeline(options);
  const auto result = pipeline.run("bad robots", spec.requirements);
  EXPECT_FALSE(result.consistent);
}

TEST(PipelineGenerator, GeneratedSpecsAlwaysParseAndStayConsistent) {
  // Property sweep over generator scales.
  core::Pipeline pipeline;
  const corpus::Theme theme = corpus::device_theme();
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    corpus::SpecScale scale{"gen", 12, 7, 9, seed, 20, 20};
    const auto texts = corpus::generate_spec(scale, theme);
    const auto result = pipeline.run("generated", texts);
    EXPECT_TRUE(result.consistent) << "seed " << seed;
    EXPECT_EQ(result.num_formulas(), 12u);
    EXPECT_EQ(result.num_inputs(), 7u) << "seed " << seed;
    EXPECT_EQ(result.num_outputs(), 9u) << "seed " << seed;
  }
}

TEST(Report, TableRowAndDescribe) {
  core::Pipeline pipeline;
  const auto result =
      pipeline.run("CARA working mode", corpus::cara_working_mode_texts());
  const auto row = core::to_row("CARA", "0", result, 34.0);
  EXPECT_EQ(row.formulas, 30u);
  EXPECT_TRUE(row.consistent);
  EXPECT_FALSE(row.refined);

  const std::string text = core::describe(result);
  EXPECT_NE(text.find("consistent"), std::string::npos);
  EXPECT_NE(text.find("time abstraction: d = 60"), std::string::npos);
}

// ---- Stage 1 pins ------------------------------------------------------------

/// Fold what stage 1 decides for one spec into `digest`: every formula and
/// its delays, the abstraction, and the report with its timings zeroed (or
/// the error text, for a spec that does not check). True iff it was timed.
bool absorb_stage_one(speccc::util::DigestBuilder& digest,
                      const core::Pipeline& pipeline, const std::string& name,
                      const std::vector<translate::RequirementText>& spec) {
  core::PipelineResult result;
  try {
    result = pipeline.run(name, spec);
  } catch (const speccc::util::SpecError& e) {
    digest.str(e.what());
    return false;
  }
  for (const auto& req : result.translation.requirements) {
    digest.str(req.id).str(speccc::ltl::to_string(req.formula));
    digest.u64(req.delays.size());
    for (unsigned d : req.delays) digest.u64(d);
  }
  if (result.abstraction.has_value()) {
    digest.u64(result.abstraction->divisor);
    for (std::uint32_t r : result.abstraction->reduced) digest.u64(r);
  }
  result.translation_seconds = result.synthesis_seconds = 0;
  result.refinement_seconds = result.screen_seconds = 0;
  digest.str(core::describe(result));
  return result.abstraction.has_value();
}

TEST(PipelineStageOne, FormulasAndAbstractionsArePinned) {
  // What stage 1 produces (formulas, delays, divisors, reduced counts,
  // reports) must not move when its work is reorganised; any change to it
  // moves these digests.
  const core::Pipeline pipeline;
  speccc::util::DigestBuilder table1("stage1-pin");
  for (const speccc::batch::SpecTask& task : speccc::batch::table1_tasks()) {
    absorb_stage_one(table1, pipeline, task.name, task.requirements);
  }
  EXPECT_EQ(table1.finalize().hex(), "105deaa53f084e25a5d1dcacba38e214");

  speccc::util::DigestBuilder generated("stage1-pin");
  int timed = 0;
  for (int index = 1; index <= 200; ++index) {
    const auto spec = speccc::difftest::generated_spec(7, index);
    timed += absorb_stage_one(generated, pipeline, spec.name, spec.requirements);
  }
  EXPECT_EQ(timed, 128);  // the generated specs that carry a Theta
  EXPECT_EQ(generated.finalize().hex(), "e80d1d1cd1cced07aad71fe692559ebe");
}

TEST(PipelineStageOne, EachSentenceIsParsedOnce) {
  // A fresh store per row: one level-1 lookup per requirement, timed rows
  // included: their tick counts are read off that one parse.
  for (const speccc::batch::SpecTask& task : speccc::batch::table1_tasks()) {
    core::PipelineOptions options;
    options.cache = std::make_shared<speccc::cache::Store>();
    (void)core::Pipeline(options).run(task.name, task.requirements);
    const speccc::cache::StatsSnapshot stats = options.cache->stats();
    EXPECT_EQ(stats.l1_hits + stats.l1_misses, task.requirements.size())
        << task.name;
  }
}

std::size_t satisfiability_entries(const speccc::cache::Store& store) {
  std::size_t n = 0;
  store.for_each_satisfiable([&n](const auto&, bool) { ++n; });
  return n;
}

TEST(PipelineDiagnostics, UnsatisfiableRequirementIsFlagged) {
  const std::vector<translate::RequirementText> spec = {
      {"ok", "If the pump is detected, the alarm is issued."},
      // "available and not available" in one clause group: unsatisfiable.
      {"bad", "The cuff is available and the cuff is not available."},
  };
  // The screen runs after stages 2/3, so it reports the same requirements
  // whether or not refinement ran first, and caches one verdict each.
  for (const bool refine : {false, true}) {
    core::PipelineOptions options;
    options.refine_on_failure = refine;
    options.cache = std::make_shared<speccc::cache::Store>();
    core::Pipeline pipeline(options);
    const auto result = pipeline.run("diag", spec);
    EXPECT_FALSE(result.consistent) << "refine " << refine;
    EXPECT_EQ(result.refinement.has_value(), refine);
    EXPECT_EQ(result.unsatisfiable_requirements,
              (std::vector<std::string>{"bad"}))
        << "refine " << refine;
    EXPECT_EQ(satisfiability_entries(*options.cache), 2u);
  }
}

// A realizable specification has only satisfiable requirements, so the
// screen never runs for one: no tableau, no cached satisfiability entry.
TEST(PipelineDiagnostics, ConsistentSpecSkipsTheScreen) {
  core::PipelineOptions options;
  options.cache = std::make_shared<speccc::cache::Store>();
  core::Pipeline pipeline(options);
  const auto result =
      pipeline.run("CARA working mode", corpus::cara_working_mode_texts());
  ASSERT_TRUE(result.consistent);
  EXPECT_FALSE(result.refinement.has_value());
  EXPECT_TRUE(result.unsatisfiable_requirements.empty());
  EXPECT_EQ(result.screen_seconds, 0.0);
  EXPECT_EQ(satisfiability_entries(*options.cache), 0u);
}

TEST(PipelineDiagnostics, RepairedSpecSkipsTheScreen) {
  core::PipelineOptions options;
  options.cache = std::make_shared<speccc::cache::Store>();
  core::Pipeline pipeline(options);
  bool saw_trap = false;
  for (const auto& tele : corpus::telepromise_specs()) {
    if (!tele.partition_trap) continue;
    saw_trap = true;
    const auto result = pipeline.run(tele.name, tele.requirements);
    EXPECT_FALSE(result.synthesis.realizable()) << tele.name;
    ASSERT_TRUE(result.refinement.has_value()) << tele.name;
    EXPECT_TRUE(result.consistent) << tele.name;
    EXPECT_EQ(result.screen_seconds, 0.0) << tele.name;
  }
  EXPECT_TRUE(saw_trap);
  EXPECT_EQ(satisfiability_entries(*options.cache), 0u);
}

TEST(PipelineDiagnostics, SatisfiabilityCheckCanBeDisabled) {
  core::PipelineOptions options;
  options.satisfiability_check = false;
  options.refine_on_failure = false;
  core::Pipeline pipeline(options);
  const std::vector<translate::RequirementText> spec = {
      {"bad", "The cuff is available and the cuff is not available."},
  };
  const auto result = pipeline.run("diag", spec);
  EXPECT_TRUE(result.unsatisfiable_requirements.empty());
  EXPECT_FALSE(result.consistent);
}

TEST(PipelineRobot, ExtractedControllerIsExhaustivelyCorrect) {
  // The strongest end-to-end property: synthesize the rescue-robot
  // controller and model-check it against every translated requirement.
  core::PipelineOptions options;
  options.translation.next_mode = translate::NextMode::kStrict;
  options.synthesis.symbolic.extract = true;
  core::Pipeline pipeline(options);
  const auto spec = corpus::robot_spec(1, 4);
  const auto result = pipeline.run(spec.name, spec.requirements);
  ASSERT_TRUE(result.consistent);
  ASSERT_TRUE(result.synthesis.controller.has_value());
  for (const auto& req : result.translation.requirements) {
    const auto check =
        speccc::synth::verify(*result.synthesis.controller, req.formula);
    EXPECT_TRUE(check.holds) << req.id << ": " << req.text;
  }
}

// ---- Cancellation ---------------------------------------------------------
//
// One cancel wiring: the pipeline's predicate is polled inside the engines
// of stage 2 under every substrate spec and inside stage 3, not only at
// stage boundaries.

/// A cancel predicate that counts its polls and fires from poll `fire_at`
/// on (fire_at 0 never fires).
struct CountingCancel {
  std::shared_ptr<std::atomic<int>> polls = std::make_shared<std::atomic<int>>(0);

  [[nodiscard]] std::function<bool()> predicate(int fire_at) const {
    return [polls = polls, fire_at] {
      return ++*polls >= fire_at && fire_at > 0;
    };
  }
};

std::string cancelled_message(const core::PipelineOptions& options,
                              const std::string& name,
                              const std::vector<translate::RequirementText>& spec) {
  try {
    (void)core::Pipeline(options).run(name, spec);
  } catch (const speccc::util::CancelledError& e) {
    return e.what();
  }
  return {};
}

TEST(PipelineCancellation, EveryTableIRowStopsInsideStageTwo) {
  // Polls 1 and 2 are the translation and synthesis boundaries; poll 3 is
  // the first one inside the stage-2 engine, under auto exactly as under a
  // solo substrate.
  for (const char* spec : {"auto", "symbolic"}) {
    for (const speccc::batch::SpecTask& task : speccc::batch::table1_tasks()) {
      core::PipelineOptions options;
      options.substrate = core::SubstrateSpec::parse(spec);
      options.cancelled = CountingCancel{}.predicate(3);
      const std::string what =
          cancelled_message(options, task.name, task.requirements);
      EXPECT_FALSE(what.empty()) << spec << " " << task.name << " ran on";
      EXPECT_EQ(what.find("cancelled before"), std::string::npos)
          << spec << " " << task.name << ": " << what;
    }
  }
}

TEST(PipelineCancellation, RefinementStopsInsideItsRealizabilityChecks) {
  const std::vector<translate::RequirementText> spec = {
      {"L1", "If the door is open, the alarm is raised."},
      {"L2", "If the door is open, the alarm is not raised."},
  };
  // Count the polls through stage 2, with stage 3 and the screen off ...
  core::PipelineOptions options;
  options.refine_on_failure = false;
  options.satisfiability_check = false;
  CountingCancel counter;
  options.cancelled = counter.predicate(0);
  ASSERT_FALSE(core::Pipeline(options).run("door", spec).consistent);
  const int stage2_polls = counter.polls->load();

  // ... then, with stage 3 on, poll stage2_polls + 1 is the refinement
  // boundary: fire from the next one, which only a poll inside refine can
  // see. Nothing is cached for the interrupted stage.
  options.refine_on_failure = true;
  options.cache = std::make_shared<speccc::cache::Store>();
  options.cancelled = CountingCancel{}.predicate(stage2_polls + 2);
  const std::string what = cancelled_message(options, "door", spec);
  ASSERT_FALSE(what.empty()) << "refinement ran to completion";
  EXPECT_EQ(what.find("cancelled before"), std::string::npos) << what;
  std::size_t refinements = 0;
  options.cache->for_each_refinement(
      [&](const auto&, const auto&) { ++refinements; });
  EXPECT_EQ(refinements, 0u);
}

}  // namespace
