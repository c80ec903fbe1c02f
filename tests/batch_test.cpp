// Tests for the parallel batch-checking subsystem: the determinism
// contract (N-thread verdicts byte-identical to sequential over all three
// Table I corpora and a fixed difftest seed), budget exhaustion,
// cancellation, error isolation, and the substrate-agreement pass.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "batch/batch.hpp"
#include "batch/corpus_tasks.hpp"
#include "cache/store.hpp"
#include "core/pipeline.hpp"
#include "corpus/cara.hpp"
#include "corpus/generator.hpp"
#include "difftest/harness.hpp"
#include "difftest/random.hpp"
#include "util/diagnostics.hpp"
#include "util/json.hpp"

namespace batch = speccc::batch;
namespace difftest = speccc::difftest;
namespace json = speccc::util::json;

namespace {

/// The difftest spec generator with speccc_fuzz's seed derivation
/// (difftest::generated_spec): batch task k == fuzz spec case k of --seed S.
std::vector<batch::SpecTask> generated_tasks(std::uint64_t master_seed,
                                             int count) {
  std::vector<batch::SpecTask> tasks;
  for (int index = 0; index < count; ++index) {
    auto spec = difftest::generated_spec(master_seed, index);
    tasks.push_back({std::move(spec.name), std::move(spec.requirements)});
  }
  return tasks;
}

batch::BatchReport run_with_jobs(const std::vector<batch::SpecTask>& tasks,
                                 int jobs) {
  batch::BatchOptions options;
  options.jobs = jobs;
  return batch::check(tasks, options);
}

}  // namespace

// The acceptance contract: verdicts under N workers are byte-identical to
// the sequential run for N in {1, 4, 8}, over all three Table I corpora.
TEST(BatchDeterminism, ParallelMatchesSequentialOverAllThreeCorpora) {
  const std::vector<batch::SpecTask> tasks = batch::table1_tasks();
  ASSERT_EQ(tasks.size(), 22u);  // 14 CARA + 5 TELE + 3 Robot

  const std::string sequential = batch::canonical(run_with_jobs(tasks, 1));
  EXPECT_FALSE(sequential.empty());
  for (const int jobs : {4, 8}) {
    EXPECT_EQ(batch::canonical(run_with_jobs(tasks, jobs)), sequential)
        << "jobs=" << jobs;
  }
}

// The batch verdicts are the pipeline's verdicts: cross-check the report
// against direct sequential Pipeline::run calls.
TEST(BatchDeterminism, VerdictsMatchDirectPipelineRuns) {
  const std::vector<batch::SpecTask> tasks = batch::robot_tasks();
  const batch::BatchReport report = run_with_jobs(tasks, 4);
  ASSERT_EQ(report.results.size(), tasks.size());

  const speccc::core::Pipeline pipeline;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const auto direct = pipeline.run(tasks[i].name, tasks[i].requirements);
    EXPECT_EQ(report.results[i].name, tasks[i].name);
    EXPECT_EQ(report.results[i].status == batch::TaskStatus::kConsistent,
              direct.consistent)
        << tasks[i].name;
    EXPECT_EQ(report.results[i].formulas, direct.num_formulas());
    EXPECT_EQ(report.results[i].inputs, direct.num_inputs());
    EXPECT_EQ(report.results[i].outputs, direct.num_outputs());
  }
}

TEST(BatchDeterminism, FixedDifftestSeedMatchesSequential) {
  const std::vector<batch::SpecTask> tasks = generated_tasks(7, 10);
  const std::string sequential = batch::canonical(run_with_jobs(tasks, 1));
  EXPECT_EQ(batch::canonical(run_with_jobs(tasks, 4)), sequential);
}

// The cache acceptance contract: canonical reports are byte-identical
// with the memoization store on vs. off, for N in {1, 4, 8}, over all 22
// Table I corpus rows — both against a cold store and against a store
// pre-warmed by a previous batch (all-hits path).
TEST(BatchDeterminism, CacheOnMatchesCacheOffForAllWorkerCounts) {
  const std::vector<batch::SpecTask> tasks = batch::table1_tasks();
  const std::string uncached = batch::canonical(run_with_jobs(tasks, 1));

  batch::BatchOptions options;
  options.pipeline.cache = std::make_shared<speccc::cache::Store>();
  for (const int jobs : {1, 4, 8}) {
    options.jobs = jobs;
    const batch::BatchReport report = batch::check(tasks, options);
    EXPECT_EQ(batch::canonical(report), uncached) << "jobs=" << jobs;
    EXPECT_TRUE(report.cache_enabled);
  }
}

// The diagnosis acceptance contract: with MCS enumeration on, canonical
// reports stay byte-identical across worker counts and cache modes over
// all 22 Table I rows -- MUS and correction sets are input-pure, so they
// belong inside the canonical form like verdicts do.
TEST(BatchDeterminism, DiagnosisKeepsCanonicalAcrossJobsAndCacheModes) {
  const std::vector<batch::SpecTask> tasks = batch::table1_tasks();
  batch::BatchOptions options;
  options.pipeline.localization.max_correction_sets = 4;
  options.jobs = 1;
  const std::string sequential = batch::canonical(batch::check(tasks, options));
  // The two refined TELEPROMISE rows surface their MUS in the canonical
  // report even though refinement rescued them (mcs= stays reserved for
  // genuinely inconsistent specs).
  EXPECT_NE(sequential.find(" mus="), std::string::npos);
  EXPECT_EQ(sequential.find(" mcs="), std::string::npos);
  for (const int jobs : {4, 8}) {
    options.jobs = jobs;
    EXPECT_EQ(batch::canonical(batch::check(tasks, options)), sequential)
        << "jobs=" << jobs;
  }
  options.pipeline.cache = std::make_shared<speccc::cache::Store>();
  for (const int jobs : {1, 4, 8}) {
    options.jobs = jobs;
    EXPECT_EQ(batch::canonical(batch::check(tasks, options)), sequential)
        << "cached jobs=" << jobs;
  }
}

// Diagnosis output never changes verdicts: the canonical report with
// enumeration on equals the plain report once the diagnosis fields are
// the only difference -- over Table I they are not even that, because all
// 22 rows are consistent (the CLI smoke in scripts/check.sh diffs the two
// full reports for exactly this reason).
TEST(BatchDeterminism, DiagnosisOverConsistentCorpusMatchesPlainReport) {
  const std::vector<batch::SpecTask> tasks = batch::table1_tasks();
  const std::string plain = batch::canonical(run_with_jobs(tasks, 2));
  batch::BatchOptions options;
  options.jobs = 2;
  options.pipeline.localization.max_correction_sets = 4;
  EXPECT_EQ(batch::canonical(batch::check(tasks, options)), plain);
}

// A second batch over a warm shared store answers from the cache (the
// cross-batch reuse the revision workflow relies on) without changing a
// byte of the canonical report.
TEST(BatchCache, WarmStoreHitsAcrossBatchesAndKeepsVerdicts) {
  const std::vector<batch::SpecTask> tasks = batch::robot_tasks();
  batch::BatchOptions options;
  options.jobs = 2;
  options.pipeline.cache = std::make_shared<speccc::cache::Store>();

  const batch::BatchReport cold = batch::check(tasks, options);
  const batch::BatchReport warm = batch::check(tasks, options);

  EXPECT_EQ(batch::canonical(warm), batch::canonical(cold));
  EXPECT_GT(cold.cache_stats.misses(), 0u);
  EXPECT_GT(warm.cache_stats.hits(), 0u);
  // Every decision of the warm batch is memoized: no level-2 misses.
  EXPECT_EQ(warm.cache_stats.l2_misses, 0u);
  EXPECT_EQ(warm.cache_stats.l1_misses, 0u);
}

// Without a store the report says so and carries zeroed counters.
TEST(BatchCache, DisabledByDefault) {
  const batch::BatchReport report = run_with_jobs(batch::robot_tasks(), 1);
  EXPECT_FALSE(report.cache_enabled);
  EXPECT_EQ(report.cache_stats.hits() + report.cache_stats.misses(), 0u);
  EXPECT_EQ(json::parse(batch::to_json(report)).find("cache"), nullptr);
}

TEST(BatchScheduler, ResultsKeepInputOrderAndWorkerIdsAreInRange) {
  const std::vector<batch::SpecTask> tasks = batch::telepromise_tasks();
  const batch::BatchReport report = run_with_jobs(tasks, 3);
  ASSERT_EQ(report.results.size(), tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_EQ(report.results[i].name, tasks[i].name);
    EXPECT_GE(report.results[i].worker, 0);
    EXPECT_LT(report.results[i].worker, report.jobs);
  }
  EXPECT_EQ(report.consistent + report.inconsistent + report.errors +
                report.budget_exhausted + report.cancelled,
            tasks.size());
}

TEST(BatchScheduler, BudgetExhaustionIsReportedPerTask) {
  batch::BatchOptions options;
  options.jobs = 2;
  options.task_time_budget_seconds = 1e-9;  // expires at the first poll
  const batch::BatchReport report =
      batch::check(batch::robot_tasks(), options);
  ASSERT_EQ(report.results.size(), 3u);
  EXPECT_EQ(report.budget_exhausted, 3u);
  for (const batch::TaskResult& r : report.results) {
    EXPECT_EQ(r.status, batch::TaskStatus::kBudgetExhausted);
    EXPECT_NE(r.detail.find("cancelled before"), std::string::npos);
  }
}

// The satisfiability screen polls the task budget throughout the tableau.
// A constant trace satisfies every CARA/2.1.1 requirement, so the screen
// decides those without a tableau. The three Slow requirements have no
// constant model: their trigger holds on both constant traces and their
// response is a mixed conjunction. Each abstracts to a depth-12 Next chain
// whose tableau takes about 0.13 s in Release. The alarm pair makes the
// spec inconsistent under every partition, so the screen runs.
TEST(BatchScheduler, BudgetInterruptsARunningSatisfiabilityScreen) {
  batch::SpecTask task{
      "CARA/2.1.1 + slow screen + alarm clash",
      speccc::corpus::cara_component_specs().at(1).requirements};
  task.requirements.push_back(
      {"Slow-1", "If the alarm is issued or the monitor is not raised, the "
                 "high line and the low rate are detected in 120 seconds."});
  task.requirements.push_back(
      {"Slow-2", "If the alarm is issued or the monitor is not raised, the "
                 "high rate and the low line are detected in 120 seconds."});
  task.requirements.push_back(
      {"Slow-3", "If the alarm is issued or the monitor is not raised, the "
                 "high signal and the low sensor are detected in 120 seconds."});
  task.requirements.push_back({"Clash-1", "The alarm is issued."});
  task.requirements.push_back({"Clash-2", "The alarm is not issued."});

  batch::BatchOptions options;
  options.jobs = 1;
  options.pipeline.satisfiability_check = false;  // premise, without the screen
  const batch::BatchReport unscreened = batch::check({task}, options);
  ASSERT_EQ(unscreened.results.at(0).status, batch::TaskStatus::kInconsistent);

  options.pipeline.satisfiability_check = true;
  // In Release, both budgets expire during the screen's tableau
  // expansions. The bounds leave room for sanitizer builds, where the
  // stages before the screen alone can outlast 20 ms.
  const std::pair<double, double> budget_and_bound[] = {{0.02, 0.2},
                                                         {0.2, 0.3}};
  for (const auto& [budget, bound] : budget_and_bound) {
    options.task_time_budget_seconds = budget;
    const batch::BatchReport report = batch::check({task}, options);
    const batch::TaskResult& r = report.results.at(0);
    EXPECT_EQ(r.status, batch::TaskStatus::kBudgetExhausted)
        << budget << ": " << r.detail;
    EXPECT_LT(r.seconds, bound) << budget;
  }
}

TEST(BatchScheduler, PreRaisedCancelFlagDrainsTheQueue) {
  std::atomic<bool> cancel{true};
  batch::BatchOptions options;
  options.jobs = 4;
  options.cancel = &cancel;
  const batch::BatchReport report =
      batch::check(batch::table1_tasks(), options);
  EXPECT_EQ(report.cancelled, report.results.size());
  for (const batch::TaskResult& r : report.results) {
    EXPECT_EQ(r.status, batch::TaskStatus::kCancelled);
  }
}

TEST(BatchScheduler, MidBatchCancellationStopsRemainingTasks) {
  std::atomic<bool> cancel{false};
  batch::BatchOptions options;
  options.jobs = 1;  // deterministic completion order
  options.cancel = &cancel;
  options.on_result = [&](const batch::TaskResult&) { cancel = true; };
  const batch::BatchReport report =
      batch::check(batch::robot_tasks(), options);
  ASSERT_EQ(report.results.size(), 3u);
  EXPECT_EQ(report.results[0].status, batch::TaskStatus::kConsistent);
  EXPECT_EQ(report.results[1].status, batch::TaskStatus::kCancelled);
  EXPECT_EQ(report.results[2].status, batch::TaskStatus::kCancelled);
  EXPECT_EQ(report.cancelled, 2u);
}

TEST(BatchScheduler, TaskErrorsAreIsolated) {
  std::vector<batch::SpecTask> tasks = batch::robot_tasks();
  tasks.insert(tasks.begin() + 1,
               {"broken", {{"B1", "colorless green ideas sleep furiously"}}});
  const batch::BatchReport report = run_with_jobs(tasks, 2);
  ASSERT_EQ(report.results.size(), 4u);
  EXPECT_EQ(report.results[1].status, batch::TaskStatus::kError);
  EXPECT_FALSE(report.results[1].detail.empty());
  EXPECT_EQ(report.errors, 1u);
  EXPECT_EQ(report.consistent, 3u);  // the robot rows still checked
}

TEST(BatchScheduler, EmptyBatchIsTrivial) {
  const batch::BatchReport report = batch::check({}, {});
  EXPECT_TRUE(report.results.empty());
  EXPECT_TRUE(report.all_consistent());
  EXPECT_EQ(report.steals, 0u);
}

TEST(BatchAgreement, SubstratesAgreeOnTheRobotCorpus) {
  batch::BatchOptions options;
  options.jobs = 2;
  options.check_agreement = true;
  const batch::BatchReport report =
      batch::check(batch::robot_tasks(), options);
  EXPECT_EQ(report.disagreements, 0u);
  for (const batch::TaskResult& r : report.results) {
    ASSERT_TRUE(r.agreement.checked);
    EXPECT_TRUE(r.agreement.agree()) << r.name;
    // The symbolic engine decides every robot row definitively; the
    // tableau can only abstain on these satisfiable specifications.
    EXPECT_EQ(r.agreement.verdict_of("symbolic"),
              speccc::synth::Realizability::kRealizable)
        << r.name;
    EXPECT_EQ(r.agreement.verdict_of("tableau"),
              speccc::synth::Realizability::kUnknown)
        << r.name;
  }
}

TEST(BatchReporting, JsonContainsEverySpecAndTheJobCount) {
  const batch::BatchReport report = run_with_jobs(batch::robot_tasks(), 2);
  const std::string text = batch::to_json(report);
  ASSERT_EQ(text.back(), '\n');
  const json::Value doc = json::parse(text);
  EXPECT_EQ(doc.at("jobs").as_count(), 2u);
  const json::Array& specs = doc.at("specs").as_array();
  ASSERT_EQ(specs.size(), report.results.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(specs[i].at("name").as_string(), report.results[i].name);
    // Per-stage timings are diagnostics: in the JSON, never canonical.
    for (const char* field : {"translation_seconds", "synthesis_seconds",
                              "refinement_seconds", "screen_seconds"}) {
      EXPECT_GE(specs[i].at(field).as_number(), 0.0) << field;
      EXPECT_EQ(batch::canonical(report).find(field), std::string::npos)
          << field;
    }
  }
}

// Every string -- here a spec name with a quote, a backslash, a newline,
// a control byte and UTF-8 -- survives batch::to_json -> util::json::parse.
TEST(BatchReporting, JsonRoundTripsAwkwardSpecNames) {
  const std::string name = "quote\" back\\slash\nnew\x01line caf\xc3\xa9";
  batch::SpecTask task = batch::robot_tasks().front();
  task.name = name;
  const batch::BatchReport report = run_with_jobs({task}, 1);
  const json::Value doc = json::parse(batch::to_json(report));
  EXPECT_EQ(doc.at("specs").as_array().at(0).at("name").as_string(), name);
}

// The cache counters batch::to_json writes read back equal through the
// reader the shard coordinator merges worker reports with.
TEST(BatchReporting, JsonCacheStatsReadBackThroughTheShardReader) {
  batch::BatchOptions options;
  options.jobs = 2;
  options.pipeline.cache = std::make_shared<speccc::cache::Store>();
  const batch::BatchReport report = batch::check(batch::robot_tasks(), options);
  ASSERT_GT(report.cache_stats.misses(), 0u);
  const json::Value doc = json::parse(batch::to_json(report));
  EXPECT_EQ(speccc::cache::stats_from_json(doc.at("cache")),
            report.cache_stats);
}

// The per-worker BDD manager counters are aggregated into the report and
// the JSON document, but stay out of the canonical form: they are engine
// diagnostics, not verdicts.
TEST(BatchReporting, BddStatsSurfaceInJsonButNotInCanonical) {
  const batch::BatchReport report = run_with_jobs(batch::robot_tasks(), 2);
  // Robot corpus specs sit in the symbolic engine's pattern fragment.
  EXPECT_GT(report.bdd.tasks, 0u);
  EXPECT_GT(report.bdd.peak_nodes_max, 0u);
  const json::Value doc = json::parse(batch::to_json(report));
  EXPECT_EQ(doc.at("bdd").at("tasks").as_count(), report.bdd.tasks);
  EXPECT_EQ(doc.at("bdd").at("peak_nodes_max").as_count(),
            report.bdd.peak_nodes_max);
  std::size_t specs_with_peak = 0;
  for (const json::Value& spec : doc.at("specs").as_array()) {
    if (const json::Value* peak = spec.find("bdd_peak_nodes")) {
      EXPECT_GT(peak->as_count(), 0u);
      ++specs_with_peak;
    }
  }
  EXPECT_GT(specs_with_peak, 0u);
  const std::string canon = batch::canonical(report);
  EXPECT_EQ(canon.find("bdd"), std::string::npos);
  EXPECT_EQ(canon.find("peak"), std::string::npos);
}
