// Batch-checking throughput: the three Table I corpora and a generated
// 32-spec workload through the work-stealing scheduler at increasing
// worker counts. The specs-per-second counter is the headline number the
// CI bench job tracks (BENCH_latest.json); the jobs=1 row is the
// sequential baseline the >1 rows are compared against for the batch
// speedup. BM_BatchPlanted is the planted-fault shape, where every spec is
// refined and every worker interns formulas into the one shared arena.
// BM_ScreenInconsistentDepth12 prices the satisfiability screen,
// which only inconsistent specs pay for.
#include <benchmark/benchmark.h>

#include <vector>

#include "batch/batch.hpp"
#include "batch/corpus_tasks.hpp"
#include "corpus/cara.hpp"
#include "corpus/generator.hpp"
#include "difftest/harness.hpp"

namespace {

using speccc::batch::BatchOptions;
using speccc::batch::BatchReport;
using speccc::batch::SpecTask;

void run_batch(benchmark::State& state, const std::vector<SpecTask>& tasks) {
  BatchOptions options;
  options.jobs = static_cast<int>(state.range(0));
  std::size_t checked = 0;
  for (auto _ : state) {
    const BatchReport report = speccc::batch::check(tasks, options);
    benchmark::DoNotOptimize(report.consistent);
    checked += report.results.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(checked));
}

/// All 22 Table I rows per iteration (the paper's full evaluation).
void BM_BatchTable1(benchmark::State& state) {
  const std::vector<SpecTask> tasks = speccc::batch::table1_tasks();
  run_batch(state, tasks);
}
BENCHMARK(BM_BatchTable1)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/// A 32-spec generated workload (the fuzzing-throughput shape: many small
/// independent specs, where stealing matters more than per-spec cost).
void BM_BatchGenerated(benchmark::State& state) {
  std::vector<SpecTask> tasks;
  for (int i = 0; i < 32; ++i) {
    speccc::corpus::SpecScale scale{
        "gen" + std::to_string(i), 6 + i % 5, 3 + i % 3, 3 + i % 4,
        static_cast<std::uint64_t>(i) * 131 + 7,
        /*response_percent=*/20, /*timed_percent=*/15};
    tasks.push_back({scale.name, speccc::corpus::generate_spec(
                                     scale, speccc::corpus::device_theme())});
  }
  run_batch(state, tasks);
}
BENCHMARK(BM_BatchGenerated)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/// 200 planted-fault specs of seed 1 without "in N seconds" sentences (the
/// shape of specbench's planted workload): each is inconsistent, so each
/// runs stage 3 -- a MUS shrink and the partition flips -- after stage 2.
void BM_BatchPlanted(benchmark::State& state) {
  speccc::difftest::FaultConfig config;
  config.base.timed_percent = 0;
  std::vector<SpecTask> tasks;
  for (int i = 0; i < 200; ++i) {
    speccc::difftest::PlantedSpec spec =
        speccc::difftest::generated_planted_spec(1, i, config);
    tasks.push_back({std::move(spec.name), std::move(spec.requirements)});
  }
  run_batch(state, tasks);
}
BENCHMARK(BM_BatchPlanted)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/// One inconsistent spec whose screen meets depth-12 Next chains that no
/// constant trace satisfies, so the tableau runs: CARA/2.1.1 plus three
/// requirements "if g or !h, X^12 (a && !b)" and a contradictory alarm
/// pair, so no partition repairs it and the screen runs in full.
void BM_ScreenInconsistentDepth12(benchmark::State& state) {
  SpecTask task{"CARA/2.1.1 + slow screen + alarm clash",
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
  run_batch(state, {task});
}
BENCHMARK(BM_ScreenInconsistentDepth12)->Arg(1)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
