// Diagnosis cost study: MUS extraction time vs. specification size on
// generated multi-fault corpora (the planted-fault generator of
// difftest/random.hpp), MCS enumeration, and the pure-SAT group MUS path
// whose incremental assumption cores make the shrinker cheap.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <iostream>
#include <vector>

#include "diag/diag.hpp"
#include "difftest/harness.hpp"
#include "difftest/oracle.hpp"
#include "partition/partition.hpp"
#include "refine/refine.hpp"
#include "sat/solver.hpp"

namespace diag = speccc::diag;
namespace difftest = speccc::difftest;
namespace partition = speccc::partition;
namespace refine = speccc::refine;
namespace sat = speccc::sat;

namespace {

constexpr std::uint64_t kSeed = 97;

difftest::FaultConfig sized_config(int base_formulas) {
  difftest::FaultConfig config;
  config.base.min_formulas = base_formulas;
  config.base.max_formulas = base_formulas;
  return config;
}

/// One planted multi-fault spec per base size, generated once: the
/// benchmark measures localization, not generation or translation.
void BM_MusBySpecSize(benchmark::State& state) {
  const auto spec = difftest::generated_planted_spec(
      kSeed, 0, sized_config(static_cast<int>(state.range(0))));
  const difftest::SpecCase sc = difftest::build_spec_case(spec.requirements);
  std::size_t checks = 0;
  for (auto _ : state) {
    const auto loc = refine::localize(sc.requirements, sc.signature);
    benchmark::DoNotOptimize(loc.core.data());
    checks = loc.checks;
  }
  state.counters["requirements"] = static_cast<double>(sc.requirements.size());
  state.counters["realizability_checks"] = static_cast<double>(checks);
}
BENCHMARK(BM_MusBySpecSize)
    ->RangeMultiplier(2)
    ->Range(4, 16)
    ->Unit(benchmark::kMillisecond);

/// Full MCS enumeration (cap 4) over a mid-size multi-fault spec: the
/// rotation/grow loop costs about one realizability check per requirement
/// per enumerated set.
void BM_McsEnumeration(benchmark::State& state) {
  difftest::FaultConfig config = sized_config(8);
  config.min_faults = config.max_faults = static_cast<int>(state.range(0));
  const auto spec = difftest::generated_planted_spec(kSeed, 0, config);
  const difftest::SpecCase sc = difftest::build_spec_case(spec.requirements);
  std::size_t checks = 0;
  for (auto _ : state) {
    // A fresh oracle per iteration: its memo would answer every later
    // iteration without synthesizing.
    const auto oracle = diag::synthesis_oracle(sc.requirements, sc.signature);
    std::vector<std::size_t> universe(sc.requirements.size());
    for (std::size_t i = 0; i < universe.size(); ++i) universe[i] = i;
    const auto sets = diag::correction_sets(universe, oracle, 4, checks);
    benchmark::DoNotOptimize(sets.data());
  }
  state.counters["requirements"] = static_cast<double>(sc.requirements.size());
}
BENCHMARK(BM_McsEnumeration)
    ->DenseRange(2, 4, 1)
    ->Unit(benchmark::kMillisecond);

/// The whole stage-3 loop (initial check, MUS shrink, partition flips) over
/// 50 planted specs of seed 1 without "in N seconds" sentences, with the
/// default options -- the refine layer of specbench's planted workload.
void BM_RefinePlanted(benchmark::State& state) {
  difftest::FaultConfig config;
  config.base.timed_percent = 0;
  std::vector<difftest::SpecCase> cases;
  std::vector<partition::Partition> partitions;
  for (int index = 0; index < 50; ++index) {
    cases.push_back(difftest::build_spec_case(
        difftest::generated_planted_spec(1, index, config).requirements));
    partitions.push_back(partition::unify(cases.back().requirements));
  }
  std::size_t checks = 0;
  for (auto _ : state) {
    checks = 0;
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const auto outcome =
          refine::refine(cases[i].requirements, partitions[i]);
      checks += outcome.checks;
    }
    benchmark::DoNotOptimize(checks);
  }
  state.counters["specs"] = static_cast<double>(cases.size());
  state.counters["realizability_checks"] = static_cast<double>(checks);
}
BENCHMARK(BM_RefinePlanted)->Unit(benchmark::kMillisecond);

/// SAT-backed group MUS: N innocent unit groups around one gated
/// pigeonhole contradiction. The solver's assumption core prunes all N
/// bystanders in one jump, and clauses learned refuting the pigeonhole
/// once make every later probe of it near-free.
void BM_SatGroupMus(benchmark::State& state) {
  const int innocents = static_cast<int>(state.range(0));
  constexpr int kPigeons = 6;
  constexpr int kHoles = 5;
  for (auto _ : state) {
    state.PauseTiming();  // solver construction is not the measured path
    sat::Solver solver;
    std::vector<sat::Lit> selectors;
    for (int i = 0; i < innocents; ++i) {
      const sat::Lit sel(solver.new_var(), true);
      const sat::Lit value(solver.new_var(), true);
      solver.add_binary(sel.negated(), value);
      selectors.push_back(sel);
    }
    int var[kPigeons][kHoles];
    for (auto& row : var) {
      for (int& v : row) v = solver.new_var();
    }
    const sat::Lit gate(solver.new_var(), true);
    for (int i = 0; i < kPigeons; ++i) {
      sat::Clause clause{gate.negated()};
      for (int j = 0; j < kHoles; ++j) clause.push_back(sat::Lit(var[i][j], true));
      solver.add_clause(clause);
    }
    for (int j = 0; j < kHoles; ++j) {
      for (int i1 = 0; i1 < kPigeons; ++i1) {
        for (int i2 = i1 + 1; i2 < kPigeons; ++i2) {
          solver.add_ternary(gate.negated(), sat::Lit(var[i1][j], false),
                             sat::Lit(var[i2][j], false));
        }
      }
    }
    selectors.push_back(gate);
    state.ResumeTiming();

    const auto oracle = diag::sat_group_oracle(solver, selectors);
    diag::Options options;
    options.max_correction_sets = 0;
    const diag::Diagnosis d = diag::diagnose(selectors.size(), oracle, options);
    benchmark::DoNotOptimize(d.mus.data());
  }
}
BENCHMARK(BM_SatGroupMus)
    ->RangeMultiplier(4)
    ->Range(16, 256)
    ->Unit(benchmark::kMillisecond);

void print_summary() {
  std::cout << "\nMUS localization study (planted multi-fault corpora)\n";
  for (const int base : {4, 8, 16}) {
    const auto spec =
        difftest::generated_planted_spec(kSeed, 0, sized_config(base));
    const difftest::SpecCase sc = difftest::build_spec_case(spec.requirements);
    const auto loc = refine::localize(sc.requirements, sc.signature);
    std::cout << "  " << sc.requirements.size() << " requirements, "
              << spec.faults.size() << " planted faults: " << loc.checks
              << " checks (|MUS| " << loc.core.size() << ")\n";
  }
  std::cout << "  (deletion is position-independent -- about one check per "
               "requirement plus\n   two per MUS element -- and guarantees a "
               "minimal subset.)\n";
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_summary();
  return 0;
}
