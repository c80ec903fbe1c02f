// Substrate micro-benchmarks: the CDCL SAT solver, the BDD package, and the
// GPVW tableau -- the infrastructure every consistency check rides on.
#include <benchmark/benchmark.h>

#include "automata/gpvw.hpp"
#include "bdd/bdd.hpp"
#include "game/symbolic.hpp"
#include "ltl/parser.hpp"
#include "sat/solver.hpp"
#include "smt/bitblast.hpp"
#include "synth/monitors.hpp"
#include "util/diagnostics.hpp"

namespace {

// Pigeonhole: exponential for resolution-based solvers; n = 6/5 stays sane.
void BM_SatPigeonhole(benchmark::State& state) {
  const int pigeons = static_cast<int>(state.range(0));
  const int holes = pigeons - 1;
  for (auto _ : state) {
    speccc::sat::Solver solver;
    std::vector<std::vector<int>> var(static_cast<std::size_t>(pigeons));
    for (auto& row : var) {
      for (int j = 0; j < holes; ++j) row.push_back(solver.new_var());
    }
    for (int i = 0; i < pigeons; ++i) {
      speccc::sat::Clause clause;
      for (int j = 0; j < holes; ++j) {
        clause.push_back(speccc::sat::Lit(var[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)], true));
      }
      solver.add_clause(clause);
    }
    for (int j = 0; j < holes; ++j) {
      for (int a = 0; a < pigeons; ++a) {
        for (int b = a + 1; b < pigeons; ++b) {
          solver.add_binary(
              speccc::sat::Lit(var[static_cast<std::size_t>(a)][static_cast<std::size_t>(j)], false),
              speccc::sat::Lit(var[static_cast<std::size_t>(b)][static_cast<std::size_t>(j)], false));
        }
      }
    }
    auto result = solver.solve();
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_SatPigeonhole)->DenseRange(5, 8)->Unit(benchmark::kMillisecond);

// Random 3-SAT near the phase transition (ratio 4.2).
void BM_SatRandom3Sat(benchmark::State& state) {
  const int vars = static_cast<int>(state.range(0));
  const int clauses = static_cast<int>(4.2 * vars);
  for (auto _ : state) {
    speccc::util::Rng rng(0xfeedULL + static_cast<std::uint64_t>(vars));
    speccc::sat::Solver solver;
    for (int v = 0; v < vars; ++v) (void)solver.new_var();
    for (int c = 0; c < clauses; ++c) {
      speccc::sat::Clause clause;
      for (int k = 0; k < 3; ++k) {
        clause.push_back(speccc::sat::Lit(
            static_cast<int>(rng.below(static_cast<std::uint64_t>(vars))),
            rng.chance(1, 2)));
      }
      solver.add_clause(clause);
    }
    auto result = solver.solve();
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_SatRandom3Sat)->RangeMultiplier(2)->Range(25, 100)->Unit(benchmark::kMillisecond);

// Bit-blasted multiplication (the Section IV-E workhorse).
void BM_SmtMultiplier(benchmark::State& state) {
  const auto width = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    speccc::sat::Solver solver;
    speccc::smt::Builder builder(solver);
    const auto x = builder.var(width);
    const auto y = builder.var(width);
    builder.require_eq(builder.mul(x, y),
                       builder.constant(221, 2 * width));  // 13 * 17
    builder.require(builder.ule(builder.constant(2, width), x));
    builder.require(builder.ule(builder.constant(2, width), y));
    auto result = builder.solve();
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_SmtMultiplier)->DenseRange(8, 16, 4)->Unit(benchmark::kMillisecond);

// Multiplier-miter equivalence: prove x*y == y*x by refuting the miter.
// The two shift-and-add expansions are structurally different circuits, so
// this is a genuine UNSAT equivalence proof through the whole
// AIG -> cut-mapping -> CDCL stack.
void BM_SmtMultiplierMiter(benchmark::State& state) {
  const auto width = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    speccc::sat::Solver solver;
    speccc::smt::Builder builder(solver);
    const auto x = builder.var(width);
    const auto y = builder.var(width);
    const auto lhs = builder.mul(x, y);
    const auto rhs = builder.mul(y, x);
    builder.require(builder.eq(lhs, rhs).negated());
    const auto result = builder.solve();
    speccc_check(result == speccc::sat::Result::kUnsat,
                 "commutativity miter must be UNSAT");
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_SmtMultiplierMiter)->DenseRange(4, 6)->Unit(benchmark::kMillisecond);

// CNF size of the multiplier instance under both encoders. The interesting
// output is the counters: mapped must emit substantially fewer clauses and
// variables than the per-gate Tseitin lane (the ISSUE pins >= 25% fewer
// clauses on this family).
void BM_SmtEncodingSize(benchmark::State& state) {
  const auto width = static_cast<std::size_t>(state.range(0));
  const bool mapped = state.range(1) != 0;
  std::size_t clauses = 0;
  std::size_t vars = 0;
  std::size_t literals = 0;
  for (auto _ : state) {
    speccc::sat::Solver solver;
    speccc::smt::BuilderOptions options;
    options.cnf.encoder = mapped ? speccc::aig::CnfOptions::Encoder::kCutMap
                                 : speccc::aig::CnfOptions::Encoder::kTseitin;
    speccc::smt::Builder builder(solver, options);
    const auto x = builder.var(width);
    const auto y = builder.var(width);
    builder.require_eq(builder.mul(x, y), builder.constant(221, 2 * width));
    builder.require(builder.ule(builder.constant(2, width), x));
    builder.require(builder.ule(builder.constant(2, width), y));
    builder.flush();
    clauses = builder.cnf_stats().clauses;
    vars = builder.cnf_stats().vars;
    literals = builder.cnf_stats().literals;
    benchmark::DoNotOptimize(clauses);
  }
  state.counters["clauses"] = static_cast<double>(clauses);
  state.counters["vars"] = static_cast<double>(vars);
  state.counters["literals"] = static_cast<double>(literals);
}
BENCHMARK(BM_SmtEncodingSize)
    ->ArgNames({"width", "mapped"})
    ->Args({8, 0})
    ->Args({8, 1})
    ->Args({12, 0})
    ->Args({12, 1})
    ->Args({16, 0})
    ->Args({16, 1});

// BDD: the n-bit adder equivalence x + y == y + x.
void BM_BddAdderEquivalence(benchmark::State& state) {
  const int bits = static_cast<int>(state.range(0));
  for (auto _ : state) {
    speccc::bdd::Manager mgr;
    std::vector<int> xs;
    std::vector<int> ys;
    for (int i = 0; i < bits; ++i) {
      xs.push_back(mgr.new_var());
      ys.push_back(mgr.new_var());
    }
    const auto sum = [&mgr](const std::vector<int>& a, const std::vector<int>& b) {
      std::vector<speccc::bdd::Bdd> out;
      speccc::bdd::Bdd carry = mgr.bdd_false();
      for (std::size_t i = 0; i < a.size(); ++i) {
        const auto av = mgr.var(a[i]);
        const auto bv = mgr.var(b[i]);
        out.push_back(mgr.bdd_xor(mgr.bdd_xor(av, bv), carry));
        carry = mgr.bdd_or(mgr.bdd_and(av, bv),
                           mgr.bdd_and(carry, mgr.bdd_xor(av, bv)));
      }
      return out;
    };
    const auto lhs = sum(xs, ys);
    const auto rhs = sum(ys, xs);
    bool equal = true;
    for (std::size_t i = 0; i < lhs.size(); ++i) equal = equal && lhs[i] == rhs[i];
    speccc_check(equal, "adders must be equivalent");
    benchmark::DoNotOptimize(mgr.node_count());
  }
}
BENCHMARK(BM_BddAdderEquivalence)->DenseRange(8, 32, 8)->Unit(benchmark::kMillisecond);

// Safety-game fixpoint: the Buechi nu/mu iteration over game::cpre (one
// fused preimage pass per controllable-predecessor step). The spec is n
// request/grant monitors -- n Buechi sets, so every nu-iteration runs n
// mu-fixpoints of CPre calls.
void BM_GameFixpoint(benchmark::State& state) {
  const int reqs = static_cast<int>(state.range(0));

  std::vector<speccc::ltl::Formula> spec;
  speccc::synth::IoSignature signature;
  for (int i = 0; i < reqs; ++i) {
    const std::string req = "req" + std::to_string(i);
    const std::string grant = "grant" + std::to_string(i);
    spec.push_back(speccc::ltl::parse("G (" + req + " -> F " + grant + ")"));
    spec.push_back(speccc::ltl::parse("G (" + grant + " -> X !" + req + ")"));
    signature.inputs.push_back(req);
    signature.outputs.push_back(grant);
  }

  for (auto _ : state) {
    speccc::bdd::Manager mgr;
    const auto compiled = speccc::synth::compile_monitors(mgr, spec, signature);
    speccc_check(compiled.has_value(), "spec must compile to monitors");
    const speccc::game::SymbolicGame& game = compiled->game;

    // nu Z. AND_j mu Y. CPre((F_j and CPre(Z)) or Y), no extraction.
    const auto cpre = [&game](speccc::bdd::Bdd target) {
      return speccc::game::cpre(game, target);
    };
    speccc::bdd::Bdd z = mgr.bdd_true();
    int iterations = 0;
    for (;;) {
      ++iterations;
      speccc::bdd::Bdd conj = mgr.bdd_true();
      const speccc::bdd::Bdd cpre_z = cpre(z);
      for (const speccc::bdd::Bdd& f : game.buchi) {
        const speccc::bdd::Bdd target = mgr.bdd_and(f, cpre_z);
        speccc::bdd::Bdd y = mgr.bdd_false();
        for (;;) {
          const speccc::bdd::Bdd next = mgr.bdd_or(target, cpre(y));
          if (next == y) break;
          y = next;
        }
        conj = mgr.bdd_and(conj, y);
      }
      if (conj == z) break;
      z = conj;
    }
    benchmark::DoNotOptimize(iterations);
    benchmark::DoNotOptimize(mgr.node_count());
  }
}
// MinTime pinned: one fixpoint solve is tens of microseconds, below the
// noise floor of the shared runners bench_compare tolerates. The constant
// fused:1 argument keeps the row names of the baseline entries.
BENCHMARK(BM_GameFixpoint)
    ->ArgNames({"reqs", "fused"})
    ->Args({8, 1})
    ->Args({12, 1})
    ->MinTime(0.25)
    ->Unit(benchmark::kMillisecond);

// GPVW tableau on formulas of growing temporal depth.
void BM_GpvwNestedUntil(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  speccc::ltl::Formula f = speccc::ltl::ap("p0");
  for (int i = 1; i <= depth; ++i) {
    f = speccc::ltl::until(speccc::ltl::ap("p" + std::to_string(i)), f);
  }
  for (auto _ : state) {
    auto nbw = speccc::automata::ltl_to_nbw(f);
    benchmark::DoNotOptimize(nbw.num_states());
  }
  state.SetComplexityN(depth);
}
BENCHMARK(BM_GpvwNestedUntil)->DenseRange(1, 6)->Unit(benchmark::kMicrosecond)->Complexity();

}  // namespace

BENCHMARK_MAIN();
