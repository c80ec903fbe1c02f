// speccc_cnf: dump the CNF the solver would see as DIMACS.
//
// Builds one of a few canonical instances through the full
// smt::Builder -> AIG -> CNF stack and writes the emitted clause set in
// DIMACS format, so the encodings can be inspected, diffed, or fed to an
// external SAT solver. The cut-based mapper is the default lane;
// --tseitin switches to the per-gate fallback, which is the easiest way
// to see what the mapper buys:
//
//   $ ./speccc_cnf --multiplier 8 -o mapped.cnf
//   $ ./speccc_cnf --multiplier 8 --tseitin -o tseitin.cnf
//
// Instances:
//   --multiplier W    factor 221 over two W-bit operands (SAT; the
//                     BM_SmtMultiplier instance)
//   --miter W         x*y == y*x commutativity miter over W bits (UNSAT)
//   --pigeonhole N    PHP(N, N-1), native clauses without the AIG stack
//                     (UNSAT; calibrates raw-solver comparisons)
//
// Options:
//   --tseitin         per-gate Tseitin encoding instead of the cut mapper
//   --cut-size K      cut width for the mapper (2..6, default 4)
//   --solve           also solve the instance; the verdict and solver
//                     stats go to stderr, the exit code stays 0
//   -o FILE           write to FILE instead of stdout
//
// Exit code: 0 on success, 2 on usage errors.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "aig/cnf.hpp"
#include "sat/solver.hpp"
#include "smt/bitblast.hpp"
#include "util/args.hpp"

namespace {

namespace aig = speccc::aig;
namespace sat = speccc::sat;
namespace smt = speccc::smt;

int usage() {
  std::cerr << "usage: speccc_cnf (--multiplier W | --miter W | --pigeonhole N)\n"
               "                  [--tseitin] [--cut-size K] [--solve] [-o FILE]\n";
  return 2;
}

/// Collects everything the Builder sends to the solver, for the dump.
class CollectSink : public aig::ClauseSink {
 public:
  int new_var() override { return num_vars_++; }
  void add_clause(const sat::Clause& clause) override {
    clauses_.push_back(clause);
  }

  [[nodiscard]] int num_vars() const { return num_vars_; }
  [[nodiscard]] const std::vector<sat::Clause>& clauses() const {
    return clauses_;
  }

 private:
  int num_vars_ = 0;
  std::vector<sat::Clause> clauses_;
};

void write_dimacs(std::ostream& out, const std::string& comment, int num_vars,
                  const std::vector<sat::Clause>& clauses) {
  out << "c " << comment << "\n";
  out << "p cnf " << num_vars << " " << clauses.size() << "\n";
  for (const sat::Clause& clause : clauses) {
    for (const sat::Lit l : clause) {
      // DIMACS variables are 1-based; negative numbers negate.
      out << (l.positive() ? l.var() + 1 : -(l.var() + 1)) << " ";
    }
    out << "0\n";
  }
}

void build_multiplier(smt::Builder& b, std::size_t width) {
  const smt::BitVec x = b.var(width);
  const smt::BitVec y = b.var(width);
  b.require_eq(b.mul(x, y), b.constant(221, 2 * width));
  b.require(b.ule(b.constant(2, width), x));
  b.require(b.ule(b.constant(2, width), y));
}

void build_miter(smt::Builder& b, std::size_t width) {
  const smt::BitVec x = b.var(width);
  const smt::BitVec y = b.var(width);
  b.require(b.eq(b.mul(x, y), b.mul(y, x)).negated());
}

void build_pigeonhole(CollectSink& sink, sat::Solver& solver, int pigeons) {
  const int holes = pigeons - 1;
  std::vector<std::vector<int>> var(static_cast<std::size_t>(pigeons));
  for (auto& row : var) {
    for (int j = 0; j < holes; ++j) {
      row.push_back(solver.new_var());
      (void)sink.new_var();
    }
  }
  const auto add = [&](sat::Clause clause) {
    sink.add_clause(clause);
    solver.add_clause(std::move(clause));
  };
  for (int i = 0; i < pigeons; ++i) {
    sat::Clause clause;
    for (int j = 0; j < holes; ++j) {
      clause.push_back(sat::Lit(
          var[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)], true));
    }
    add(std::move(clause));
  }
  for (int j = 0; j < holes; ++j) {
    for (int a = 0; a < pigeons; ++a) {
      for (int b = a + 1; b < pigeons; ++b) {
        add({sat::Lit(var[static_cast<std::size_t>(a)][static_cast<std::size_t>(j)],
                      false),
             sat::Lit(var[static_cast<std::size_t>(b)][static_cast<std::size_t>(j)],
                      false)});
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  enum class Instance { kNone, kMultiplier, kMiter, kPigeonhole };
  Instance instance = Instance::kNone;
  long long size = 0;
  bool tseitin = false;
  bool solve = false;
  int cut_size = 4;
  std::string out_path;

  try {
    speccc::util::Args args(argc, argv);
    while (args.advance()) {
      const std::string& arg = args.flag();
      if (arg == "--multiplier") {
        instance = Instance::kMultiplier;
        size = args.number(1LL);
      } else if (arg == "--miter") {
        instance = Instance::kMiter;
        size = args.number(1LL);
      } else if (arg == "--pigeonhole") {
        instance = Instance::kPigeonhole;
        size = args.number(2LL);
      } else if (arg == "--tseitin") {
        tseitin = true;
      } else if (arg == "--cut-size") {
        cut_size = args.number(2, 6);  // truth tables are 64-bit, so k <= 6
      } else if (arg == "--solve") {
        solve = true;
      } else if (arg == "-o") {
        out_path = args.next();
      } else {
        throw speccc::util::UsageError("unknown option: " + arg);
      }
    }
  } catch (const speccc::util::UsageError& e) {
    std::cerr << e.what() << "\n";
    return usage();
  }
  if (instance == Instance::kNone) {
    std::cerr << "pick an instance: --multiplier, --miter, or --pigeonhole\n";
    return usage();
  }

  sat::Solver solver;
  CollectSink collected;
  std::string comment;

  if (instance == Instance::kPigeonhole) {
    build_pigeonhole(collected, solver, static_cast<int>(size));
    comment = "speccc pigeonhole PHP(" + std::to_string(size) + "," +
              std::to_string(size - 1) + ")";
  } else {
    smt::BuilderOptions options;
    options.cnf.encoder = tseitin ? aig::CnfOptions::Encoder::kTseitin
                                  : aig::CnfOptions::Encoder::kCutMap;
    options.cnf.cut_size = cut_size;
    options.tee = &collected;
    smt::Builder builder(solver, options);
    const auto width = static_cast<std::size_t>(size);
    if (instance == Instance::kMultiplier) {
      build_multiplier(builder, width);
      comment = "speccc multiplier w" + std::to_string(size);
    } else {
      build_miter(builder, width);
      comment = "speccc commutativity miter w" + std::to_string(size);
    }
    builder.flush();
    comment += tseitin ? " (tseitin)"
                       : " (cut-mapped, k=" + std::to_string(cut_size) + ")";
    const aig::CnfStats& stats = builder.cnf_stats();
    std::cerr << "vars " << collected.num_vars() << ", clauses "
              << collected.clauses().size() << ", literals " << stats.literals
              << ", mapped gates " << stats.mapped_gates << "/"
              << stats.covered_gates << " covered\n";
  }

  if (out_path.empty()) {
    write_dimacs(std::cout, comment, collected.num_vars(),
                 collected.clauses());
  } else {
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "cannot open " << out_path << "\n";
      return 2;
    }
    write_dimacs(out, comment, collected.num_vars(), collected.clauses());
  }

  if (solve) {
    const sat::Result result = solver.solve();
    const sat::Solver::Stats& stats = solver.stats();
    std::cerr << (result == sat::Result::kSat ? "s SATISFIABLE"
                                              : "s UNSATISFIABLE")
              << " (conflicts " << stats.conflicts << ", decisions "
              << stats.decisions << ", propagations " << stats.propagations
              << ")\n";
  }
  return 0;
}
