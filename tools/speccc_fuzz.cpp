// speccc_fuzz: the standing differential oracle for the three decision
// substrates (GPVW tableau, bounded synthesis, symbolic BDD game).
//
// Draws seeded random LTL formulas and generated specifications, runs the
// cross-check properties of difftest/oracle.hpp, and greedily shrinks any
// disagreement before reporting it. A third lane draws seeded random
// circuits and cross-checks the two AIG -> CNF encoders (cut mapper vs
// Tseitin) for equisatisfiability plus model replay (difftest/circuit.hpp).
// Every failure prints a one-command reproduction; re-running it replays
// generation, oracle randomness, and shrinking bit-for-bit.
//
//   $ ./speccc_fuzz --seed 42 --formulas 500 --specs 50
//
// Options:
//   --seed N          master seed (default 1)
//   --formulas N      random formula cases (default 500)
//   --specs N         generated specification cases (default 50)
//   --circuits N      random circuit encoder cross-checks (default 50)
//   --formula-case K  replay only formula case K
//   --spec-case K     replay only spec case K
//   --circuit-case K  replay only circuit case K
//   --max-depth D     formula depth budget (default 4)
//   --props N         proposition pool size (default 3)
//   --lassos N        random lassos per formula (default 4)
//   --no-shrink       report raw counterexamples without minimizing
//   --quiet           suppress progress narration
//
// Exit code: 0 when every cross-check holds and the formula quota was
// met, 1 on any disagreement, 2 on usage errors, 3 when mass tableau-cap
// skips left the quota unmet (a green exit must mean real coverage).
#include <cstdint>
#include <iostream>
#include <string>

#include "difftest/circuit.hpp"
#include "difftest/harness.hpp"
#include "util/args.hpp"

namespace {

int usage() {
  std::cerr << "usage: speccc_fuzz [--seed N] [--formulas N] [--specs N]\n"
               "                   [--circuits N] [--formula-case K]\n"
               "                   [--spec-case K] [--circuit-case K]\n"
               "                   [--max-depth D] [--props N] [--lassos N]\n"
               "                   [--no-shrink] [--quiet]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace speccc;
  difftest::RunOptions options;
  options.progress = &std::cerr;
  std::size_t props = 0;
  int circuit_cases = 50;
  int only_circuit_case = -1;

  try {
    util::Args args(argc, argv);
    while (args.advance()) {
      const std::string& arg = args.flag();
      if (arg == "--seed") {
        options.seed = args.number(std::uint64_t{0});
      } else if (arg == "--formulas") {
        options.formula_cases = args.number(0);
      } else if (arg == "--specs") {
        options.spec_cases = args.number(0);
      } else if (arg == "--formula-case") {
        options.only_formula_case = args.number(0);
      } else if (arg == "--circuits") {
        circuit_cases = args.number(0);
      } else if (arg == "--spec-case") {
        options.only_spec_case = args.number(0);
      } else if (arg == "--circuit-case") {
        only_circuit_case = args.number(0);
      } else if (arg == "--max-depth") {
        options.formula.max_depth = args.number(std::size_t{1});
      } else if (arg == "--props") {
        props = args.number(std::size_t{1});
      } else if (arg == "--lassos") {
        options.oracle.lassos_per_formula = args.number(1);
      } else if (arg == "--no-shrink") {
        options.shrink = false;
      } else if (arg == "--quiet") {
        options.progress = nullptr;
      } else {
        throw util::UsageError("unknown option: " + arg);
      }
    }
  } catch (const util::UsageError& e) {
    std::cerr << e.what() << "\n";
    return usage();
  }
  if (props > 0) {
    // The formula pool and the lasso pool must match, or the random-lasso
    // cross-checks would starve formulas of their propositions.
    options.formula.props = difftest::proposition_pool(props);
    options.oracle.lasso.props = options.formula.props;
  }

  // Single-case replay discipline matches the harness: replaying one case
  // of any lane runs nothing else.
  const bool single_case = options.only_formula_case >= 0 ||
                           options.only_spec_case >= 0 ||
                           only_circuit_case >= 0;
  difftest::RunReport report;
  if (only_circuit_case < 0 || options.only_formula_case >= 0 ||
      options.only_spec_case >= 0) {
    report = difftest::run(options);
    std::cout << difftest::describe(report);
  }

  difftest::CircuitReport circuits;
  if (!single_case || only_circuit_case >= 0) {
    if (options.progress != nullptr) {
      *options.progress << "circuit encoder cross-checks...\n";
    }
    const int cases = only_circuit_case >= 0 ? only_circuit_case + 1
                                             : circuit_cases;
    circuits = difftest::run_circuits(options.seed, cases, {},
                                      only_circuit_case);
    std::cout << difftest::describe(circuits);
  }

  if (!report.ok() || !circuits.ok()) {
    std::cout << "\ndifferential check FAILED\n";
    return 1;
  }
  // A green run must mean the quota was met: mass skips at the tableau cap
  // (e.g. a GPVW regression inflating node counts) must not pass CI.
  if (!single_case && report.formulas_checked < options.formula_cases) {
    std::cout << "formula quota MISSED: " << report.formulas_checked << "/"
              << options.formula_cases << " checked ("
              << report.formulas_skipped
              << " skipped at the tableau cap); raise --max-depth caps or "
                 "OracleOptions::max_tableau_nodes\n";
    return 3;
  }
  std::cout << "all substrates agree\n";
  return 0;
}
