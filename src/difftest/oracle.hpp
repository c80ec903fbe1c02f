// Cross-check properties over the three decision substrates.
//
// The consistency verdict of the paper rests on independent engines
// agreeing: the GPVW tableau decides LTL satisfiability, bounded synthesis
// decides realizability by explicit safety games, and the symbolic engine
// decides it by BDD fixpoints over pattern monitors. The oracle pits them
// against each other and against the textbook lasso semantics of
// ltl/trace.hpp:
//
//   check_formula(f):
//     * a satisfiability witness for f (and for !f) must satisfy the
//       formula under trace evaluation;
//     * f and !f cannot both be unsatisfiable;
//     * for random lassos L: evaluate(f, L) != evaluate(!f, L), a lasso
//       satisfying f refutes "f unsatisfiable", and a lasso refuting f
//       refutes "f valid".
//
//   check_spec(spec, signature):
//     * bounded and symbolic synthesis must not return opposite definite
//       realizability verdicts (kUnknown never counts as disagreement);
//     * a definite kRealizable from either engine implies every requirement
//       within the pipeline's default satisfiability_chain_cap is
//       tableau-satisfiable (why core::Pipeline screens inconsistent
//       specifications only);
//     * every extracted Mealy controller must model-check (synth/verify)
//       against the conjoined specification and each requirement;
//     * controllers replayed on random input lassos must produce traces
//       satisfying every requirement under trace evaluation.
//
// The trace evaluator is injectable so tests can plant a broken substrate
// and watch the harness catch and shrink it.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "difftest/random.hpp"
#include "ltl/formula.hpp"
#include "ltl/trace.hpp"
#include "synth/bounded.hpp"
#include "synth/mealy.hpp"
#include "translate/translator.hpp"

namespace speccc::difftest {

/// Trace-evaluation substrate. Null means ltl::evaluate.
using Evaluator = std::function<bool(ltl::Formula, const ltl::Lasso&)>;

struct OracleOptions {
  /// Random lassos evaluated per formula (tableau vs. trace cross-check).
  int lassos_per_formula = 4;
  /// Give up on a formula case when its tableau exceeds this many nodes:
  /// GPVW is exponential, and a rare adversarial draw (deeply nested W/R)
  /// must not stall the whole run. Skips are counted, never silent.
  std::size_t max_tableau_nodes = 2'000;
  LassoConfig lasso;
  /// Random input replays per extracted controller.
  int replays_per_controller = 2;
  /// Exhaustive model checking (synth/verify) of a controller is an
  /// explicit product construction; controllers above this state count
  /// are checked by random replay only (monitor compositions can reach
  /// tens of thousands of states, where the product no longer terminates
  /// in reasonable time).
  std::size_t max_verify_states = 1'000;
  /// The k and arena caps keep pathological X-chain conjunctions
  /// time-bounded: the bounded engine degrades to kUnknown (never counted
  /// as a disagreement) instead of exploring millions of counter
  /// positions. Generated realizable specs decide at k <= 2 in practice.
  synth::BoundedOptions bounded = {.max_k = 4,
                                   .max_game_positions = 20'000,
                                   .max_ucw_states = 150,
                                   .cancelled = {}};
  Evaluator evaluate;  // test injection point; defaults to ltl::evaluate
};

/// Cross-check one formula. Returns a description of the first violated
/// property, or nullopt when every property holds. Deterministic given the
/// rng state. When the tableau of f or !f exceeds max_tableau_nodes the
/// case is skipped (nullopt) and *skipped, if given, is set.
[[nodiscard]] std::optional<std::string> check_formula(
    ltl::Formula f, util::Rng& rng, const OracleOptions& options = {},
    bool* skipped = nullptr);

/// A realizability test case: requirement formulas plus the input/output
/// signature both synthesis engines must agree on.
struct SpecCase {
  std::vector<ltl::Formula> requirements;
  synth::IoSignature signature;
};

/// Stage-1 pipeline over generated requirement sentences: translate with
/// the builtin lexicon/dictionary, abstract timing constants (so "in 120
/// seconds" does not bury the bounded engine in Next chains), and derive
/// the input/output partition.
[[nodiscard]] SpecCase build_spec_case(
    const std::vector<translate::RequirementText>& texts);

/// Cross-check one specification across both synthesis engines. Returns a
/// description of the first violated property, or nullopt.
[[nodiscard]] std::optional<std::string> check_spec(
    const SpecCase& spec, util::Rng& rng, const OracleOptions& options = {});

}  // namespace speccc::difftest
