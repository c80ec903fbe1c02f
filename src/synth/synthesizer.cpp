#include "synth/synthesizer.hpp"

#include "util/diagnostics.hpp"

namespace speccc::synth {

namespace {

void require_nonempty(const std::vector<ltl::Formula>& requirements) {
  if (requirements.empty()) {
    throw util::InvalidInputError("cannot synthesize from an empty specification");
  }
}

}  // namespace

std::optional<SynthesisResult> try_symbolic(
    const std::vector<ltl::Formula>& requirements, const IoSignature& signature,
    const SymbolicOptions& options) {
  require_nonempty(requirements);
  util::Stopwatch timer;
  const auto outcome = symbolic_synthesize(requirements, signature, options);
  if (!outcome.has_value()) return std::nullopt;
  SynthesisResult result;
  result.verdict = outcome->verdict;
  result.engine_used = Engine::kSymbolic;
  result.substrate_used = "symbolic";
  result.state_bits = outcome->state_bits;
  result.peak_bdd_nodes = outcome->peak_bdd_nodes;
  result.bdd_stats = outcome->bdd_stats;
  result.iterations = outcome->fixpoint_iterations;
  result.controller = outcome->controller;
  result.seconds = timer.seconds();
  return result;
}

SynthesisResult run_bounded(const std::vector<ltl::Formula>& requirements,
                            const IoSignature& signature,
                            const BoundedOptions& options) {
  require_nonempty(requirements);
  util::Stopwatch timer;
  const auto outcome =
      bounded_synthesize(ltl::land(requirements), signature, options);
  SynthesisResult result;
  result.verdict = outcome.verdict;
  result.engine_used = Engine::kBounded;
  result.substrate_used = "bounded";
  result.ucw_states = outcome.ucw_states;
  result.game_positions = outcome.game_positions;
  result.iterations = outcome.k_used;
  result.controller = outcome.controller;
  result.seconds = timer.seconds();
  return result;
}

SynthesisResult synthesize(const std::vector<ltl::Formula>& requirements,
                           const IoSignature& signature,
                           const SynthesisOptions& options) {
  if (auto result = try_symbolic(requirements, signature, options.symbolic)) {
    return *result;
  }
  return run_bounded(requirements, signature, options.bounded);
}

}  // namespace speccc::synth
