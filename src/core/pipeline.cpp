#include "core/pipeline.hpp"

#include <functional>

#include "automata/emptiness.hpp"
#include "ltl/rewrite.hpp"

#include "util/diagnostics.hpp"

namespace speccc::core {

namespace {

/// One memoized step of Pipeline::run. Without a store it is compute().
/// With one, key() is built and looked up through find; a miss is
/// computed and stored through put. find and put are invoked on the store.
template <typename Key, typename Find, typename Put, typename Compute>
auto memoized(cache::Store* store, const Key& key, const Find& find,
              const Put& put, const Compute& compute) {
  using Value = decltype(compute());
  if (store == nullptr) return compute();
  const util::Digest digest = key();
  if (auto hit = std::invoke(find, *store, digest)) {
    return Value(*std::move(hit));
  }
  Value value = compute();
  std::invoke(put, *store, digest, value);
  return value;
}

}  // namespace

Pipeline::Pipeline(PipelineOptions options)
    : options_(std::move(options)),
      lexicon_(options_.lexicon.value_or(nlp::Lexicon::builtin())),
      dictionary_(
          options_.dictionary.value_or(semantics::AntonymDictionary::builtin())),
      translator_(lexicon_, dictionary_, options_.translation,
                  options_.cache.get()) {
  // Auto stage 2, refinement and the diag oracle all take
  // options_.synthesis: its engines poll as a solo substrate does.
  if (options_.cancelled) {
    options_.synthesis.symbolic.cancelled = options_.cancelled;
    options_.synthesis.bounded.cancelled = options_.cancelled;
  }
}

PipelineResult Pipeline::run(
    const std::string& name,
    const std::vector<translate::RequirementText>& requirements,
    const SubstrateSpec* substrate_override) const {
  PipelineResult result;
  result.name = name;

  const auto poll_cancel = [&](const char* stage) {
    if (options_.cancelled && options_.cancelled()) {
      throw util::CancelledError("pipeline run '" + name +
                                 "' cancelled before " + stage);
    }
  };

  cache::Store* const store = options_.cache.get();

  // ---- Stage 1: translation ---------------------------------------------------
  poll_cancel("translation");
  util::Stopwatch stage1;
  translate::Analysis analysis = translator_.analyze(requirements);

  // Time abstraction: Theta is known from the parse, so the formulas are
  // built once, with the reduced tick counts.
  translate::TickMapper mapper;
  if (options_.time_abstraction && !analysis.thetas.empty()) {
    timeabs::Request request;
    request.thetas = analysis.thetas;
    request.error_budget = options_.error_budget;
    // The cache key folds the encoder only for the SMT backend (as an
    // offset past the backend enum), so enumeration-backed keys -- and the
    // pinned snapshot digests built on them -- are unchanged. Distinct
    // keys per encoder keep the cross-encoder smoke honest: each lane
    // computes its own abstraction instead of reusing the other's entry.
    int key_backend = static_cast<int>(options_.timeabs_backend);
    if (options_.timeabs_backend == timeabs::Backend::kSmt &&
        options_.smt_encoder == timeabs::SmtEncoder::kTseitin) {
      key_backend += 2;
    }
    const std::optional<timeabs::Abstraction> abstraction = memoized(
        store, [&] { return cache::abstraction_key(request, key_backend); },
        &cache::Store::find_abstraction,
        [](cache::Store& s, const util::Digest& key,
           const std::optional<timeabs::Abstraction>& computed) {
          if (computed.has_value()) s.put_abstraction(key, *computed);
        },
        [&] {
          return timeabs::optimize(request, options_.timeabs_backend,
                                   options_.smt_encoder);
        });
    speccc_check(abstraction.has_value(), "abstraction always has d=1 fallback");
    result.abstraction = abstraction;
    mapper = translate::remap_ticks(std::move(request.thetas),
                                    abstraction->reduced);
  }
  result.translation =
      translator_.emit(std::move(analysis), requirements, mapper);

  const std::vector<ltl::Formula> formulas = result.translation.formulas();
  result.partition = partition::unify(formulas, options_.partition_overrides);
  result.translation_seconds = stage1.seconds();

  // ---- Stage 2: realizability -------------------------------------------------
  poll_cancel("synthesis");
  const synth::IoSignature signature = partition::signature(result.partition);

  // The per-run override beats the configured spec.
  const SubstrateSpec& effective =
      substrate_override != nullptr ? *substrate_override : options_.substrate;

  // Stage-2 dispatch. Auto takes synth::synthesize (and the pre-substrate
  // cache key, so warmed stores stay valid); solo and race go through the
  // registry. Any spec yields the same canonical verdict -- the substrates
  // agree (core/substrate.hpp), and a race tie-breaks deterministically --
  // so only timings and diagnostics differ.
  const auto check_realizability = [&]() -> synth::SynthesisResult {
    if (effective.is_auto()) {
      return synth::synthesize(formulas, signature, options_.synthesis);
    }
    if (effective.mode == SubstrateSpec::Mode::kSolo) {
      const Substrate* substrate =
          SubstrateRegistry::global().find(effective.substrates.front());
      speccc_check(substrate != nullptr, "spec names a registered substrate");
      return substrate->check(formulas, signature, options_.synthesis,
                              options_.cancelled);
    }
    PortfolioStats stats;
    synth::SynthesisResult raced =
        PortfolioRunner(SubstrateRegistry::global(), effective)
            .run(formulas, signature, options_.synthesis, options_.cancelled,
                 &stats);
    result.portfolio = std::move(stats);
    return raced;
  };

  util::Stopwatch stage2;
  // Verdict and engine statistics are pure functions of the key; the
  // result's embedded `seconds` is the original computation's timing (the
  // caller-visible stage clock below is always fresh). Non-auto specs
  // fold the spec string into the key: a tableau abstention and a raced
  // verdict are different computations than auto's.
  result.synthesis = memoized(
      store,
      [&] {
        return effective.is_auto()
                   ? cache::synthesis_key(formulas, signature,
                                          options_.synthesis)
                   : cache::synthesis_key(formulas, signature,
                                          options_.synthesis,
                                          effective.to_string());
      },
      &cache::Store::find_synthesis, &cache::Store::put_synthesis,
      check_realizability);
  result.synthesis_seconds = stage2.seconds();
  result.consistent =
      result.synthesis.verdict == synth::Realizability::kRealizable;

  // ---- Stage 3: refinement loop -------------------------------------------------
  if (!result.consistent && options_.refine_on_failure) {
    poll_cancel("refinement");
    util::Stopwatch stage3;
    result.refinement = memoized(
        store,
        [&] {
          return cache::refinement_key(formulas, signature, options_.synthesis,
                                       options_.localization);
        },
        &cache::Store::find_refinement, &cache::Store::put_refinement, [&] {
          return refine::refine(formulas, result.partition, options_.synthesis,
                                options_.localization);
        });
    result.refinement_seconds = stage3.seconds();
    if (result.refinement->consistent) {
      result.consistent = true;
      result.partition = result.refinement->partition;
    }
  }

  // ---- Satisfiability screen --------------------------------------------------
  // A spec realizable under any partition has a satisfiable conjunction, so
  // only an inconsistent spec can hold an unsatisfiable requirement: the
  // screen runs for those alone. The tableau is exponential in Next-chain
  // depth, so options_.cancelled is polled throughout its construction.
  if (!result.consistent && options_.satisfiability_check) {
    poll_cancel("satisfiability screen");
    util::Stopwatch screen;
    for (const auto& req : result.translation.requirements) {
      if (ltl::max_next_chain(req.formula) > options_.satisfiability_chain_cap) {
        continue;
      }
      const bool satisfiable = memoized(
          store, [&] { return cache::satisfiability_key(req.formula); },
          &cache::Store::find_satisfiable, &cache::Store::put_satisfiable,
          [&] {
            return automata::satisfiable(req.formula, options_.cancelled);
          });
      if (!satisfiable) {
        result.unsatisfiable_requirements.push_back(req.id);
      }
    }
    result.screen_seconds = screen.seconds();
  }
  return result;
}

}  // namespace speccc::core
