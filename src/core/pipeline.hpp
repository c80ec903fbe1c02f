// The SpecCC pipeline (paper Fig. 1): the paper's primary contribution,
// wiring the three stages into the requirement-consistency maintenance loop.
//
//   stage 1: structured English -> LTL (translation + semantic reasoning +
//            time abstraction + input/output partition);
//   stage 2: realizability checking via synthesis;
//   stage 3: heuristic refinement on failure (inconsistency localization and
//            partition adjustment), feeding back into stage 2.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/store.hpp"
#include "core/portfolio.hpp"
#include "partition/partition.hpp"
#include "refine/refine.hpp"
#include "semantics/antonyms.hpp"
#include "synth/synthesizer.hpp"
#include "timeabs/abstraction.hpp"
#include "translate/translator.hpp"

namespace speccc::core {

struct PipelineOptions {
  translate::Options translation;
  /// Section IV-E: rewrite Next chains with the optimal divisor abstraction.
  bool time_abstraction = true;
  std::uint32_t error_budget = 5;  // the paper's B
  timeabs::Backend timeabs_backend = timeabs::Backend::kEnumeration;
  /// CNF encoder when timeabs_backend is kSmt (cut-mapped by default; the
  /// Tseitin lane exists for cross-checking). Canonical output is
  /// byte-identical across encoders -- the abstraction is unique.
  timeabs::SmtEncoder smt_encoder = timeabs::SmtEncoder::kCutMap;
  synth::SynthesisOptions synthesis;
  /// Stage-2 decision substrate(s): "auto" (synth::synthesize: symbolic
  /// when applicable, else bounded), a solo substrate name, or
  /// "race:a,b,..." for first-verdict-wins portfolio racing
  /// (core/substrate.hpp). Canonical output is byte-identical for every
  /// spec (the substrates agree; see core/portfolio.hpp).
  SubstrateSpec substrate;
  partition::Overrides partition_overrides;
  /// Stage 3: run localization + partition adjustment when unrealizable.
  bool refine_on_failure = true;
  /// Stage-3 localization knob: how many minimal correction sets to
  /// enumerate for genuinely inconsistent specifications.
  refine::LocalizeOptions localization;
  /// Flag individually unsatisfiable requirements (automata::satisfiable:
  /// a constant-lasso witness first, tableau emptiness for the rest). The
  /// screen runs after stages 2/3 and only when the specification ends up
  /// inconsistent: a realizable specification has no unsatisfiable
  /// requirement. Requirements whose abstracted Next chains still exceed
  /// satisfiability_chain_cap are skipped (the tableau is exponential in
  /// the chain length).
  bool satisfiability_check = true;
  std::size_t satisfiability_chain_cap = 12;
  /// Custom vocabulary; defaults to the builtins (see corpus/loaders.hpp for
  /// file-based extension).
  std::optional<nlp::Lexicon> lexicon;
  std::optional<semantics::AntonymDictionary> dictionary;
  /// Cooperative cancellation: polled at stage boundaries and inside every
  /// engine after stage 1 (stage 2 under any substrate spec, stage 3, the
  /// satisfiability screen); the constructor copies a non-null predicate
  /// into synthesis.{symbolic,bounded}.cancelled. When it returns true the
  /// run throws util::CancelledError and caches nothing for the stage it
  /// interrupted. Null means never cancelled.
  std::function<bool()> cancelled;
  /// Cross-spec memoization (cache/store.hpp); null disables caching.
  /// The store is thread-safe and content-addressed: share ONE store
  /// across pipelines and batch workers (batch does this automatically
  /// when this option is set). Every cached computation is a pure
  /// function of its key, so results are identical with the cache on or
  /// off — only wall-clock changes.
  std::shared_ptr<cache::Store> cache;
};

struct PipelineResult {
  std::string name;
  translate::TranslationResult translation;
  std::optional<timeabs::Abstraction> abstraction;
  partition::Partition partition;       // final partition (post-refinement)
  synth::SynthesisResult synthesis;     // the initial stage-2 verdict
  /// Per-racer diagnostics when stage 2 actually raced (kRace spec, cache
  /// miss). Non-canonical: which racer wins is timing-dependent.
  std::optional<PortfolioStats> portfolio;
  std::optional<refine::RefinementOutcome> refinement;
  /// Requirements that are unsatisfiable on their own (no implementation of
  /// the whole specification can exist). Filled by the satisfiability
  /// screen, which runs only for inconsistent specifications.
  std::vector<std::string> unsatisfiable_requirements;
  /// Realizable, possibly after refinement (the paper's "consistent").
  bool consistent = false;
  double translation_seconds = 0.0;  // stage 1 wall clock
  double synthesis_seconds = 0.0;    // stage 2 wall clock (Table I column)
  double refinement_seconds = 0.0;   // stage 3 wall clock
  double screen_seconds = 0.0;       // satisfiability screen wall clock

  [[nodiscard]] std::size_t num_formulas() const {
    return translation.requirements.size();
  }
  [[nodiscard]] std::size_t num_inputs() const { return partition.inputs.size(); }
  [[nodiscard]] std::size_t num_outputs() const { return partition.outputs.size(); }
};

class Pipeline {
 public:
  Pipeline() : Pipeline(PipelineOptions{}) {}
  explicit Pipeline(PipelineOptions options);

  // Not copyable/movable: the translator member refers to the pipeline's
  // own lexicon/dictionary (prvalue returns still work via elision).
  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// Run the full loop on a named specification. `substrate_override`
  /// (serve's per-request "substrate" field) replaces options().substrate
  /// for this run only; not owned, may be null.
  [[nodiscard]] PipelineResult run(
      const std::string& name,
      const std::vector<translate::RequirementText>& requirements,
      const SubstrateSpec* substrate_override = nullptr) const;

  [[nodiscard]] const PipelineOptions& options() const { return options_; }

 private:
  PipelineOptions options_;
  nlp::Lexicon lexicon_;
  semantics::AntonymDictionary dictionary_;
  // Built once: with a cache attached, construction also fingerprints the
  // lexicon (the level-1 key component), which must not recur per run.
  translate::Translator translator_;
};

}  // namespace speccc::core
