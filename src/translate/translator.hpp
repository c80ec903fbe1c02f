// Natural language to LTL translation (paper Section IV).
//
// Pipeline per requirement sentence:
//   1. parse with the structured-English grammar (nlp::parse_sentence);
//   2. extract atomic propositions in predicate_subject form, applying the
//      semantic-reasoning reductions of Section IV-D (available_pulse_wave
//      becomes pulse_wave, unavailable becomes a negation, ...);
//   3. instantiate the pattern templates of Section IV-C: conditional
//      subclauses become implications under G, "eventually"/future tense
//      becomes F, "until" becomes the weak-until template, "in t seconds"
//      becomes a chain of X operators.
//
// analyze() parses and runs the Section IV-D reasoning once per
// specification and reads the tick counts Theta off the parse; emit() then
// runs steps 2-3 once, with the Section IV-E abstraction's tick mapper
// already decided.
//
// The "next" subordinator: the grammar maps it to X, but the paper's own
// appendix drops it from every generated formula (Req-13.1, Req-20, Req-44,
// Req-48.4, ...). NextMode selects between the strict reading (kStrict, X)
// and appendix fidelity (kPaperAppendix, dropped); the default follows the
// appendix so the golden corpus matches the published formulas.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "ltl/formula.hpp"
#include "nlp/lexicon.hpp"
#include "nlp/syntax.hpp"
#include "semantics/antonyms.hpp"
#include "semantics/reasoning.hpp"
#include "util/digest.hpp"

namespace speccc::cache {
class Store;
}  // namespace speccc::cache

namespace speccc::translate {

enum class NextMode { kStrict, kPaperAppendix };

struct Options {
  NextMode next_mode = NextMode::kPaperAppendix;
  /// Apply Section IV-D semantic reasoning / proposition reduction.
  bool semantic_reasoning = true;
  /// Seconds per discrete tick before abstraction (paper: 1 second per X).
  unsigned seconds_per_tick = 1;
};

/// Maps a duration in ticks to the (possibly abstracted) number of X
/// operators. Identity when no abstraction has run.
using TickMapper = std::function<unsigned(unsigned)>;

struct RequirementText {
  std::string id;    // "Req-08"
  std::string text;  // the sentence
};

struct TranslatedRequirement {
  std::string id;
  std::string text;
  nlp::Sentence sentence;
  ltl::Formula formula;
  /// Tick counts of the timing constraints in this requirement (pre-mapping
  /// values, in ticks).
  std::vector<unsigned> delays;
};

/// The parse and reasoning of a specification: what emit() needs.
struct Analysis {
  std::vector<nlp::Sentence> sentences;  // one per requirement, in order
  semantics::ReasoningResult reasoning;  // empty without semantic_reasoning
  std::vector<std::uint32_t> thetas;  // == the emitted result's thetas()
};

/// Maps ascending thetas[i] to reduced[i], any other count to itself.
[[nodiscard]] TickMapper remap_ticks(std::vector<std::uint32_t> thetas,
                                     std::vector<std::uint32_t> reduced);

struct TranslationResult {
  std::vector<TranslatedRequirement> requirements;
  semantics::ReasoningResult reasoning;
  std::set<std::string> propositions;

  [[nodiscard]] std::vector<ltl::Formula> formulas() const;
  /// All distinct positive delay tick counts (the Theta set of Section IV-E).
  [[nodiscard]] std::vector<std::uint32_t> thetas() const;
};

class Translator {
 public:
  /// `cache` (optional, caller-owned, must outlive the translator) memoizes
  /// sentence parses across analyze() calls — the level-1 cache of
  /// cache/store.hpp, keyed by normalized sentence text plus this lexicon's
  /// fingerprint, so building a translator over an edited vocabulary
  /// invalidates by changing the key. The referenced lexicon must not be
  /// mutated while this translator is in use (already required for parse
  /// coherence; with a cache, the fingerprint is snapshotted here, so a
  /// later mutation would also serve parses under the stale key — make a
  /// new Translator per vocabulary instead, as core::Pipeline does).
  /// Parsing is a pure function of (text, lexicon): results are identical
  /// with or without a cache, only faster.
  Translator(const nlp::Lexicon& lexicon,
             const semantics::AntonymDictionary& dictionary,
             Options options = {}, cache::Store* cache = nullptr);

  /// Parse every sentence and reason over all of them (Algorithm 1 needs
  /// the whole specification).
  [[nodiscard]] Analysis analyze(
      const std::vector<RequirementText>& requirements) const;

  /// Steps 2-3, with `tick_mapper` (identity when null) on every deadline.
  /// `analysis` must come from analyze(requirements).
  [[nodiscard]] TranslationResult emit(
      Analysis analysis, const std::vector<RequirementText>& requirements,
      const TickMapper& tick_mapper = nullptr) const;

  /// emit(analyze(requirements), requirements, tick_mapper).
  [[nodiscard]] TranslationResult translate(
      const std::vector<RequirementText>& requirements,
      const TickMapper& tick_mapper = nullptr) const;

 private:
  [[nodiscard]] nlp::Sentence parse_cached(const std::string& text) const;

  const nlp::Lexicon& lexicon_;
  const semantics::AntonymDictionary& dictionary_;
  Options options_;
  cache::Store* cache_ = nullptr;
  util::Digest lexicon_fingerprint_;  // computed once iff cache_ is set
};

}  // namespace speccc::translate
