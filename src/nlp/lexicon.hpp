// Lexicon and morphology for the structured-English subset (Section IV-B).
//
// This (together with the grammar parser in syntax.hpp) is the stand-in for
// the Stanford NLP parser: the paper restricts requirements to a controlled
// grammar, so a purpose-built lexicon + morphological analyzer + rule tagger
// produce exactly the grammatical ingredients the translator needs.
//
// The built-in vocabulary covers the CARA, TELEPROMISE and rescue-robot
// corpora plus the closed-class words of the grammar; open-class words
// outside the lexicon are categorized by suffix heuristics, so reasonable
// unseen requirements still parse.
#pragma once

#include <bit>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/digest.hpp"

namespace speccc::nlp {

enum class Pos {
  kNoun,
  kVerb,         // lexical verb (any inflection; lemma provided separately)
  kBe,           // is/are/was/were/be/been/being
  kModal,        // shall should will would can could must may
  kAdjective,
  kAdverb,       // includes the grammar's modifiers (eventually, always...)
  kDeterminer,   // the a an ...
  kSubordinator, // if when whenever once while after before until next
  kConjunction,  // and or
  kPreposition,  // in at to of ...
  kNegation,     // not, no
  kPronoun,      // it
  kNumber,       // 3, 180, ...
  kTimeUnit,     // second(s), minute(s), tick(s)
  kMarker,       // discourse fillers ignored by the grammar: then, also
  kComma,
  kPeriod,
  kUnknown,
};

[[nodiscard]] const char* pos_name(Pos pos);

/// A set of parts of speech, one bit per Pos. Its order (and so first())
/// is the enum order, the order std::set<Pos> kept.
class PosSet {
 public:
  void insert(Pos pos) { bits_ |= 1u << static_cast<unsigned>(pos); }
  [[nodiscard]] bool contains(Pos pos) const {
    return (bits_ >> static_cast<unsigned>(pos) & 1u) != 0;
  }
  [[nodiscard]] bool empty() const { return bits_ == 0; }
  [[nodiscard]] int size() const { return std::popcount(bits_); }
  /// The lowest member; the set must not be empty.
  [[nodiscard]] Pos first() const { return static_cast<Pos>(std::countr_zero(bits_)); }
  /// fn(pos) for each member, lowest first.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (unsigned rest = bits_; rest != 0; rest &= rest - 1) {
      fn(static_cast<Pos>(std::countr_zero(rest)));
    }
  }

 private:
  unsigned bits_ = 0;
};

/// Verb tense surface form.
enum class VerbForm { kBase, kThirdPerson, kPast, kPastParticiple, kGerund };

struct VerbAnalysis {
  std::string lemma;
  VerbForm form = VerbForm::kBase;
};

/// The vocabulary: one table from lower-case word to its entry. Every
/// query takes a word that is already lower case (the tokenizer is the
/// only place that lower-cases; the add* methods lower-case on insert),
/// so a query costs one probe per candidate form and allocates nothing
/// but a returned lemma. The table holds no mutable state: one const
/// Lexicon is safe to share across threads.
class Lexicon {
 public:
  struct Entry {
    PosSet pos;                               // parts of speech as listed
    bool verb_lemma = false;                  // a base form for morphology
    std::optional<VerbAnalysis> irregular;    // "lost" -> lose, past participle
  };

  /// The built-in vocabulary (CARA + TELEPROMISE + robot + closed classes).
  static Lexicon builtin();

  /// Empty lexicon (tests compose their own).
  Lexicon() = default;

  void add(std::string_view word, Pos pos);
  void add_verb(std::string_view lemma);
  /// Register an irregular inflection (e.g. "lost" -> lemma "lose").
  void add_irregular_verb(std::string_view form, std::string_view lemma,
                          VerbForm verb_form);

  /// All parts of speech a lower-case surface form can take (lexicon +
  /// morphology + numbers and time units, else a suffix guess).
  [[nodiscard]] PosSet lookup(std::string_view word) const;

  /// Morphological analysis of a lower-case, possibly inflected verb form;
  /// nullopt if the word cannot be a verb.
  [[nodiscard]] std::optional<VerbAnalysis> analyze_verb(std::string_view word) const;

  /// Time units to seconds multiplier (second=1, minute=60, ...); nullopt
  /// when the lower-case word is not a time unit.
  [[nodiscard]] std::optional<unsigned> time_unit_seconds(std::string_view word) const;

  /// Every listed word with its entry, in byte order of the word.
  [[nodiscard]] std::vector<std::pair<std::string_view, const Entry*>> entries() const;

  /// Stable content fingerprint of the vocabulary (words with their part
  /// of speech sets, verb lemmas, irregular inflections), independent of
  /// insertion order, process, and platform. Two lexicons parse every
  /// sentence identically when their fingerprints match (up to digest
  /// collision), so this is the level-1 cache invalidation key: a cached
  /// sentence parse is keyed by (normalized text, lexicon fingerprint) and
  /// any vocabulary edit changes the key rather than poisoning old entries
  /// (see cache/store.hpp).
  [[nodiscard]] util::Digest fingerprint() const;

 private:
  struct Hash : std::hash<std::string_view> {
    using is_transparent = void;  // probe with a string_view, no key copy
  };

  [[nodiscard]] const Entry* find(std::string_view word) const;
  /// The -ing/-ed/-es/-s rules: an inflection of a listed verb lemma.
  [[nodiscard]] std::optional<VerbAnalysis> inflected_verb(std::string_view word) const;

  std::unordered_map<std::string, Entry, Hash, std::equal_to<>> words_;
};

}  // namespace speccc::nlp
