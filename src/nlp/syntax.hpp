// Recursive-descent parser for the paper's structured-English grammar
// (Section IV-B):
//
//   sentence   ::= (subclause,)* clauses (,subclause)*
//   subclause  ::= subordinator clauses
//   clauses    ::= clause [, conjunction clause]*
//   clause     ::= [modifier] subject predicate [constraint]
//   ...
//
// The parser produces the syntax tree of Fig. 2. Conventions extracted from
// the paper's appendix:
//   * comma segments led by a conjunction continue the current clause group
//     ("If a, and b, and c, d" groups a,b,c as the antecedent);
//   * a conjunction segment without a predicate coordinates subjects across
//     the comma ("the arterial line, or pulse wave or cuff is lost");
//   * a subordinator may occur mid-segment ("... is enabled until it is
//     pressed", "... will be operational whenever ...");
//   * "next" marks the clause it precedes rather than opening a group;
//   * capitalized mid-sentence words are proper names and stay part of the
//     subject ("Air Ok signal"), while lower-case attributive adjectives are
//     modifiers subject to semantic reasoning ("a valid blood pressure").
//
// The parser tags the sentence into one token vector and works on index
// ranges (std::span) of it: comma segments, subordinate pieces and
// coordinated clauses are views, and only the returned Sentence owns
// strings.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "nlp/lexicon.hpp"
#include "nlp/tokenizer.hpp"

namespace speccc::nlp {

/// A word inside a noun phrase, with enough detail for semantic reasoning.
struct NpWord {
  std::string text;
  Pos pos = Pos::kNoun;
  bool capitalized = false;  // proper-name evidence (mid-sentence uppercase)
};

struct NounPhrase {
  std::vector<NpWord> words;
  bool pronoun = false;  // "it": resolved against the main-clause subject

  [[nodiscard]] std::string joined() const;  // "auto_control_mode"
};

/// The longest deadline the grammar accepts, in seconds (about 12 days).
/// Longer constraints are a ParseError: the time abstraction's divisor scan
/// is linear in the longest tick count, about 0.15 s at this cap.
inline constexpr unsigned kMaxConstraintSeconds = 1u << 20;

/// Whether `value` units of `unit_seconds` each fit kMaxConstraintSeconds
/// (exact for any value and unit below 2^32).
[[nodiscard]] constexpr bool within_deadline_cap(std::uint64_t value,
                                                 unsigned unit_seconds) {
  return value * unit_seconds <= kMaxConstraintSeconds;
}

struct TimeConstraint {
  unsigned value = 0;          // as written ("in 3 seconds" -> 3)
  unsigned unit_seconds = 1;   // seconds per unit
  [[nodiscard]] unsigned total_seconds() const { return value * unit_seconds; }
};

enum class PredicateKind {
  kCopula,       // be/remain + adjective complement(s)
  kPassive,      // be + past participle
  kProgressive,  // be + gerund (active reading: "is running")
  kActive,       // lexical verb, possibly with an object
  kPreposition,  // be + preposition + noun phrase ("is in room 1")
};

struct Predicate {
  PredicateKind kind = PredicateKind::kCopula;
  std::string verb_lemma;                  // "" for pure copula
  std::vector<std::string> complements;    // adjectives/adverbs (kCopula)
  std::string preposition;                 // kPreposition
  /// kPreposition / kActive objects; prepositional objects may coordinate
  /// ("is in room 1 or room 2"), joined by object_conjunction.
  std::vector<NounPhrase> objects;
  std::string object_conjunction;  // "and"/"or" when objects.size() > 1
  std::vector<std::string> modals;
  bool negated = false;
  bool future = false;  // "will"/"would": the paper maps future tense to F
};

struct Clause {
  std::string modifier;  // "eventually", "always", ... or ""
  std::vector<NounPhrase> subjects;
  std::string subject_conjunction;  // "and"/"or" when subjects.size() > 1
  Predicate predicate;
  std::optional<TimeConstraint> constraint;
  bool next_marked = false;  // clause prefixed by "next"
};

/// A subordinate or main clause group; clauses carry the connective linking
/// them to the previous clause in the group ("" for the first).
struct ClauseGroup {
  std::string subordinator;  // "" for the main group
  std::vector<std::pair<std::string, Clause>> clauses;
};

struct Sentence {
  std::string text;
  std::vector<ClauseGroup> conditions;  // if/when/whenever/once/while/after
  ClauseGroup main;
  std::optional<ClauseGroup> until;  // trailing until-subclause

  /// Visit every clause: the conditions, then main, then until.
  template <typename Fn>
  void for_each_clause(Fn&& fn) const {
    const auto group = [&fn](const ClauseGroup& g) {
      for (const auto& [conn, clause] : g.clauses) fn(clause);
    };
    for (const ClauseGroup& g : conditions) group(g);
    group(main);
    if (until.has_value()) group(*until);
  }
};

/// Parse one requirement sentence. Throws util::ParseError when the sentence
/// falls outside the structured grammar (no predicate, empty subject, ...).
[[nodiscard]] Sentence parse_sentence(const std::string& text, const Lexicon& lexicon);

/// Render the Fig. 2-style syntax tree of a parsed sentence (for the
/// examples and the Fig. 2 reproduction).
[[nodiscard]] std::string syntax_tree(const Sentence& sentence);

}  // namespace speccc::nlp
