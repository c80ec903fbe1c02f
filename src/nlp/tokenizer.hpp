// Tokenization and context-rule POS tagging for requirement sentences.
//
// Tagging is the only place a word is lower-cased: each Token's text is
// lower-cased once, and every lexicon query (lookup, analyze_verb) takes
// that text as is.
#pragma once

#include <string>
#include <vector>

#include "nlp/lexicon.hpp"

namespace speccc::nlp {

struct Token {
  std::string text;   // lower-cased surface form
  std::string lemma;  // verb lemma when pos == kVerb, else == text
  Pos pos = Pos::kUnknown;
  VerbForm verb_form = VerbForm::kBase;  // meaningful when pos == kVerb
  /// Word was capitalized mid-sentence: proper-name evidence ("Air Ok").
  bool capitalized = false;
};

/// Split a requirement sentence into word / punctuation tokens, preserving
/// case. Hyphens and underscores inside words split into separate words
/// ("auto-control" -> "auto", "control"), matching the paper's treatment of
/// multi-word subjects that are later re-joined with '_'.
[[nodiscard]] std::vector<std::string> tokenize(const std::string& sentence);

/// Assign parts of speech with the lexicon plus context disambiguation
/// rules (determiner => following word is nominal; "be" + participle =>
/// passive verb; number + unit => time constraint; etc.).
[[nodiscard]] std::vector<Token> tag(const std::vector<std::string>& words,
                                     const Lexicon& lexicon);

/// tag(tokenize(sentence)), without the intermediate word strings.
[[nodiscard]] std::vector<Token> analyze(const std::string& sentence,
                                         const Lexicon& lexicon);

}  // namespace speccc::nlp
