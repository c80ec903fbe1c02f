#include "nlp/tokenizer.hpp"

#include <cctype>

#include "util/strings.hpp"

namespace speccc::nlp {

namespace {

/// Call fn on each word and each ',' / '.' of the sentence, in order.
/// Every other non-alphanumeric character (whitespace, hyphens,
/// underscores, quotes) separates words.
template <typename Fn>
void for_each_word(std::string_view sentence, Fn&& fn) {
  std::size_t begin = 0;
  for (std::size_t i = 0; i <= sentence.size(); ++i) {
    const char c = i < sentence.size() ? sentence[i] : ' ';
    if (std::isalnum(static_cast<unsigned char>(c)) != 0) continue;
    if (i > begin) fn(sentence.substr(begin, i - begin));
    if (c == ',' || c == '.') fn(sentence.substr(i, 1));
    begin = i + 1;
  }
}

Pos pick_preferred(PosSet candidates, Pos preferred) {
  return candidates.contains(preferred) ? preferred : candidates.first();
}

/// Append the token for `raw`: the one place a word is lower-cased.
void tag_word(std::string_view raw, const Lexicon& lexicon, std::vector<Token>& out) {
  const Pos prev = out.empty() ? Pos::kUnknown : out.back().pos;
  Token& token = out.emplace_back();
  token.text = util::to_lower(raw);
  token.lemma = token.text;
  token.capitalized = out.size() > 1 && !raw.empty() &&
                      std::isupper(static_cast<unsigned char>(raw[0])) != 0;
  if (token.text == "," || token.text == ".") {
    token.pos = token.text == "," ? Pos::kComma : Pos::kPeriod;
    return;
  }

  const PosSet candidates = lexicon.lookup(token.text);
  Pos chosen;
  if (candidates.contains(Pos::kBe)) {
    // Forms of "be" are unambiguous copulas in the structured grammar.
    chosen = Pos::kBe;
  } else if (candidates.size() == 1) {
    chosen = candidates.first();
  } else if (prev == Pos::kDeterminer || prev == Pos::kAdjective) {
    // After a determiner or attributive adjective, prefer the nominal
    // reading ("the control", "a valid pressure").
    chosen = pick_preferred(candidates, Pos::kNoun);
  } else if (prev == Pos::kBe) {
    // Copular complement: prefer adjective ("is available"), else a
    // passive participle ("is terminated").
    chosen = candidates.contains(Pos::kAdjective)
                 ? Pos::kAdjective
                 : pick_preferred(candidates, Pos::kVerb);
  } else if (prev == Pos::kModal) {
    // After a modal the verb reading wins ("can start", "should sound").
    chosen = pick_preferred(candidates, Pos::kVerb);
  } else if (prev == Pos::kNumber) {
    chosen = pick_preferred(candidates, Pos::kTimeUnit);
  } else if (candidates.contains(Pos::kNoun) && candidates.contains(Pos::kVerb)) {
    // Noun/verb ambiguous with no deciding context: nouns dominate in the
    // corpus ("control mode", "power supply"); verbs are recovered by the
    // clause parser when a predicate is syntactically required.
    chosen = Pos::kNoun;
  } else {
    chosen = candidates.first();
  }

  token.pos = chosen;
  if (chosen == Pos::kVerb) {
    if (auto analysis = lexicon.analyze_verb(token.text)) {
      token.lemma = std::move(analysis->lemma);
      token.verb_form = analysis->form;
    }
  }
}

}  // namespace

std::vector<std::string> tokenize(const std::string& sentence) {
  std::vector<std::string> out;
  for_each_word(sentence, [&](std::string_view word) { out.emplace_back(word); });
  return out;
}

std::vector<Token> tag(const std::vector<std::string>& words,
                       const Lexicon& lexicon) {
  std::vector<Token> out;
  out.reserve(words.size());
  for (const std::string& word : words) tag_word(word, lexicon, out);
  return out;
}

std::vector<Token> analyze(const std::string& sentence, const Lexicon& lexicon) {
  std::size_t words = 0;
  for_each_word(sentence, [&](std::string_view) { ++words; });
  std::vector<Token> out;
  out.reserve(words);
  for_each_word(sentence,
                [&](std::string_view word) { tag_word(word, lexicon, out); });
  return out;
}

}  // namespace speccc::nlp
