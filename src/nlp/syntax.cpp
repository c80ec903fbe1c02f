#include "nlp/syntax.hpp"

#include <algorithm>
#include <set>
#include <sstream>

#include "util/diagnostics.hpp"
#include "util/strings.hpp"

namespace speccc::nlp {

std::string NounPhrase::joined() const {
  std::vector<std::string> parts;
  for (const NpWord& w : words) parts.push_back(w.text);
  return util::join(parts, "_");
}

namespace {

using Tokens = std::vector<Token>;

bool is_condition_subordinator(const std::string& w) {
  return w == "if" || w == "when" || w == "whenever" || w == "once" ||
         w == "while" || w == "after" || w == "before";
}

/// Does the token start a predicate? (modal, be-form, or an inflected
/// third-person lexical verb like "remains"/"enters").
bool starts_predicate(const Token& t) {
  if (t.pos == Pos::kModal || t.pos == Pos::kBe) return true;
  return t.pos == Pos::kVerb && t.verb_form == VerbForm::kThirdPerson &&
         t.lemma != "be";
}

bool has_predicate(const Tokens& segment) {
  return std::any_of(segment.begin(), segment.end(), starts_predicate);
}

[[noreturn]] void fail(const std::string& text, const std::string& why) {
  throw util::ParseError("ungrammatical requirement: " + why + " in \"" + text +
                         "\"");
}

/// Parse one clause from a token span.
class ClauseParser {
 public:
  ClauseParser(const Tokens& tokens, const std::string& text)
      : tokens_(tokens), text_(text) {}

  Clause run() {
    Clause clause;
    // Leading "next" marker ("next manual mode is started").
    if (peek_text() == "next") {
      clause.next_marked = true;
      ++pos_;
    }
    // Leading modifier adverb.
    if (peek(Pos::kAdverb) && is_modifier(peek_text())) {
      clause.modifier = peek_text();
      ++pos_;
    }
    if (peek_text() == "next") {  // "eventually next ..." (rare order)
      clause.next_marked = true;
      ++pos_;
    }

    parse_subjects(clause);
    parse_predicate(clause);
    parse_constraint(clause);
    if (pos_ < tokens_.size()) {
      fail(text_, "unexpected trailing words after the predicate");
    }
    return clause;
  }

 private:
  static bool is_modifier(const std::string& w) {
    return w == "eventually" || w == "always" || w == "globally" ||
           w == "sometimes" || w == "immediately";
  }

  bool peek(Pos pos) const {
    return pos_ < tokens_.size() && tokens_[pos_].pos == pos;
  }
  std::string peek_text() const {
    return pos_ < tokens_.size() ? tokens_[pos_].text : "";
  }

  void parse_subjects(Clause& clause) {
    for (;;) {
      NounPhrase np = parse_noun_phrase();
      if (np.words.empty() && !np.pronoun) {
        fail(text_, "missing subject");
      }
      clause.subjects.push_back(std::move(np));
      // Subject coordination only before the predicate.
      if (peek(Pos::kConjunction) && pos_ + 1 < tokens_.size() &&
          !starts_predicate(tokens_[pos_ + 1])) {
        clause.subject_conjunction = peek_text();
        ++pos_;
        continue;
      }
      break;
    }
  }

  NounPhrase parse_noun_phrase() {
    NounPhrase np;
    for (; pos_ < tokens_.size(); ++pos_) {
      const Token& t = tokens_[pos_];
      if (t.pos == Pos::kDeterminer || t.pos == Pos::kMarker) continue;
      if (t.pos == Pos::kPronoun) {
        np.pronoun = true;
        ++pos_;
        break;
      }
      if (starts_predicate(t) || t.pos == Pos::kConjunction) break;
      if (t.pos == Pos::kNoun || t.pos == Pos::kAdjective ||
          t.pos == Pos::kNumber || t.pos == Pos::kVerb) {
        // Verbs here are name components ("terminate auto control button").
        np.words.push_back({t.text, t.pos, t.capitalized});
        continue;
      }
      break;
    }
    return np;
  }

  void parse_predicate(Clause& clause) {
    Predicate& pred = clause.predicate;
    if (pos_ >= tokens_.size()) fail(text_, "missing predicate");

    // Modals.
    while (peek(Pos::kModal)) {
      pred.modals.push_back(peek_text());
      if (peek_text() == "will" || peek_text() == "would") pred.future = true;
      ++pos_;
    }

    // Lexical copula-like verb ("remains low") or active verb.
    if (peek(Pos::kVerb) && tokens_[pos_].lemma != "be") {
      const Token verb = tokens_[pos_];
      ++pos_;
      if (peek(Pos::kNegation)) {
        pred.negated = true;
        ++pos_;
      }
      if (peek(Pos::kAdjective) || peek(Pos::kAdverb)) {
        // "remains low": copular complement.
        pred.kind = PredicateKind::kCopula;
        pred.verb_lemma = verb.lemma;
        collect_complements(pred);
        return;
      }
      // Active verb, optional object noun phrase.
      pred.kind = PredicateKind::kActive;
      pred.verb_lemma = verb.lemma;
      if (pos_ < tokens_.size() && !peek(Pos::kPreposition)) {
        NounPhrase object = parse_noun_phrase();
        if (!object.words.empty()) pred.objects.push_back(std::move(object));
      }
      swallow_particle();
      return;
    }

    // Copula chain: [not] be [not] (participle | adjective | gerund |
    // prep NP). Negation may precede the copula after a modal ("must not
    // be closed") or follow it ("is not valid").
    if (peek(Pos::kNegation) && pos_ + 1 < tokens_.size() &&
        tokens_[pos_ + 1].pos == Pos::kBe) {
      pred.negated = true;
      ++pos_;
    }
    if (!peek(Pos::kBe)) fail(text_, "missing predicate verb");
    ++pos_;
    while (peek(Pos::kBe)) ++pos_;  // "will be", "can be"
    if (peek(Pos::kNegation)) {
      pred.negated = true;
      ++pos_;
    }
    while (peek(Pos::kBe)) ++pos_;

    if (peek(Pos::kPreposition)) {
      // "is in room 1", with optional coordination: "is in room 1 or room 2".
      pred.kind = PredicateKind::kPreposition;
      pred.preposition = peek_text();
      ++pos_;
      for (;;) {
        NounPhrase object = parse_noun_phrase();
        if (object.words.empty()) fail(text_, "missing preposition object");
        pred.objects.push_back(std::move(object));
        if (peek(Pos::kConjunction) && pos_ + 1 < tokens_.size() &&
            !starts_predicate(tokens_[pos_ + 1])) {
          pred.object_conjunction = peek_text();
          ++pos_;
          // Optionally repeated preposition: "in room 1 or in room 2".
          if (peek(Pos::kPreposition)) ++pos_;
          continue;
        }
        break;
      }
      return;
    }
    if (peek(Pos::kAdjective) || peek(Pos::kAdverb)) {
      pred.kind = PredicateKind::kCopula;
      collect_complements(pred);
      return;
    }
    if (peek(Pos::kVerb)) {
      const Token verb = tokens_[pos_];
      ++pos_;
      if (verb.verb_form == VerbForm::kGerund) {
        pred.kind = PredicateKind::kProgressive;
      } else {
        pred.kind = PredicateKind::kPassive;
      }
      pred.verb_lemma = verb.lemma;
      swallow_particle();
      return;
    }
    fail(text_, "unsupported predicate form");
  }

  void collect_complements(Predicate& pred) {
    while (peek(Pos::kAdjective) || peek(Pos::kAdverb)) {
      pred.complements.push_back(peek_text());
      ++pos_;
    }
    swallow_particle();
  }

  /// Trailing particle of a phrasal verb: a preposition or particle-like
  /// adverbial directly after the verb with nothing but a time constraint
  /// (or nothing) following ("is plugged in", "is powered on", "is turned
  /// off", "is turned on in 3 seconds").
  void swallow_particle() {
    static const std::set<std::string> kParticles = {"on", "off", "in",
                                                     "out", "up",  "down"};
    const bool particle_like =
        peek(Pos::kPreposition) ||
        ((peek(Pos::kAdjective) || peek(Pos::kAdverb)) &&
         kParticles.count(peek_text()) > 0);
    if (!particle_like) return;
    // "in 3 seconds" is a constraint, never a particle.
    if (peek_text() == "in" && pos_ + 1 < tokens_.size() &&
        tokens_[pos_ + 1].pos == Pos::kNumber) {
      return;
    }
    const bool at_end = pos_ + 1 >= tokens_.size();
    const bool before_constraint =
        pos_ + 2 < tokens_.size() && tokens_[pos_ + 1].pos == Pos::kPreposition &&
        tokens_[pos_ + 1].text == "in" && tokens_[pos_ + 2].pos == Pos::kNumber;
    if (at_end || before_constraint) ++pos_;
  }

  void parse_constraint(Clause& clause) {
    // "in t seconds".
    if (peek(Pos::kPreposition) && peek_text() == "in" &&
        pos_ + 1 < tokens_.size() && tokens_[pos_ + 1].pos == Pos::kNumber) {
      ++pos_;
      const std::string& digits = tokens_[pos_].text;
      std::string written = "in " + digits;
      ++pos_;
      TimeConstraint c;
      if (peek(Pos::kTimeUnit)) {
        // Unit multiplier resolved against the lexicon by the caller; we
        // inline the standard units here to keep the parser self-contained.
        const std::string u = peek_text();
        if (u == "minute" || u == "minutes") c.unit_seconds = 60;
        else if (u == "hour" || u == "hours") c.unit_seconds = 3600;
        else c.unit_seconds = 1;
        written += " " + u;
        ++pos_;
      }
      // Digit by digit, stopping at the cap, so no literal can overflow.
      std::uint64_t value = 0;
      for (const char digit : digits) {
        value = value * 10 + static_cast<std::uint64_t>(digit - '0');
        if (!within_deadline_cap(value, c.unit_seconds)) {
          throw util::ParseError(
              "time constraint \"" + written + "\" exceeds the limit of " +
              std::to_string(kMaxConstraintSeconds) + " seconds in \"" +
              text_ + "\"");
        }
      }
      c.value = static_cast<unsigned>(value);
      clause.constraint = c;
    }
  }

  const Tokens& tokens_;
  const std::string& text_;
  std::size_t pos_ = 0;
};

/// Split the clause-internal coordination: "a is issued and b is provided".
/// Returns (connective, clause-token-span) pairs.
std::vector<std::pair<std::string, Tokens>> split_coordinated(const Tokens& tokens) {
  std::vector<std::pair<std::string, Tokens>> out;
  Tokens current;
  std::string connective;
  bool predicate_seen = false;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    if (t.pos == Pos::kConjunction && predicate_seen) {
      // Conjunction after a complete predicate starts a new clause -- but
      // only when a predicate actually follows; otherwise it coordinates
      // objects or complements ("is in room 1 or room 2").
      const bool clause_follows =
          std::any_of(tokens.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                      tokens.end(), starts_predicate);
      if (clause_follows) {
        out.push_back({connective, current});
        current.clear();
        connective = t.text;
        predicate_seen = false;
        continue;
      }
    }
    if (starts_predicate(t)) predicate_seen = true;
    current.push_back(t);
  }
  if (!current.empty()) out.push_back({connective, current});
  return out;
}

}  // namespace

Sentence parse_sentence(const std::string& text, const Lexicon& lexicon) {
  Sentence sentence;
  sentence.text = text;

  Tokens tokens = analyze(text, lexicon);
  // Drop the final period.
  while (!tokens.empty() && tokens.back().pos == Pos::kPeriod) tokens.pop_back();
  if (tokens.empty()) fail(text, "empty sentence");

  // 1. Split into comma segments.
  std::vector<Tokens> segments;
  Tokens current;
  for (const Token& t : tokens) {
    if (t.pos == Pos::kComma) {
      if (!current.empty()) segments.push_back(std::move(current));
      current.clear();
    } else {
      current.push_back(t);
    }
  }
  if (!current.empty()) segments.push_back(std::move(current));

  // 2. Merge predicate-less conjunction segments into their successor
  //    ("the arterial line, or pulse wave or cuff is lost").
  for (std::size_t i = 0; i + 1 < segments.size();) {
    if (!has_predicate(segments[i]) && !segments[i].empty()) {
      Tokens merged = segments[i];
      segments[i + 1].insert(segments[i + 1].begin(), merged.begin(), merged.end());
      segments.erase(segments.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }

  // 3. Split segments at mid-segment subordinators ("... until it is
  //    pressed", "... whenever the LSTAT is powered on").
  std::vector<Tokens> pieces;
  for (Tokens& segment : segments) {
    Tokens cur;
    bool predicate_seen = false;
    for (const Token& t : segment) {
      if (t.pos == Pos::kSubordinator && t.text != "next" && predicate_seen) {
        pieces.push_back(std::move(cur));
        cur.clear();
        cur.push_back(t);
        predicate_seen = false;
        continue;
      }
      if (starts_predicate(t)) predicate_seen = true;
      cur.push_back(t);
    }
    if (!cur.empty()) pieces.push_back(std::move(cur));
  }

  // 4. Assemble clause groups.
  ClauseGroup* current_group = nullptr;
  // Append the coordinated clauses of `span` to `group`; `lead` is the
  // connective that linked the comma segment to the group ("" for the first
  // segment of a group).
  const auto parse_into = [&](ClauseGroup& group, const Tokens& span,
                              const std::string& lead) {
    bool first_part = true;
    for (auto& [conn, clause_tokens] : split_coordinated(span)) {
      std::string effective;
      if (!group.clauses.empty()) {
        effective = first_part ? (lead.empty() ? "and" : lead)
                               : (conn.empty() ? "and" : conn);
      }
      ClauseParser parser(clause_tokens, text);
      group.clauses.push_back({effective, parser.run()});
      first_part = false;
    }
  };

  bool main_seen = false;
  for (Tokens& piece : pieces) {
    if (piece.empty()) continue;
    std::string connective;
    std::size_t start = 0;
    if (piece[start].pos == Pos::kConjunction) {
      connective = piece[start].text;
      ++start;
    }
    std::string subordinator;
    if (start < piece.size() && piece[start].pos == Pos::kSubordinator &&
        piece[start].text != "next") {
      subordinator = piece[start].text;
      ++start;
    }
    Tokens span(piece.begin() + static_cast<std::ptrdiff_t>(start), piece.end());
    if (span.empty()) fail(text, "empty clause group");

    if (subordinator == "until" || subordinator == "before") {
      ClauseGroup group;
      group.subordinator = subordinator;
      parse_into(group, span, connective);
      sentence.until = std::move(group);
      current_group = &*sentence.until;
      continue;
    }
    if (is_condition_subordinator(subordinator)) {
      sentence.conditions.emplace_back();
      sentence.conditions.back().subordinator = subordinator;
      parse_into(sentence.conditions.back(), span, connective);
      current_group = &sentence.conditions.back();
      continue;
    }
    // No subordinator: continuation of the current group when led by a
    // conjunction and the main clause has not started; otherwise main.
    if (!connective.empty() && current_group != nullptr && !main_seen) {
      parse_into(*current_group, span, connective);
      continue;
    }
    if (!main_seen) {
      parse_into(sentence.main, span, connective);
      main_seen = true;
      current_group = &sentence.main;
      continue;
    }
    // Additional main-clause material after the main group.
    parse_into(sentence.main, span, connective.empty() ? "and" : connective);
  }

  if (sentence.main.clauses.empty()) {
    fail(text, "no main clause");
  }
  return sentence;
}

namespace {

void print_clause(std::ostream& os, const Clause& clause, int indent) {
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  if (!clause.modifier.empty()) {
    os << pad << "modifier: " << clause.modifier << "\n";
  }
  if (clause.next_marked) os << pad << "marker: next\n";
  for (std::size_t i = 0; i < clause.subjects.size(); ++i) {
    os << pad << "subject: "
       << (clause.subjects[i].pronoun ? "(it)" : clause.subjects[i].joined());
    if (i + 1 < clause.subjects.size()) {
      os << " " << clause.subject_conjunction;
    }
    os << "\n";
  }
  os << pad << "predicate: ";
  const Predicate& p = clause.predicate;
  for (const auto& m : p.modals) os << m << " ";
  switch (p.kind) {
    case PredicateKind::kCopula:
      os << "be" << (p.negated ? " not" : "");
      for (const auto& c : p.complements) os << " " << c;
      break;
    case PredicateKind::kPassive:
      os << "be" << (p.negated ? " not" : "") << " " << p.verb_lemma << "+ed";
      break;
    case PredicateKind::kProgressive:
      os << "be " << p.verb_lemma << "+ing";
      break;
    case PredicateKind::kActive:
      os << p.verb_lemma;
      if (!p.objects.empty()) os << " " << p.objects.front().joined();
      break;
    case PredicateKind::kPreposition:
      os << "be " << p.preposition;
      for (std::size_t i = 0; i < p.objects.size(); ++i) {
        if (i > 0) os << " " << p.object_conjunction;
        os << " " << p.objects[i].joined();
      }
      break;
  }
  os << "\n";
  if (clause.constraint.has_value()) {
    os << pad << "constraint: in " << clause.constraint->value << " x"
       << clause.constraint->unit_seconds << "s\n";
  }
}

void print_group(std::ostream& os, const ClauseGroup& group, int indent) {
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  for (const auto& [conn, clause] : group.clauses) {
    if (!conn.empty()) os << pad << "conjunction: " << conn << "\n";
    os << pad << "clause\n";
    print_clause(os, clause, indent + 1);
  }
}

}  // namespace

std::string syntax_tree(const Sentence& sentence) {
  std::ostringstream os;
  os << "sentence\n";
  for (const auto& group : sentence.conditions) {
    os << "  subclause\n    subordinator: " << group.subordinator << "\n";
    print_group(os, group, 2);
  }
  os << "  clauses\n";
  print_group(os, sentence.main, 2);
  if (sentence.until.has_value()) {
    os << "  subclause\n    subordinator: " << sentence.until->subordinator
       << "\n";
    print_group(os, *sentence.until, 2);
  }
  return os.str();
}

}  // namespace speccc::nlp
