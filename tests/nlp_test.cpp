// Tests for the NLP substrate: tokenizer, lexicon morphology, POS tagging,
// the structured-English grammar parser, and typed-dependency extraction.
#include <gtest/gtest.h>

#include <cctype>
#include <exception>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "batch/corpus_tasks.hpp"
#include "corpus/loaders.hpp"
#include "difftest/harness.hpp"
#include "nlp/dependency.hpp"
#include "nlp/lexicon.hpp"
#include "nlp/syntax.hpp"
#include "nlp/tokenizer.hpp"
#include "util/diagnostics.hpp"
#include "util/strings.hpp"

namespace nlp = speccc::nlp;
using nlp::Pos;

namespace {

const nlp::Lexicon& lex() {
  static nlp::Lexicon lexicon = nlp::Lexicon::builtin();
  return lexicon;
}

TEST(Tokenizer, SplitsWordsAndPunctuation) {
  const auto words = nlp::tokenize("When auto-control mode is entered, eventually!");
  EXPECT_EQ(words, (std::vector<std::string>{"When", "auto", "control", "mode",
                                             "is", "entered", ",", "eventually"}));
}

TEST(Tokenizer, KeepsNumbersWhole) {
  const auto words = nlp::tokenize("in 180 seconds.");
  EXPECT_EQ(words, (std::vector<std::string>{"in", "180", "seconds", "."}));
}

TEST(Morphology, RegularInflections) {
  const auto terminated = lex().analyze_verb("terminated");
  ASSERT_TRUE(terminated.has_value());
  EXPECT_EQ(terminated->lemma, "terminate");
  EXPECT_EQ(terminated->form, nlp::VerbForm::kPastParticiple);

  const auto pressed = lex().analyze_verb("pressed");
  ASSERT_TRUE(pressed.has_value());
  EXPECT_EQ(pressed->lemma, "press");

  const auto plugged = lex().analyze_verb("plugged");
  ASSERT_TRUE(plugged.has_value());
  EXPECT_EQ(plugged->lemma, "plug");  // undoubling

  const auto carried = lex().analyze_verb("carried");
  ASSERT_TRUE(carried.has_value());
  EXPECT_EQ(carried->lemma, "carry");  // -ied -> y

  const auto remains = lex().analyze_verb("remains");
  ASSERT_TRUE(remains.has_value());
  EXPECT_EQ(remains->lemma, "remain");
  EXPECT_EQ(remains->form, nlp::VerbForm::kThirdPerson);
}

TEST(Morphology, IrregularInflections) {
  const auto lost = lex().analyze_verb("lost");
  ASSERT_TRUE(lost.has_value());
  EXPECT_EQ(lost->lemma, "lose");
  const auto running = lex().analyze_verb("running");
  ASSERT_TRUE(running.has_value());
  EXPECT_EQ(running->lemma, "run");
  EXPECT_EQ(running->form, nlp::VerbForm::kGerund);
}

TEST(Morphology, NonVerbsRejected) {
  EXPECT_FALSE(lex().analyze_verb("cuff").has_value());
  EXPECT_FALSE(lex().analyze_verb("available").has_value());
}

TEST(Lexicon, TimeUnits) {
  EXPECT_EQ(lex().time_unit_seconds("seconds"), 1u);
  EXPECT_EQ(lex().time_unit_seconds("minute"), 60u);
  EXPECT_FALSE(lex().time_unit_seconds("cuff").has_value());
}

TEST(Lexicon, UnknownWordsFallBackBySuffix) {
  EXPECT_EQ(lex().lookup("frobnicable").first(), Pos::kAdjective);
  EXPECT_EQ(lex().lookup("xyzzy").first(), Pos::kNoun);
  EXPECT_EQ(lex().lookup("rapidly").first(), Pos::kAdverb);
}

TEST(Tagger, ContextDisambiguation) {
  const auto tokens = nlp::analyze("the control mode is running", lex());
  // "control" after determiner reads as a noun; "running" after be is the
  // progressive verb.
  EXPECT_EQ(tokens[1].pos, Pos::kNoun);
  EXPECT_EQ(tokens[3].pos, Pos::kBe);
  EXPECT_EQ(tokens[4].pos, Pos::kVerb);
  EXPECT_EQ(tokens[4].lemma, "run");
}

TEST(Tagger, CapitalizationMidSentenceIsRecorded) {
  const auto tokens = nlp::analyze("If Air Ok signal remains low", lex());
  EXPECT_TRUE(tokens[1].capitalized);   // Air
  EXPECT_TRUE(tokens[2].capitalized);   // Ok
  EXPECT_FALSE(tokens[3].capitalized);  // signal
  // Sentence-initial capitalization does not count.
  const auto first = nlp::analyze("Air is low", lex());
  EXPECT_FALSE(first[0].capitalized);
}

TEST(Tagger, BeFormsAlwaysWin) {
  const auto tokens = nlp::analyze("the pump is off", lex());
  EXPECT_EQ(tokens[2].pos, Pos::kBe);
}

// ---- Grammar parser ---------------------------------------------------------

TEST(Syntax, SimpleConditional) {
  const auto s = nlp::parse_sentence(
      "If an occlusion is detected, the alarm is issued.", lex());
  ASSERT_EQ(s.conditions.size(), 1u);
  EXPECT_EQ(s.conditions[0].subordinator, "if");
  ASSERT_EQ(s.conditions[0].clauses.size(), 1u);
  const auto& cond = s.conditions[0].clauses[0].second;
  EXPECT_EQ(cond.subjects[0].joined(), "occlusion");
  EXPECT_EQ(cond.predicate.kind, nlp::PredicateKind::kPassive);
  EXPECT_EQ(cond.predicate.verb_lemma, "detect");
  ASSERT_EQ(s.main.clauses.size(), 1u);
  EXPECT_EQ(s.main.clauses[0].second.predicate.verb_lemma, "issue");
}

TEST(Syntax, Figure2SentenceStructure) {
  // The paper's Fig. 2 example.
  const auto s = nlp::parse_sentence(
      "When auto-control mode is entered, eventually the cuff will be "
      "inflated.",
      lex());
  ASSERT_EQ(s.conditions.size(), 1u);
  EXPECT_EQ(s.conditions[0].subordinator, "when");
  EXPECT_EQ(s.conditions[0].clauses[0].second.subjects[0].joined(),
            "auto_control_mode");
  const auto& main = s.main.clauses[0].second;
  EXPECT_EQ(main.modifier, "eventually");
  EXPECT_EQ(main.subjects[0].joined(), "cuff");
  EXPECT_TRUE(main.predicate.future);
  EXPECT_EQ(main.predicate.verb_lemma, "inflate");
  // The rendered tree mentions the ingredients of Fig. 2.
  const std::string tree = nlp::syntax_tree(s);
  EXPECT_NE(tree.find("subordinator: when"), std::string::npos);
  EXPECT_NE(tree.find("modifier: eventually"), std::string::npos);
  EXPECT_NE(tree.find("auto_control_mode"), std::string::npos);
}

TEST(Syntax, SubjectCoordinationBeforePredicate) {
  const auto s = nlp::parse_sentence(
      "If arterial line and pulse wave are corroborated, the cuff is "
      "selected.",
      lex());
  const auto& cond = s.conditions[0].clauses[0].second;
  ASSERT_EQ(cond.subjects.size(), 2u);
  EXPECT_EQ(cond.subjects[0].joined(), "arterial_line");
  EXPECT_EQ(cond.subjects[1].joined(), "pulse_wave");
  EXPECT_EQ(cond.subject_conjunction, "and");
}

TEST(Syntax, ClauseCoordinationAfterPredicate) {
  const auto s = nlp::parse_sentence(
      "If the pump is detected, an alarm is issued and override selection is "
      "provided.",
      lex());
  ASSERT_EQ(s.main.clauses.size(), 2u);
  EXPECT_EQ(s.main.clauses[1].first, "and");
  EXPECT_EQ(s.main.clauses[1].second.predicate.verb_lemma, "provide");
}

TEST(Syntax, PredicatelessConjunctionSegmentMergesForward) {
  // The Req-42 shape: "..., and the arterial line, or pulse wave or cuff is
  // lost, ...".
  const auto s = nlp::parse_sentence(
      "When auto control mode is running, and the arterial line, or pulse "
      "wave or cuff is lost, an alarm should sound in 60 seconds.",
      lex());
  ASSERT_EQ(s.conditions.size(), 1u);
  ASSERT_EQ(s.conditions[0].clauses.size(), 2u);
  const auto& lost = s.conditions[0].clauses[1].second;
  ASSERT_EQ(lost.subjects.size(), 3u);
  EXPECT_EQ(lost.subject_conjunction, "or");
  const auto& main = s.main.clauses[0].second;
  EXPECT_EQ(main.predicate.kind, nlp::PredicateKind::kActive);
  EXPECT_EQ(main.predicate.verb_lemma, "sound");
  ASSERT_TRUE(main.constraint.has_value());
  EXPECT_EQ(main.constraint->value, 60u);
}

TEST(Syntax, TrailingUntilSubclause) {
  const auto s = nlp::parse_sentence(
      "When a start auto control button is enabled, the start auto control "
      "button is enabled until it is pressed.",
      lex());
  ASSERT_TRUE(s.until.has_value());
  EXPECT_EQ(s.until->subordinator, "until");
  EXPECT_TRUE(s.until->clauses[0].second.subjects[0].pronoun);
}

TEST(Syntax, TrailingConditionWithoutComma) {
  const auto s = nlp::parse_sentence(
      "The CARA will be operational whenever the LSTAT is powered on.", lex());
  ASSERT_EQ(s.conditions.size(), 1u);
  EXPECT_EQ(s.conditions[0].subordinator, "whenever");
  // The phrasal particle "on" is swallowed.
  EXPECT_EQ(s.conditions[0].clauses[0].second.predicate.verb_lemma, "power");
}

TEST(Syntax, TimeConstraintInAntecedent) {
  const auto s = nlp::parse_sentence(
      "If a valid blood pressure is unavailable in 180 seconds, manual mode "
      "should be triggered.",
      lex());
  const auto& cond = s.conditions[0].clauses[0].second;
  ASSERT_TRUE(cond.constraint.has_value());
  EXPECT_EQ(cond.constraint->value, 180u);
  EXPECT_FALSE(s.main.clauses[0].second.constraint.has_value());
}

TEST(Syntax, PrepositionalPredicateWithCoordination) {
  const auto s = nlp::parse_sentence(
      "If the robot is in room 1, next the robot is in room 1 or room 2.",
      lex());
  const auto& main = s.main.clauses[0].second;
  EXPECT_TRUE(main.next_marked);
  EXPECT_EQ(main.predicate.kind, nlp::PredicateKind::kPreposition);
  ASSERT_EQ(main.predicate.objects.size(), 2u);
  EXPECT_EQ(main.predicate.objects[0].joined(), "room_1");
  EXPECT_EQ(main.predicate.objects[1].joined(), "room_2");
  EXPECT_EQ(main.predicate.object_conjunction, "or");
}

TEST(Syntax, NestedConditionGroups) {
  const auto s = nlp::parse_sentence(
      "If override selection is provided, if override yes is pressed, next "
      "arterial line is selected.",
      lex());
  ASSERT_EQ(s.conditions.size(), 2u);
  EXPECT_EQ(s.conditions[0].subordinator, "if");
  EXPECT_EQ(s.conditions[1].subordinator, "if");
}

TEST(Syntax, ModalAndNegation) {
  const auto s = nlp::parse_sentence(
      "If the button is pressed, the door must not be closed.", lex());
  const auto& main = s.main.clauses[0].second;
  EXPECT_TRUE(main.predicate.negated);
  EXPECT_EQ(main.predicate.modals,
            (std::vector<std::string>{"must"}));
}

TEST(Syntax, RejectsUngrammaticalSentences) {
  EXPECT_THROW((void)nlp::parse_sentence("", lex()), speccc::util::ParseError);
  EXPECT_THROW((void)nlp::parse_sentence("the cuff.", lex()),
               speccc::util::ParseError);
  EXPECT_THROW((void)nlp::parse_sentence("is pressed quickly.", lex()),
               speccc::util::ParseError);
  EXPECT_THROW(
      (void)nlp::parse_sentence("If the cuff is pressed the alarm.", lex()),
      speccc::util::ParseError);
}

/// The deadline of "If the button is pressed, the door is closed <deadline>."
/// in seconds, or the failure it raises.
std::string deadline_of(const std::string& deadline) {
  try {
    const auto s = nlp::parse_sentence(
        "If the button is pressed, the door is closed " + deadline + ".", lex());
    const auto& constraint = s.main.clauses[0].second.constraint;
    return constraint ? std::to_string(constraint->total_seconds()) : "none";
  } catch (const speccc::util::ParseError& e) {
    return std::string("ParseError: ") + e.what();
  } catch (const std::exception& e) {
    return std::string("not a ParseError: ") + e.what();
  }
}

/// The start of deadline_of(deadline), as long as a rejection quoting it.
std::string rejection_of(const std::string& deadline) {
  const std::string quoted = "ParseError: time constraint \"" + deadline + "\"";
  return deadline_of(deadline).substr(0, quoted.size());
}

TEST(Syntax, TimeConstraintAtTheCapIsAccepted) {
  EXPECT_EQ(nlp::kMaxConstraintSeconds, 1048576u);
  EXPECT_EQ(deadline_of("in 1048576 seconds"), "1048576");
  EXPECT_EQ(deadline_of("in 291 hours"), "1047600");
}

TEST(Syntax, TimeConstraintPastTheCapIsRejected) {
  EXPECT_EQ(deadline_of("in 1048577 seconds"),
            "ParseError: time constraint \"in 1048577 seconds\" exceeds the "
            "limit of 1048576 seconds in \"If the button is pressed, the door "
            "is closed in 1048577 seconds.\"");
  EXPECT_EQ(rejection_of("in 292 hours"),
            "ParseError: time constraint \"in 292 hours\"");
}

TEST(Syntax, OverlongTimeLiteralIsAParseError) {
  // Longer than 64 bits: must not escape as std::out_of_range.
  EXPECT_EQ(rejection_of("in 99999999999999999999999 seconds"),
            "ParseError: time constraint \"in 99999999999999999999999 "
            "seconds\"");
}

TEST(Syntax, TimeConstraintPast32BitsIsNotTruncated) {
  // 2^32: truncated to 32 bits it would be 0 seconds, no deadline at all.
  EXPECT_EQ(rejection_of("in 4294967296 seconds"),
            "ParseError: time constraint \"in 4294967296 seconds\"");
}

TEST(Syntax, TimeConstraintInHoursDoesNotWrap) {
  // 1193047 * 3600 wraps 32 bits to 1904 seconds.
  EXPECT_EQ(rejection_of("in 1193047 hours"),
            "ParseError: time constraint \"in 1193047 hours\"");
}

// ---- Dependencies -----------------------------------------------------------

TEST(Dependency, SubjectAndComplementRelations) {
  const auto s =
      nlp::parse_sentence("The pulse wave is unavailable.", lex());
  const auto deps = nlp::dependencies(s);
  EXPECT_NE(std::find(deps.begin(), deps.end(),
                      nlp::Dependency{"nsubj", "be", "pulse_wave"}),
            deps.end());
  EXPECT_NE(std::find(deps.begin(), deps.end(),
                      nlp::Dependency{"acomp", "be", "unavailable"}),
            deps.end());
}

TEST(Dependency, PassiveSubject) {
  const auto s = nlp::parse_sentence("The cuff is selected.", lex());
  const auto deps = nlp::dependencies(s);
  EXPECT_NE(std::find(deps.begin(), deps.end(),
                      nlp::Dependency{"nsubjpass", "select", "cuff"}),
            deps.end());
}

TEST(Dependency, SubjectDependentsGroupAntonymCandidates) {
  // The paper's Section IV-D example: pulse wave depends on available and
  // unavailable across two requirements.
  const auto s1 = nlp::parse_sentence(
      "If pulse wave or arterial line is available, corroboration is "
      "triggered.",
      lex());
  const auto s2 = nlp::parse_sentence(
      "If pulse wave and arterial line are unavailable, manual mode is "
      "started.",
      lex());
  auto groups1 = nlp::subject_dependents(s1);
  auto groups2 = nlp::subject_dependents(s2);
  EXPECT_TRUE(groups1["pulse_wave"].count("available") > 0);
  EXPECT_TRUE(groups2["pulse_wave"].count("unavailable") > 0);
}

TEST(Dependency, CapitalizedNameComponentsAreNotCandidates) {
  const auto s = nlp::parse_sentence("If Air Ok signal remains low, the alarm "
                                     "is issued.",
                                     lex());
  const auto groups = nlp::subject_dependents(s);
  ASSERT_TRUE(groups.count("air_ok_signal") > 0);
  EXPECT_TRUE(groups.at("air_ok_signal").count("low") > 0);
  EXPECT_FALSE(groups.at("air_ok_signal").count("ok") > 0);
}

TEST(Dependency, LowercaseAttributiveAdjectiveIsCandidate) {
  const auto s = nlp::parse_sentence(
      "If a valid blood pressure is unavailable, manual mode is started.",
      lex());
  const auto groups = nlp::subject_dependents(s);
  ASSERT_TRUE(groups.count("blood_pressure") > 0);
  EXPECT_TRUE(groups.at("blood_pressure").count("valid") > 0);
  EXPECT_TRUE(groups.at("blood_pressure").count("unavailable") > 0);
}

// ---- The tagger against the three-container tagger it replaced ---------------

/// The lexicon queries, fingerprint, tokenizer and tagging rules as they
/// were when the vocabulary lived in three containers (words with their
/// std::set<Pos>, verb lemmas, irregular forms) and every query
/// lower-cased its argument. The containers are rebuilt from a Lexicon's
/// entries, which is what the old add* methods stored.
class LegacyTagger {
 public:
  explicit LegacyTagger(const nlp::Lexicon& lexicon) {
    for (const auto& [word, e] : lexicon.entries()) {
      const std::string w(word);
      e->pos.for_each([&](Pos pos) { words_[w].insert(pos); });
      if (e->verb_lemma) verb_lemmas_.insert(w);
      if (e->irregular.has_value()) irregular_[w] = *e->irregular;
    }
  }

  [[nodiscard]] std::set<Pos> lookup(const std::string& raw) const {
    const std::string word = speccc::util::to_lower(raw);
    std::set<Pos> out;
    const auto it = words_.find(word);
    if (it != words_.end()) out = it->second;
    if (analyze_verb(word).has_value()) out.insert(Pos::kVerb);
    if (is_number(word)) out.insert(Pos::kNumber);
    if (time_unit_seconds(word).has_value()) out.insert(Pos::kTimeUnit);
    if (!out.empty()) return out;
    using speccc::util::ends_with;
    if (ends_with(word, "able") || ends_with(word, "ible") ||
        ends_with(word, "ive") || ends_with(word, "ous") ||
        ends_with(word, "al") || ends_with(word, "ful")) {
      out.insert(Pos::kAdjective);
    } else if (ends_with(word, "ly")) {
      out.insert(Pos::kAdverb);
    } else {
      out.insert(Pos::kNoun);
    }
    return out;
  }

  [[nodiscard]] std::optional<nlp::VerbAnalysis> analyze_verb(
      const std::string& raw) const {
    const std::string word = speccc::util::to_lower(raw);
    const auto irr = irregular_.find(word);
    if (irr != irregular_.end()) return irr->second;
    if (verb_lemmas_.count(word) > 0) {
      return nlp::VerbAnalysis{word, nlp::VerbForm::kBase};
    }
    const std::pair<const char*, nlp::VerbForm> rules[] = {
        {"ing", nlp::VerbForm::kGerund},
        {"ed", nlp::VerbForm::kPastParticiple},
        {"es", nlp::VerbForm::kThirdPerson},
        {"s", nlp::VerbForm::kThirdPerson},
    };
    for (const auto& [suffix, form] : rules) {
      for (const std::string& stem : strip_suffix_candidates(word, suffix)) {
        if (verb_lemmas_.count(stem) > 0) return nlp::VerbAnalysis{stem, form};
      }
    }
    return std::nullopt;
  }

  [[nodiscard]] static std::optional<unsigned> time_unit_seconds(
      const std::string& raw) {
    const std::string word = speccc::util::to_lower(raw);
    if (word == "second" || word == "seconds") return 1;
    if (word == "minute" || word == "minutes") return 60;
    if (word == "hour" || word == "hours") return 3600;
    if (word == "tick" || word == "ticks") return 1;
    return std::nullopt;
  }

  [[nodiscard]] speccc::util::Digest fingerprint() const {
    speccc::util::DigestBuilder builder("lexicon");
    const std::map<std::string, std::set<Pos>> words(words_.begin(), words_.end());
    builder.u64(words.size());
    for (const auto& [word, poss] : words) {
      builder.str(word);
      builder.u64(poss.size());
      for (Pos pos : poss) builder.u64(static_cast<std::uint64_t>(pos));
    }
    builder.u64(verb_lemmas_.size());
    for (const std::string& lemma : verb_lemmas_) builder.str(lemma);
    const std::map<std::string, nlp::VerbAnalysis> forms(irregular_.begin(),
                                                         irregular_.end());
    builder.u64(forms.size());
    for (const auto& [form, analysis] : forms) {
      builder.str(form);
      builder.str(analysis.lemma);
      builder.u64(static_cast<std::uint64_t>(analysis.form));
    }
    return builder.finalize();
  }

  [[nodiscard]] std::vector<nlp::Token> analyze(const std::string& sentence) const {
    return tag(tokenize(sentence));
  }

 private:
  static bool is_number(const std::string& word) {
    if (word.empty()) return false;
    for (char c : word) {
      if (std::isdigit(static_cast<unsigned char>(c)) == 0) return false;
    }
    return true;
  }

  static std::vector<std::string> strip_suffix_candidates(
      const std::string& word, const std::string& suffix) {
    std::vector<std::string> out;
    if (word.size() <= suffix.size() ||
        word.substr(word.size() - suffix.size()) != suffix) {
      return out;
    }
    const std::string stem = word.substr(0, word.size() - suffix.size());
    out.push_back(stem + "e");
    out.push_back(stem);
    if (stem.size() >= 2 && stem[stem.size() - 1] == stem[stem.size() - 2]) {
      out.push_back(stem.substr(0, stem.size() - 1));
    }
    if (!stem.empty() && stem.back() == 'i') {
      out.push_back(stem.substr(0, stem.size() - 1) + "y");
    }
    return out;
  }

  static std::vector<std::string> tokenize(const std::string& sentence) {
    std::vector<std::string> out;
    std::string current;
    const auto flush = [&] {
      if (!current.empty()) out.push_back(current);
      current.clear();
    };
    for (char c : sentence) {
      if (std::isalnum(static_cast<unsigned char>(c)) != 0) {
        current.push_back(c);
      } else {
        flush();
        if (c == ',' || c == '.') out.emplace_back(1, c);
      }
    }
    flush();
    return out;
  }

  static Pos pick_preferred(const std::set<Pos>& candidates, Pos preferred) {
    return candidates.count(preferred) > 0 ? preferred : *candidates.begin();
  }

  [[nodiscard]] std::vector<nlp::Token> tag(const std::vector<std::string>& words) const {
    std::vector<nlp::Token> out;
    for (std::size_t i = 0; i < words.size(); ++i) {
      const std::string& raw = words[i];
      const std::string w = speccc::util::to_lower(raw);
      nlp::Token token;
      token.text = w;
      token.lemma = w;
      token.capitalized = i > 0 && !raw.empty() &&
                          std::isupper(static_cast<unsigned char>(raw[0])) != 0;
      if (w == "," || w == ".") {
        token.pos = w == "," ? Pos::kComma : Pos::kPeriod;
        out.push_back(token);
        continue;
      }
      const std::set<Pos> candidates = lookup(w);
      const Pos prev = out.empty() ? Pos::kUnknown : out.back().pos;
      Pos chosen;
      if (candidates.count(Pos::kBe) > 0) {
        chosen = Pos::kBe;
      } else if (candidates.size() == 1) {
        chosen = *candidates.begin();
      } else if (prev == Pos::kDeterminer || prev == Pos::kAdjective) {
        chosen = pick_preferred(candidates, Pos::kNoun);
      } else if (prev == Pos::kBe) {
        chosen = candidates.count(Pos::kAdjective) > 0
                     ? Pos::kAdjective
                     : pick_preferred(candidates, Pos::kVerb);
      } else if (prev == Pos::kModal) {
        chosen = pick_preferred(candidates, Pos::kVerb);
      } else if (prev == Pos::kNumber) {
        chosen = pick_preferred(candidates, Pos::kTimeUnit);
      } else if (candidates.count(Pos::kNoun) > 0 &&
                 candidates.count(Pos::kVerb) > 0) {
        chosen = Pos::kNoun;
      } else {
        chosen = *candidates.begin();
      }
      token.pos = chosen;
      if (chosen == Pos::kVerb) {
        const auto analysis = analyze_verb(w);
        if (analysis.has_value()) {
          token.lemma = analysis->lemma;
          token.verb_form = analysis->form;
        }
      }
      out.push_back(token);
    }
    return out;
  }

  std::unordered_map<std::string, std::set<Pos>> words_;
  std::set<std::string> verb_lemmas_;
  std::unordered_map<std::string, nlp::VerbAnalysis> irregular_;
};

std::string describe(const std::vector<nlp::Token>& tokens) {
  std::ostringstream os;
  for (const nlp::Token& t : tokens) {
    os << t.text << "/" << t.lemma << "/" << nlp::pos_name(t.pos) << "/"
       << static_cast<int>(t.verb_form) << (t.capitalized ? "/cap" : "") << " ";
  }
  return os.str();
}

std::set<Pos> as_set(nlp::PosSet poss) {
  std::set<Pos> out;
  poss.for_each([&](Pos pos) { out.insert(pos); });
  return out;
}

/// Counts the words and sentences compared, and stops at the first few
/// disagreements so a regression reads as a short list.
class TaggerDiff {
 public:
  explicit TaggerDiff(const nlp::Lexicon& lexicon)
      : lexicon_(lexicon), legacy_(lexicon) {}

  /// Every query on one word (any case) and its one-word tagging.
  void word(const std::string& raw) {
    const std::string w = speccc::util::to_lower(raw);
    const auto verb = lexicon_.analyze_verb(w);
    const auto old_verb = legacy_.analyze_verb(raw);
    const bool same =
        as_set(lexicon_.lookup(w)) == legacy_.lookup(raw) &&
        verb.has_value() == old_verb.has_value() &&
        (!verb.has_value() ||
         (verb->lemma == old_verb->lemma && verb->form == old_verb->form)) &&
        lexicon_.time_unit_seconds(w) == LegacyTagger::time_unit_seconds(raw);
    if (!same && ++failures_ <= 10) ADD_FAILURE() << "queries differ on " << raw;
    sentence(raw);
  }

  void sentence(const std::string& text) {
    ++compared_;
    const std::string now = describe(nlp::analyze(text, lexicon_));
    const std::string before = describe(legacy_.analyze(text));
    if (now != before && ++failures_ <= 10) {
      ADD_FAILURE() << "tags differ on \"" << text << "\"\n  now:    " << now
                    << "\n  before: " << before;
    }
  }

  [[nodiscard]] std::size_t compared() const { return compared_; }
  [[nodiscard]] const LegacyTagger& legacy() const { return legacy_; }

 private:
  const nlp::Lexicon& lexicon_;
  LegacyTagger legacy_;
  std::size_t compared_ = 0;
  std::size_t failures_ = 0;
};

std::vector<std::string> builtin_lemmas() {
  std::vector<std::string> out;
  for (const auto& [word, e] : lex().entries()) {
    if (e->verb_lemma) out.emplace_back(word);
  }
  return out;
}

TEST(TaggerDiff, BuiltinWordsAndInflections) {
  TaggerDiff diff(lex());
  for (const auto& [word, e] : lex().entries()) diff.word(std::string(word));
  const std::vector<std::string> lemmas = builtin_lemmas();
  ASSERT_GT(lemmas.size(), 80u);
  for (const std::string& lemma : lemmas) {
    const std::string stem = lemma.substr(0, lemma.size() - 1);
    const char last = lemma.back();
    for (const std::string& form :
         {lemma + "s", lemma + "es", lemma + "ed", lemma + "ing", lemma + "d",
          lemma + last + "ed", lemma + last + "ing", stem + "ied", stem + "ies",
          stem + "ing", stem + "ed"}) {
      diff.word(form);
    }
  }
  EXPECT_GT(diff.compared(), 1000u);
}

TEST(TaggerDiff, CorpusSentences) {
  TaggerDiff diff(lex());
  for (const speccc::batch::SpecTask& task : speccc::batch::table1_tasks()) {
    for (const auto& req : task.requirements) diff.sentence(req.text);
  }
  EXPECT_EQ(diff.compared(), 397u);
  for (int index = 0; index < 200; ++index) {
    for (const auto& req : speccc::difftest::generated_spec(3, index).requirements) {
      diff.sentence(req.text);
    }
  }
  for (int index = 0; index < 1000; ++index) {
    for (const auto& req :
         speccc::difftest::generated_planted_spec(1, index).requirements) {
      diff.sentence(req.text);
    }
  }
  EXPECT_GT(diff.compared(), 10000u);
}

TEST(TaggerDiff, RandomMixedCaseWords) {
  // Half fully random, half a listed word with a suffix the morphology or
  // the open-class guess reacts to, each in random case.
  static const char kAlnum[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
  const char* const suffixes[] = {"s",  "es",   "ed",   "ing", "ied", "ly",
                                  "al", "able", "ible", "ive", "ous", "ful"};
  const auto words = lex().entries();
  std::mt19937 rng(2024);
  TaggerDiff diff(lex());
  for (int i = 0; i < 2000; ++i) {
    std::string word;
    if (i % 2 == 0) {
      const std::size_t length = 1 + rng() % 10;
      for (std::size_t k = 0; k < length; ++k) word += kAlnum[rng() % 62];
    } else {
      word = std::string(words[rng() % words.size()].first) + suffixes[rng() % 12];
      for (char& c : word) {
        if (rng() % 3 == 0) c = static_cast<char>(std::toupper(c));
      }
    }
    diff.word(word);
    diff.sentence("The " + word + " is " + word + " in 3 " + word + ".");
  }
  EXPECT_EQ(diff.compared(), 4000u);
}

TEST(TaggerDiff, CustomLexiconFromFile) {
  std::istringstream in(
      "flux noun\n"
      "defrag verb\n"
      "carry verb\n"
      "bat verb\n"   // "bated": both "bate" and "bat" are lemmas
      "bate verb\n"
      "wobbly adjective\n"
      "Swiftly adverb\n"
      "Control verb\n");
  auto lexicon = nlp::Lexicon::builtin();
  speccc::corpus::load_lexicon(in, lexicon);
  TaggerDiff diff(lexicon);
  EXPECT_EQ(lexicon.fingerprint(), diff.legacy().fingerprint());
  EXPECT_EQ(lex().fingerprint(), LegacyTagger(lex()).fingerprint());
  for (const char* word : {"flux", "defrag", "defragged", "defrags", "defragging",
                           "defragges", "carried", "carries", "wobbly",
                           "swiftly", "Control", "controls", "bated", "bating",
                           "bats", "bates", "batted"}) {
    diff.word(word);
  }
  diff.sentence("If the Flux is defragged, the wobbly pump swiftly controls it.");
  diff.sentence("When the flux defrags, the cuff is carried in 3 minutes.");
}

// ---- One const lexicon shared across threads ---------------------------------

/// Everything a parse decides, as text.
std::string describe(const nlp::Sentence& s) {
  std::ostringstream os;
  os << nlp::syntax_tree(s);
  s.for_each_clause([&](const nlp::Clause& clause) {
    for (const nlp::NounPhrase& np : clause.subjects) {
      for (const nlp::NpWord& w : np.words) {
        os << w.text << ":" << nlp::pos_name(w.pos) << (w.capitalized ? "^" : "")
           << " ";
      }
    }
    os << "\n";
  });
  return os.str();
}

TEST(Lexicon, ConcurrentParsesAgree) {
  const nlp::Lexicon lexicon = nlp::Lexicon::builtin();
  std::vector<std::string> texts;
  for (const speccc::batch::SpecTask& task : speccc::batch::table1_tasks()) {
    for (const auto& req : task.requirements) texts.push_back(req.text);
  }
  const auto parse_all = [&] {
    std::vector<std::string> out;
    for (const std::string& text : texts) {
      out.push_back(describe(nlp::parse_sentence(text, lexicon)));
    }
    return out;
  };
  const std::vector<std::string> sequential = parse_all();
  std::vector<std::vector<std::string>> parallel(4);
  std::vector<std::thread> threads;
  for (auto& out : parallel) threads.emplace_back([&] { out = parse_all(); });
  for (std::thread& t : threads) t.join();
  for (const auto& out : parallel) EXPECT_EQ(out, sequential);
}

}  // namespace
