// Tests for the NL -> LTL translator, anchored by the paper's appendix: all
// thirty CARA working-mode requirements must translate to the published
// formulas (modulo documented normalizations, see corpus/cara.hpp).
#include <gtest/gtest.h>

#include "batch/corpus_tasks.hpp"
#include "corpus/cara.hpp"
#include "ltl/formula.hpp"
#include "nlp/lexicon.hpp"
#include "semantics/antonyms.hpp"
#include "translate/translator.hpp"
#include "util/diagnostics.hpp"

namespace translate = speccc::translate;
namespace ltl = speccc::ltl;
using speccc::corpus::GoldenRequirement;

namespace {

const speccc::nlp::Lexicon& lex() {
  static auto lexicon = speccc::nlp::Lexicon::builtin();
  return lexicon;
}
const speccc::semantics::AntonymDictionary& dict() {
  static auto dictionary = speccc::semantics::AntonymDictionary::builtin();
  return dictionary;
}

translate::TranslationResult translate_texts(
    const std::vector<translate::RequirementText>& texts,
    translate::Options options = {},
    const translate::TickMapper& mapper = nullptr) {
  const translate::Translator tr(lex(), dict(), options);
  return tr.translate(texts, mapper);
}

std::string translate_one(const std::string& text,
                          translate::Options options = {}) {
  const auto result = translate_texts({{"t", text}}, options);
  return ltl::to_string(result.requirements[0].formula);
}

// ---- The golden corpus: raw (pre-abstraction) forms -------------------------

class CaraGoldenTest : public ::testing::TestWithParam<GoldenRequirement> {};

TEST_P(CaraGoldenTest, RawTranslationMatchesAppendix) {
  const GoldenRequirement& golden = GetParam();
  // Translate the whole corpus (semantic reasoning needs global context),
  // then check this requirement.
  const auto result = translate_texts(speccc::corpus::cara_working_mode_texts());
  const auto it = std::find_if(
      result.requirements.begin(), result.requirements.end(),
      [&golden](const auto& r) { return r.id == golden.id; });
  ASSERT_NE(it, result.requirements.end());
  const std::string expected =
      golden.expected_raw.empty() && golden.id != "Req-28" &&
              golden.id != "Req-42"
          ? golden.expected
          : golden.expected_raw;
  if (!expected.empty()) {
    EXPECT_EQ(ltl::to_string(it->formula), expected) << golden.text;
  }
  // Timed requirements harvest their tick counts.
  if (golden.id == "Req-08") {
    EXPECT_EQ(it->delays, std::vector<unsigned>{3});
  }
  if (golden.id == "Req-28") {
    EXPECT_EQ(it->delays, std::vector<unsigned>{180});
  }
  if (golden.id == "Req-42") {
    EXPECT_EQ(it->delays, std::vector<unsigned>{60});
  }
}

INSTANTIATE_TEST_SUITE_P(
    Appendix, CaraGoldenTest,
    ::testing::ValuesIn(speccc::corpus::cara_working_mode()),
    [](const ::testing::TestParamInfo<GoldenRequirement>& info) {
      std::string name = info.param.id;
      for (char& c : name) {
        if (c == '-' || c == '.') c = '_';
      }
      return name;
    });

TEST(CaraGolden, AbstractedFormsMatchAppendix) {
  // The appendix lists the formulas after abstraction with d = 60 (the
  // paper's Section IV-E example): Req-08 loses its X's, Req-28 keeps 3,
  // Req-42 keeps 1.
  const translate::TickMapper mapper = [](unsigned ticks) -> unsigned {
    switch (ticks) {
      case 3: return 0;
      case 180: return 3;
      case 60: return 1;
      default: return ticks;
    }
  };
  const auto result =
      translate_texts(speccc::corpus::cara_working_mode_texts(), {}, mapper);
  for (const auto& golden : speccc::corpus::cara_working_mode()) {
    const auto it = std::find_if(
        result.requirements.begin(), result.requirements.end(),
        [&golden](const auto& r) { return r.id == golden.id; });
    ASSERT_NE(it, result.requirements.end());
    EXPECT_EQ(ltl::to_string(it->formula), golden.expected) << golden.id;
  }
}

// ---- Feature-level translation tests ----------------------------------------

TEST(Translator, NextModeStrictEmitsX) {
  translate::Options strict;
  strict.next_mode = translate::NextMode::kStrict;
  EXPECT_EQ(translate_one("If the cuff is selected, next the alarm is issued.",
                          strict),
            "G (select_cuff -> X issue_alarm)");
  // Appendix mode drops the X (default).
  EXPECT_EQ(translate_one("If the cuff is selected, next the alarm is issued."),
            "G (select_cuff -> issue_alarm)");
}

TEST(Translator, SemanticReasoningToggle) {
  translate::Options no_reasoning;
  no_reasoning.semantic_reasoning = false;
  // Without reduction the complements stay in the proposition names.
  EXPECT_EQ(translate_one("If the cuff is available, the alarm is issued.",
                          no_reasoning),
            "G (available_cuff -> issue_alarm)");
  EXPECT_EQ(translate_one("If the cuff is available, the alarm is issued."),
            "G (cuff -> issue_alarm)");
}

TEST(Translator, ReductionCountsPropositions) {
  // Section IV-D's point: reasoning reduces the proposition count.
  const std::vector<translate::RequirementText> texts = {
      {"a", "If the pulse wave is available, the alarm is issued."},
      {"b", "If the pulse wave is unavailable, the alarm is silenced."},
  };
  translate::Options no_reasoning;
  no_reasoning.semantic_reasoning = false;
  const auto with = translate_texts(texts);
  const auto without = translate_texts(texts, no_reasoning);
  EXPECT_LT(with.propositions.size(), without.propositions.size());
  EXPECT_TRUE(with.propositions.count("pulse_wave") > 0);
  EXPECT_TRUE(without.propositions.count("available_pulse_wave") > 0);
  EXPECT_TRUE(without.propositions.count("unavailable_pulse_wave") > 0);
}

TEST(Translator, ExistencePattern) {
  EXPECT_EQ(translate_one("Eventually the cuff is inflated."),
            "F inflate_cuff");
}

TEST(Translator, UniversalityWrapsEverythingElse) {
  EXPECT_EQ(translate_one("The alarm is disabled."), "G !alarm");
  EXPECT_EQ(translate_one("Always the alarm is disabled."), "G !alarm");
}

TEST(Translator, FutureTenseBecomesEventually) {
  EXPECT_EQ(translate_one("If the pump is detected, the alarm will be "
                          "issued."),
            "G (detect_pump -> F issue_alarm)");
  // "should" is not future.
  EXPECT_EQ(translate_one("If the pump is detected, the alarm should be "
                          "issued."),
            "G (detect_pump -> issue_alarm)");
}

TEST(Translator, TimedConstraintOverridesFuture) {
  EXPECT_EQ(
      translate_one("If the pump is detected, the alarm will be issued in 2 "
                    "seconds."),
      "G (detect_pump -> X X issue_alarm)");
}

TEST(Translator, MinutesConvertToSeconds) {
  const auto result = translate_texts(
      {{"t", "If the pump is detected, the alarm is issued in 2 minutes."}});
  EXPECT_EQ(result.requirements[0].delays, std::vector<unsigned>{120});
}

TEST(Translator, PronounResolution) {
  EXPECT_EQ(
      translate_one("When the start button is enabled, the start button is "
                    "enabled until it is pressed."),
      "G (start_button -> !press_start_button -> start_button W "
      "press_start_button)");
}

TEST(Translator, MultiSubjectDistribution) {
  EXPECT_EQ(translate_one("If the cuff and the pulse wave are unavailable, "
                          "the alarm is issued."),
            "G (!cuff && !pulse_wave -> issue_alarm)");
  EXPECT_EQ(translate_one("If the cuff or the pulse wave is unavailable, "
                          "the alarm is issued."),
            "G (!cuff || !pulse_wave -> issue_alarm)");
}

TEST(Translator, PrepositionalPredicates) {
  translate::Options strict;
  strict.next_mode = translate::NextMode::kStrict;
  EXPECT_EQ(
      translate_one(
          "If the robot is in room 1, next the robot is in room 1 or room 2.",
          strict),
      "G (robot_in_room_1 -> X (robot_in_room_1 || robot_in_room_2))");
}

TEST(Translator, ThetasCollectsDistinctDelays) {
  const auto result = translate_texts({
      {"a", "If the pump is detected, the alarm is issued in 3 seconds."},
      {"b", "If the valve is selected, the alarm is issued in 60 seconds."},
      {"c", "If the door is detected, the alarm is issued in 3 seconds."},
  });
  EXPECT_EQ(result.thetas(), (std::vector<std::uint32_t>{3, 60}));
}

TEST(Translator, AnalyzeReadsThetaOffTheParse) {
  // Theta comes from the parsed constraints, before any formula is built,
  // and must be the set the emitted requirements record as delays.
  const translate::Translator tr(lex(), dict());
  for (const speccc::batch::SpecTask& task : speccc::batch::table1_tasks()) {
    const translate::Analysis analysis = tr.analyze(task.requirements);
    EXPECT_EQ(analysis.sentences.size(), task.requirements.size());
    EXPECT_EQ(analysis.thetas, tr.translate(task.requirements).thetas())
        << task.name;
  }
}

TEST(Translator, EmitMapsTicksButRecordsRawDelays) {
  const std::vector<translate::RequirementText> spec = {
      {"a", "If the pump is detected, the alarm is issued in 3 seconds."},
      {"b", "If the valve is selected, the alarm is issued in 60 seconds."},
  };
  const translate::Translator tr(lex(), dict());
  translate::Analysis analysis = tr.analyze(spec);
  ASSERT_EQ(analysis.thetas, (std::vector<std::uint32_t>{3, 60}));
  const translate::TickMapper mapper =
      translate::remap_ticks(analysis.thetas, {0, 1});
  EXPECT_EQ(mapper(7), 7u);  // not in Theta: unchanged
  const auto result = tr.emit(std::move(analysis), spec, mapper);
  EXPECT_EQ(ltl::to_string(result.requirements[0].formula),
            "G (detect_pump -> issue_alarm)");
  EXPECT_EQ(ltl::to_string(result.requirements[1].formula),
            "G (select_valve -> X issue_alarm)");
  EXPECT_EQ(result.requirements[0].delays, (std::vector<unsigned>{3}));
  EXPECT_EQ(result.requirements[1].delays, (std::vector<unsigned>{60}));
  EXPECT_EQ(result.thetas(), (std::vector<std::uint32_t>{3, 60}));
  // The parse moved into the result intact.
  EXPECT_EQ(result.requirements[1].sentence.text, spec[1].text);
}

TEST(Translator, UngrammaticalInputThrows) {
  EXPECT_THROW(
      (void)translate_texts({{"bad", "This no grammar very wrong."}}),
      speccc::util::ParseError);
}

}  // namespace
