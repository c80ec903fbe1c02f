// Tests for the corpus module: the published CARA texts, the seeded
// generators, and the file-format loaders.
#include <gtest/gtest.h>

#include <sstream>

#include "corpus/cara.hpp"
#include "corpus/generator.hpp"
#include "corpus/loaders.hpp"
#include "corpus/robot.hpp"
#include "corpus/telepromise.hpp"
#include "nlp/syntax.hpp"
#include "util/diagnostics.hpp"

namespace corpus = speccc::corpus;

namespace {

TEST(CaraCorpus, ThirtyRequirements) {
  EXPECT_EQ(corpus::cara_working_mode().size(), 30u);
  // Every text parses under the builtin lexicon.
  const auto lexicon = speccc::nlp::Lexicon::builtin();
  for (const auto& req : corpus::cara_working_mode()) {
    EXPECT_NO_THROW((void)speccc::nlp::parse_sentence(req.text, lexicon))
        << req.id;
  }
}

TEST(CaraCorpus, ComponentScalesMatchTable) {
  const auto components = corpus::cara_component_specs();
  ASSERT_EQ(components.size(), 13u);
  // Spot-check the published scales.
  EXPECT_EQ(components[0].number, "1");
  EXPECT_EQ(components[0].table_formulas, 20);
  EXPECT_EQ(components[12].number, "3.2");
  EXPECT_EQ(components[12].table_formulas, 56);
  for (const auto& c : components) {
    EXPECT_EQ(c.requirements.size(), static_cast<std::size_t>(c.table_formulas))
        << c.name;
  }
}

TEST(Generator, DeterministicForFixedSeed) {
  corpus::SpecScale scale{"det", 10, 6, 7, 99, 20, 20};
  const auto a = corpus::generate_spec(scale, corpus::device_theme());
  const auto b = corpus::generate_spec(scale, corpus::device_theme());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].text, b[i].text);
}

TEST(Generator, DifferentSeedsDiffer) {
  corpus::SpecScale a{"s", 10, 6, 7, 1, 20, 20};
  corpus::SpecScale b{"s", 10, 6, 7, 2, 20, 20};
  const auto sa = corpus::generate_spec(a, corpus::device_theme());
  const auto sb = corpus::generate_spec(b, corpus::device_theme());
  bool any_diff = false;
  for (std::size_t i = 0; i < sa.size(); ++i) {
    if (sa[i].text != sb[i].text) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Generator, RejectsInfeasibleScales) {
  corpus::SpecScale too_many_inputs{"bad", 2, 10, 2, 1, 0, 0};
  EXPECT_THROW(
      (void)corpus::generate_spec(too_many_inputs, corpus::device_theme()),
      speccc::util::InvalidInputError);
  corpus::SpecScale zero{"bad", 0, 1, 1, 1, 0, 0};
  EXPECT_THROW((void)corpus::generate_spec(zero, corpus::device_theme()),
               speccc::util::InvalidInputError);
}

TEST(RobotCorpus, FormulaCountsFollowTheClosedForm) {
  // 1 robot: rooms movement + 1 alive + 3 rescue + 1 existence.
  EXPECT_EQ(corpus::robot_spec(1, 4).requirements.size(), 9u);
  EXPECT_EQ(corpus::robot_spec(1, 9).requirements.size(), 14u);
  // 2 robots: 2*rooms movement + rooms exclusion + 2 alive + 3 rescue +
  // rooms existence.
  EXPECT_EQ(corpus::robot_spec(2, 5).requirements.size(), 25u);
  EXPECT_EQ(corpus::robot_spec(2, 3).requirements.size(), 17u);
}

TEST(TeleCorpus, TrapsOnlyInTheLastTwo) {
  const auto specs = corpus::telepromise_specs();
  ASSERT_EQ(specs.size(), 5u);
  EXPECT_FALSE(specs[0].partition_trap);
  EXPECT_FALSE(specs[1].partition_trap);
  EXPECT_FALSE(specs[2].partition_trap);
  EXPECT_TRUE(specs[3].partition_trap);
  EXPECT_TRUE(specs[4].partition_trap);
}

// ---- Loaders ------------------------------------------------------------------

TEST(Loaders, RequirementsWithAndWithoutIds) {
  std::istringstream in(
      "# comment\n"
      "\n"
      "R1: If the pump is detected, the alarm is issued.\n"
      "The cuff is available.\n");
  const auto reqs = corpus::load_requirements(in);
  ASSERT_EQ(reqs.size(), 2u);
  EXPECT_EQ(reqs[0].id, "R1");
  EXPECT_EQ(reqs[0].text, "If the pump is detected, the alarm is issued.");
  EXPECT_EQ(reqs[1].id, "L4");
}

TEST(Loaders, RequirementIdWithoutSentenceThrows) {
  std::istringstream in("R1:\n");
  EXPECT_THROW((void)corpus::load_requirements(in), speccc::util::ParseError);
}

TEST(Loaders, LexiconExtension) {
  std::istringstream in(
      "flux noun\n"
      "defrag verb\n"
      "wobbly adjective\n");
  auto lexicon = speccc::nlp::Lexicon::builtin();
  corpus::load_lexicon(in, lexicon);
  EXPECT_TRUE(lexicon.lookup("flux").contains(speccc::nlp::Pos::kNoun));
  EXPECT_TRUE(lexicon.analyze_verb("defragged").has_value());
  EXPECT_TRUE(lexicon.lookup("wobbly").contains(speccc::nlp::Pos::kAdjective));
}

TEST(Loaders, LexiconBadPosThrows) {
  std::istringstream in("word gerundive\n");
  auto lexicon = speccc::nlp::Lexicon::builtin();
  EXPECT_THROW(corpus::load_lexicon(in, lexicon), speccc::util::ParseError);
}

TEST(Loaders, AntonymExtension) {
  std::istringstream in("armed disarmed\n");
  auto dict = speccc::semantics::AntonymDictionary::builtin();
  corpus::load_antonyms(in, dict);
  EXPECT_EQ(dict.polarity("disarmed"), speccc::semantics::Polarity::kNegative);
}

TEST(Loaders, AntonymBadLineThrows) {
  std::istringstream in("lonely\n");
  auto dict = speccc::semantics::AntonymDictionary::builtin();
  EXPECT_THROW(corpus::load_antonyms(in, dict), speccc::util::ParseError);
}

}  // namespace
