// Tests for the util/ layer's parsers and writers: util::json (the one
// JSON path every report and protocol line goes through) and
// util::parse_number (the strict numeric flag parser of the tools/
// binaries).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "util/diagnostics.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace json = speccc::util::json;
using speccc::util::ParseError;
using speccc::util::parse_number;

// ---- util::json -------------------------------------------------------------

TEST(UtilJson, ParsesScalarsArraysAndObjects) {
  const json::Value doc =
      json::parse(R"({"a":1,"b":[true,null,"x"],"c":{"d":-2.5}})");
  ASSERT_EQ(doc.kind(), json::Kind::kObject);
  EXPECT_EQ(doc.find("a")->as_number(), 1.0);
  const json::Array& b = doc.find("b")->as_array();
  ASSERT_EQ(b.size(), 3u);
  EXPECT_TRUE(b[0].as_bool());
  EXPECT_TRUE(b[1].is_null());
  EXPECT_EQ(b[2].as_string(), "x");
  EXPECT_EQ(doc.find("c")->find("d")->as_number(), -2.5);
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(UtilJson, DecodesEscapesIncludingSurrogatePairs) {
  const json::Value doc = json::parse(R"("a\n\t\"\\é😀")");
  EXPECT_EQ(doc.as_string(), "a\n\t\"\\\xc3\xa9\xf0\x9f\x98\x80");
}

TEST(UtilJson, RejectsMalformedDocuments) {
  EXPECT_THROW(json::parse(""), ParseError);
  EXPECT_THROW(json::parse("{"), ParseError);
  EXPECT_THROW(json::parse("{}extra"), ParseError);
  EXPECT_THROW(json::parse("{\"a\":}"), ParseError);
  EXPECT_THROW(json::parse("[1,]"), ParseError);
  EXPECT_THROW(json::parse("nul"), ParseError);
  EXPECT_THROW(json::parse("\"unterminated"), ParseError);
  EXPECT_THROW(json::parse("\"bad \\q escape\""), ParseError);
  EXPECT_THROW(json::parse("\"lone \\ud800 surrogate\""), ParseError);
  EXPECT_THROW(json::parse("1.2.3"), ParseError);
  // Depth cap: reject a pathological nesting chain rather than recurse.
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_THROW(json::parse(deep), ParseError);
  // Checked accessors throw on kind mismatch.
  EXPECT_THROW((void)json::parse("42").as_string(), ParseError);
}

TEST(UtilJson, WritesDeterministicallyWithSortedKeysAndExactIntegers) {
  json::Object o;
  o["zeta"] = json::Value(std::int64_t{1234567890123});
  o["alpha"] = json::Value(0.5);
  o["mid"] = json::Value("a\"b\nc");
  std::string out;
  json::write(out, json::Value(o));
  EXPECT_EQ(out, R"({"alpha":0.5,"mid":"a\"b\nc","zeta":1234567890123})");
  // Round-trip: what we write, we parse.
  const json::Value back = json::parse(out);
  EXPECT_EQ(back.find("zeta")->as_number(), 1234567890123.0);
}

TEST(UtilJson, CountsAreNonNegativeIntegersAndMembersAreChecked) {
  const json::Value doc = json::parse(
      R"({"n":42,"big":9007199254740992,"neg":-1,"frac":1.5,"s":"7"})");
  EXPECT_EQ(doc.at("n").as_count(), 42u);
  EXPECT_EQ(doc.at("big").as_count(), 9007199254740992u);
  EXPECT_THROW((void)doc.at("neg").as_count(), ParseError);
  EXPECT_THROW((void)doc.at("frac").as_count(), ParseError);
  EXPECT_THROW((void)doc.at("s").as_count(), ParseError);
  EXPECT_THROW((void)json::parse("1e300").as_count(), ParseError);
  EXPECT_THROW((void)doc.at("missing"), ParseError);
}

TEST(UtilJson, NonIntegerDoublesUseTheShortestRoundTripForm) {
  for (const double value : {0.1, 0.040601193, 1e-7, 123456.789, -2.5e20}) {
    std::string out;
    json::write_number(out, value);
    EXPECT_EQ(json::parse(out).as_number(), value) << out;
    EXPECT_LE(out.size(), 12u) << out;
  }
}

// ---- util::parse_number -----------------------------------------------------

TEST(ParseNumber, AcceptsWholeIntegersWithinRange) {
  EXPECT_EQ(parse_number<int>("2"), 2);
  EXPECT_EQ(parse_number<int>("-7"), -7);
  EXPECT_EQ(parse_number<int>("1", 1, 6), 1);
  EXPECT_EQ(parse_number<int>("6", 1, 6), 6);
  EXPECT_EQ(parse_number<std::uint64_t>("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(ParseNumber, RejectsTrailingGarbageSignsAndOverflow) {
  for (const char* text : {"", "2x", "abc", " 2", "2 ", "+2", "0x10", "1.5",
                           "99999999999"}) {
    EXPECT_FALSE(parse_number<int>(text).has_value()) << text;
  }
  EXPECT_FALSE(parse_number<std::uint64_t>("-1").has_value());
  EXPECT_FALSE(parse_number<std::uint64_t>("18446744073709551616").has_value());
  EXPECT_FALSE(parse_number<int>("0", 1).has_value());
  EXPECT_FALSE(parse_number<int>("7", 1, 6).has_value());
}

TEST(ParseNumber, DoublesAreFiniteAndWhole) {
  EXPECT_EQ(parse_number<double>("0.25"), 0.25);
  EXPECT_EQ(parse_number<double>("10"), 10.0);
  EXPECT_EQ(parse_number<double>("1e3"), 1000.0);
  for (const char* text : {"", "abc", "0.25s", "inf", "nan", "1e999"}) {
    EXPECT_FALSE(parse_number<double>(text).has_value()) << text;
  }
  EXPECT_FALSE(parse_number<double>("-0.5", 0.0).has_value());
}
