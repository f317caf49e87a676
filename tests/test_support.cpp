// Tests for the support utilities.
#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>

#include "support/error.h"
#include "support/json.h"
#include "support/strings.h"

namespace cayman {
namespace {

TEST(StringsTest, SplitKeepsEmptyPieces) {
  auto pieces = split("a,b,,c", ',');
  ASSERT_EQ(pieces.size(), 4u);
  EXPECT_EQ(pieces[0], "a");
  EXPECT_EQ(pieces[2], "");
  EXPECT_EQ(pieces[3], "c");
  EXPECT_EQ(split("", ',').size(), 1u);
  EXPECT_EQ(split("xyz", ',').size(), 1u);
}

TEST(StringsTest, TrimBothEnds) {
  EXPECT_EQ(trim("  hi  "), "hi");
  EXPECT_EQ(trim("\t\nvalue\r "), "value");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("solid"), "solid");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(startsWith("module \"x\"", "module"));
  EXPECT_FALSE(startsWith("mod", "module"));
  EXPECT_TRUE(startsWith("anything", ""));
}

TEST(ParseLongTest, AcceptsFullyConsumedInRangeIntegers) {
  EXPECT_EQ(parseLong("42", 0, 100), 42);
  EXPECT_EQ(parseLong("-7", -10, 10), -7);
  EXPECT_EQ(parseLong("0", 0, 0), 0);
}

TEST(ParseLongTest, RejectsGarbageAndRangeViolations) {
  EXPECT_FALSE(parseLong("", 0, 100).has_value());
  EXPECT_FALSE(parseLong("8x", 0, 100).has_value());
  EXPECT_FALSE(parseLong("x8", 0, 100).has_value());
  EXPECT_FALSE(parseLong(" 8 ", 0, 100).has_value());
  EXPECT_FALSE(parseLong("1e2", 0, 1000).has_value());
  EXPECT_FALSE(parseLong("101", 0, 100).has_value());
  EXPECT_FALSE(parseLong("-1", 0, 100).has_value());
  EXPECT_FALSE(parseLong("99999999999999999999", 0, 100).has_value());
}

TEST(ParseDoubleTest, AcceptsFiniteInRangeValues) {
  EXPECT_DOUBLE_EQ(*parseDouble("0.25", 0.0, 1.0), 0.25);
  EXPECT_DOUBLE_EQ(*parseDouble("1", 0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(*parseDouble("1e-3", 0.0, 1.0), 0.001);
}

TEST(ParseDoubleTest, RejectsGarbageNaNAndRangeViolations) {
  EXPECT_FALSE(parseDouble("", 0.0, 1.0).has_value());
  EXPECT_FALSE(parseDouble("0.25x", 0.0, 1.0).has_value());
  EXPECT_FALSE(parseDouble("nan", 0.0, 1.0).has_value());
  EXPECT_FALSE(parseDouble("0", 0.0, 1.0).has_value());  // minExclusive
  EXPECT_FALSE(parseDouble("-0.5", 0.0, 1.0).has_value());
  EXPECT_FALSE(parseDouble("1.5", 0.0, 1.0).has_value());
  EXPECT_FALSE(parseDouble("1e999", 0.0, 1e300).has_value());  // ERANGE
}

TEST(ParseJobsTest, SharedContractForFlagAndEnv) {
  EXPECT_EQ(*parseJobs("1"), 1u);
  EXPECT_EQ(*parseJobs("1024"), 1024u);
  EXPECT_FALSE(parseJobs("0").has_value());
  EXPECT_FALSE(parseJobs("-3").has_value());
  EXPECT_FALSE(parseJobs("8x").has_value());
  EXPECT_FALSE(parseJobs("1025").has_value());
  EXPECT_FALSE(parseJobs("banana").has_value());
}

TEST(JsonTest, DumpIsDeterministicAndInsertionOrdered) {
  namespace json = support::json;
  json::Value object = json::Value::object();
  object.set("zeta", 1);
  object.set("alpha", true);
  object.set("mid", "x");
  object.set("zeta", 2);  // overwrite keeps position
  EXPECT_EQ(object.dump(), "{\"zeta\":2,\"alpha\":true,\"mid\":\"x\"}");
}

TEST(JsonTest, NumberFormattingRoundTrips) {
  namespace json = support::json;
  for (double value : {0.25, 1.0 / 3.0, 1e300, 5e-324, -0.0, 123456.789}) {
    std::string text = json::formatNumber(value);
    EXPECT_EQ(std::strtod(text.c_str(), nullptr), value) << text;
  }
  // Non-finite values are not representable in JSON.
  EXPECT_EQ(json::formatNumber(std::numeric_limits<double>::quiet_NaN()),
            "null");
  EXPECT_EQ(json::formatNumber(std::numeric_limits<double>::infinity()),
            "null");
}

TEST(JsonTest, ParseRoundTripsAndEscapes) {
  namespace json = support::json;
  const char* text =
      "{\"a\":[1,2.5,null,true,\"q\\\"uote\\n\"],\"b\":{\"c\":-3}}";
  support::Expected<json::Value> parsed = json::parse(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().dump(), text);
}

TEST(JsonTest, ParseRejectsGarbageWithPosition) {
  namespace json = support::json;
  support::Expected<json::Value> missing = json::parse("{\"a\":}");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.diagnostic().line, 1);
  EXPECT_GT(missing.diagnostic().col, 1);
  EXPECT_FALSE(json::parse("[1,2").ok());
  EXPECT_FALSE(json::parse("[1] trailing").ok());
  EXPECT_FALSE(json::parse("").ok());
  // Depth cap: a pathological nest fails instead of smashing the stack.
  std::string deep(100, '[');
  EXPECT_FALSE(json::parse(deep).ok());
}

TEST(ErrorTest, AssertMacroThrowsWithContext) {
  try {
    CAYMAN_ASSERT(1 == 2, "math broke");
    FAIL() << "assert did not throw";
  } catch (const Error& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("math broke"), std::string::npos);
    EXPECT_NE(what.find("test_support.cpp"), std::string::npos);
  }
}

TEST(ErrorTest, PassingAssertIsSilent) {
  EXPECT_NO_THROW(CAYMAN_ASSERT(2 + 2 == 4, "fine"));
}

}  // namespace
}  // namespace cayman
