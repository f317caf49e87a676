// Tests for the strict CAYMAN_INJECT_* spec parsers. The hooks used to be
// hand-parsed with silent fallbacks; these tests pin the loud-rejection
// contract: every malformed spec is a Diagnostic naming the variable, and
// the env wrappers distinguish unset (ok nullopt) from malformed (failed).
#include <gtest/gtest.h>

#include <cstdlib>

#include "support/envhooks.h"

namespace cayman::support::envhooks {
namespace {

TEST(InjectFaultTest, ParsesWorkloadAndStage) {
  Expected<FaultSpec> spec = parseInjectFault("bicg:select");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec.value().workload, "bicg");
  EXPECT_EQ(spec.value().stage, Stage::Select);

  spec = parseInjectFault("atax:cache");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec.value().stage, Stage::Cache);

  spec = parseInjectFault("atax:baselines");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec.value().stage, Stage::Baselines);
}

TEST(InjectFaultTest, RejectsMalformedSpecs) {
  for (const char* bad :
       {"", "atax", "atax:", ":select", "atax:compile", "atax:select:extra",
        "atax:Select"}) {
    Expected<FaultSpec> spec = parseInjectFault(bad);
    EXPECT_FALSE(spec.ok()) << "'" << bad << "' should be rejected";
    if (!spec.ok()) {
      EXPECT_EQ(spec.diagnostic().unit, "CAYMAN_INJECT_FAULT");
      EXPECT_NE(spec.diagnostic().message.find("invalid spec"),
                std::string::npos);
    }
  }
}

TEST(InjectSlowTest, ParsesWorkloadAndMicros) {
  Expected<SlowSpec> spec = parseInjectSlow("bicg:generate:400000");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec.value().workload, "bicg");
  EXPECT_EQ(spec.value().micros, 400000u);

  spec = parseInjectSlow("fft:generate:0");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec.value().micros, 0u);
}

TEST(InjectSlowTest, RejectsMalformedSpecs) {
  for (const char* bad :
       {"", "atax:generate", "atax:generate:fast", "atax:generate:-5",
        "atax:select:100", ":generate:100", "atax:generate:100:x",
        "atax:generate:2000000000"}) {
    Expected<SlowSpec> spec = parseInjectSlow(bad);
    EXPECT_FALSE(spec.ok()) << "'" << bad << "' should be rejected";
    if (!spec.ok()) {
      EXPECT_EQ(spec.diagnostic().unit, "CAYMAN_INJECT_SLOW");
    }
  }
}

TEST(InjectCorruptTest, ParsesEveryMode) {
  struct Case {
    const char* text;
    CorruptMode mode;
    uint64_t offset;
  };
  for (const Case& c : {Case{"truncate:0", CorruptMode::Truncate, 0},
                        Case{"bitflip:100", CorruptMode::Bitflip, 100},
                        Case{"torn:40", CorruptMode::Torn, 40},
                        Case{"crash:0", CorruptMode::Crash, 0}}) {
    Expected<CorruptSpec> spec = parseInjectCorrupt(c.text);
    ASSERT_TRUE(spec.ok()) << c.text;
    EXPECT_EQ(spec.value().mode, c.mode) << c.text;
    EXPECT_EQ(spec.value().offset, c.offset) << c.text;
  }
}

TEST(InjectCorruptTest, RejectsMalformedSpecs) {
  for (const char* bad : {"", "melt:12", "truncate", "truncate:", ":12",
                          "truncate:-1", "truncate:abc", "torn:40:extra",
                          "Truncate:0", "truncate:9999999999999999"}) {
    Expected<CorruptSpec> spec = parseInjectCorrupt(bad);
    EXPECT_FALSE(spec.ok()) << "'" << bad << "' should be rejected";
    if (!spec.ok()) {
      EXPECT_EQ(spec.diagnostic().unit, "CAYMAN_INJECT_CORRUPT");
      EXPECT_NE(spec.diagnostic().message.find("invalid spec"),
                std::string::npos);
    }
  }
}

TEST(InjectCorruptTest, ModeNamesRoundTrip) {
  for (CorruptMode m : {CorruptMode::Truncate, CorruptMode::Bitflip,
                        CorruptMode::Torn, CorruptMode::Crash}) {
    Expected<CorruptSpec> spec =
        parseInjectCorrupt(std::string(corruptModeName(m)) + ":7");
    ASSERT_TRUE(spec.ok());
    EXPECT_EQ(spec.value().mode, m);
  }
}

TEST(EnvWrapperTest, UnsetAndEmptyAreCleanNullopt) {
  unsetenv("CAYMAN_INJECT_CORRUPT");
  Expected<std::optional<CorruptSpec>> unset = envInjectCorrupt();
  ASSERT_TRUE(unset.ok());
  EXPECT_FALSE(unset.value().has_value());

  setenv("CAYMAN_INJECT_CORRUPT", "", 1);
  Expected<std::optional<CorruptSpec>> empty = envInjectCorrupt();
  ASSERT_TRUE(empty.ok());
  EXPECT_FALSE(empty.value().has_value());
  unsetenv("CAYMAN_INJECT_CORRUPT");
}

TEST(EnvWrapperTest, SetValuesParseAndMalformedFail) {
  setenv("CAYMAN_INJECT_CORRUPT", "bitflip:5", 1);
  Expected<std::optional<CorruptSpec>> good = envInjectCorrupt();
  ASSERT_TRUE(good.ok());
  ASSERT_TRUE(good.value().has_value());
  EXPECT_EQ(good.value()->mode, CorruptMode::Bitflip);
  EXPECT_EQ(good.value()->offset, 5u);

  setenv("CAYMAN_INJECT_CORRUPT", "melt:5", 1);
  EXPECT_FALSE(envInjectCorrupt().ok());
  unsetenv("CAYMAN_INJECT_CORRUPT");

  setenv("CAYMAN_INJECT_FAULT", "atax:select", 1);
  Expected<std::optional<FaultSpec>> fault = envInjectFault();
  ASSERT_TRUE(fault.ok());
  ASSERT_TRUE(fault.value().has_value());
  EXPECT_EQ(fault.value()->stage, Stage::Select);
  unsetenv("CAYMAN_INJECT_FAULT");

  setenv("CAYMAN_INJECT_SLOW", "atax:generate:10", 1);
  Expected<std::vector<SlowSpec>> slow = envInjectSlow();
  ASSERT_TRUE(slow.ok());
  ASSERT_EQ(slow.value().size(), 1u);
  EXPECT_EQ(slow.value()[0].micros, 10u);
  unsetenv("CAYMAN_INJECT_SLOW");
}

TEST(InjectSlowListTest, ParsesMultipleSpecs) {
  Expected<std::vector<SlowSpec>> specs =
      parseInjectSlowList("atax:generate:50000,bicg:generate:50000");
  ASSERT_TRUE(specs.ok());
  ASSERT_EQ(specs.value().size(), 2u);
  EXPECT_EQ(specs.value()[0].workload, "atax");
  EXPECT_EQ(specs.value()[0].micros, 50000u);
  EXPECT_EQ(specs.value()[1].workload, "bicg");
  EXPECT_EQ(specs.value()[1].micros, 50000u);
}

TEST(InjectSlowListTest, SingleSpecStillParses) {
  Expected<std::vector<SlowSpec>> specs =
      parseInjectSlowList("fft:generate:100");
  ASSERT_TRUE(specs.ok());
  ASSERT_EQ(specs.value().size(), 1u);
  EXPECT_EQ(specs.value()[0].workload, "fft");
}

TEST(InjectSlowListTest, RejectsEmptyElementsAndDuplicates) {
  for (const char* bad :
       {"", ",", "atax:generate:10,", ",atax:generate:10",
        "atax:generate:10,,bicg:generate:10",
        "atax:generate:10,atax:generate:20",
        "atax:generate:10,bicg:generate"}) {
    Expected<std::vector<SlowSpec>> specs = parseInjectSlowList(bad);
    EXPECT_FALSE(specs.ok()) << "'" << bad << "' should be rejected";
    if (!specs.ok()) {
      EXPECT_EQ(specs.diagnostic().unit, "CAYMAN_INJECT_SLOW");
    }
  }
}

TEST(InjectSlowListTest, DuplicateRejectionNamesTheWorkload) {
  Expected<std::vector<SlowSpec>> specs =
      parseInjectSlowList("mvt:generate:5,mvt:generate:9");
  ASSERT_FALSE(specs.ok());
  EXPECT_NE(specs.diagnostic().message.find("duplicate 'mvt'"),
            std::string::npos);
}

TEST(InjectSlowListTest, EnvWrapperAcceptsList) {
  setenv("CAYMAN_INJECT_SLOW", "atax:generate:1,bicg:generate:2", 1);
  Expected<std::vector<SlowSpec>> specs = envInjectSlow();
  ASSERT_TRUE(specs.ok());
  ASSERT_EQ(specs.value().size(), 2u);
  EXPECT_EQ(specs.value()[1].micros, 2u);

  setenv("CAYMAN_INJECT_SLOW", "atax:generate:1,atax:generate:2", 1);
  EXPECT_FALSE(envInjectSlow().ok());

  unsetenv("CAYMAN_INJECT_SLOW");
  Expected<std::vector<SlowSpec>> unset = envInjectSlow();
  ASSERT_TRUE(unset.ok());
  EXPECT_TRUE(unset.value().empty());
}

}  // namespace
}  // namespace cayman::support::envhooks
