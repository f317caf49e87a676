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

  spec = parseInjectFault("atax:baselines");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec.value().stage, Stage::Baselines);
}

TEST(InjectFaultTest, RejectsMalformedSpecs) {
  for (const char* bad :
       {"", "atax", "atax:", ":select", "atax:compile", "atax:select:extra",
        "atax:Select", "atax:cache"}) {
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

TEST(EnvWrapperTest, UnsetAndEmptyAreCleanNullopt) {
  unsetenv("CAYMAN_INJECT_FAULT");
  Expected<std::optional<FaultSpec>> unset = envInjectFault();
  ASSERT_TRUE(unset.ok());
  EXPECT_FALSE(unset.value().has_value());

  setenv("CAYMAN_INJECT_FAULT", "", 1);
  Expected<std::optional<FaultSpec>> empty = envInjectFault();
  ASSERT_TRUE(empty.ok());
  EXPECT_FALSE(empty.value().has_value());
  unsetenv("CAYMAN_INJECT_FAULT");
}

TEST(EnvWrapperTest, SetValuesParseAndMalformedFail) {
  setenv("CAYMAN_INJECT_FAULT", "atax:select", 1);
  Expected<std::optional<FaultSpec>> fault = envInjectFault();
  ASSERT_TRUE(fault.ok());
  ASSERT_TRUE(fault.value().has_value());
  EXPECT_EQ(fault.value()->stage, Stage::Select);

  setenv("CAYMAN_INJECT_FAULT", "atax:melt", 1);
  EXPECT_FALSE(envInjectFault().ok());
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
