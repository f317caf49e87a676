// Fault-isolation tests for the evaluation driver: a failing workload must
// come back as a structured FAILED row while sibling rows stay byte-identical
// to a clean run, timeouts must surface as cancellation diagnostics, and the
// clean-run table format must not change at all.
#include <gtest/gtest.h>

#include <cstdlib>

#include "cayman/driver.h"

namespace cayman {
namespace {

using support::Stage;

const std::vector<std::string> kNames = {"atax", "bicg", "mvt"};
constexpr double kBudget = 0.25;

TEST(DriverFailureTest, CleanRunHasNoFailures) {
  std::vector<WorkloadEvaluation> evaluations =
      evaluateWorkloads(kNames, kBudget, 2);
  ASSERT_EQ(evaluations.size(), kNames.size());
  EXPECT_EQ(countFailures(evaluations), 0u);
  for (const WorkloadEvaluation& evaluation : evaluations) {
    EXPECT_TRUE(evaluation.ok());
  }
}

TEST(DriverFailureTest, InjectedFaultIsolatesToItsWorkload) {
  std::vector<WorkloadEvaluation> clean =
      evaluateWorkloads(kNames, kBudget, 1);

  // Inject a fault into bicg only (env hook, exactly what the CLI honors).
  ASSERT_EQ(setenv("CAYMAN_INJECT_FAULT", "bicg:select", 1), 0);
  std::vector<WorkloadEvaluation> faulty =
      evaluateWorkloads(kNames, kBudget, 2);
  ASSERT_EQ(unsetenv("CAYMAN_INJECT_FAULT"), 0);

  ASSERT_EQ(faulty.size(), clean.size());
  EXPECT_EQ(countFailures(faulty), 1u);

  for (size_t i = 0; i < faulty.size(); ++i) {
    if (clean[i].name == "bicg") {
      ASSERT_FALSE(faulty[i].ok());
      EXPECT_EQ(faulty[i].failure->stage, Stage::Select);
      EXPECT_NE(faulty[i].failure->message.find("injected fault"),
                std::string::npos);
      std::string line = formatEvaluationLine(faulty[i]);
      EXPECT_NE(line.find("FAILED select:"), std::string::npos);
    } else {
      // Sibling rows are byte-identical to the clean sequential run.
      ASSERT_TRUE(faulty[i].ok());
      EXPECT_EQ(formatEvaluationLine(faulty[i]),
                formatEvaluationLine(clean[i]))
          << clean[i].name;
    }
  }
}

TEST(DriverFailureTest, FailAfterStageOptionInjectsEverywhere) {
  FrameworkOptions options;
  options.failAfterStage = Stage::Profile;
  std::vector<WorkloadEvaluation> evaluations =
      evaluateWorkloads(kNames, kBudget, 2, options);
  ASSERT_EQ(evaluations.size(), kNames.size());
  EXPECT_EQ(countFailures(evaluations), kNames.size());
  for (const WorkloadEvaluation& evaluation : evaluations) {
    ASSERT_FALSE(evaluation.ok());
    EXPECT_EQ(evaluation.failure->stage, Stage::Profile);
  }
}

// The NOVIA + QsCores pass is its own stage, after Cayman's select and
// merge: a fault injected there is attributed to it, not to select.
TEST(DriverFailureTest, BaselinesStageInjection) {
  FrameworkOptions options;
  options.failAfterStage = Stage::Baselines;
  WorkloadEvaluation evaluation = evaluateWorkload("atax", kBudget, options);
  ASSERT_FALSE(evaluation.ok());
  EXPECT_EQ(evaluation.failure->stage, Stage::Baselines);
  EXPECT_NE(formatEvaluationLine(evaluation).find("FAILED baselines:"),
            std::string::npos);
}

TEST(DriverFailureTest, ParseStageInjection) {
  FrameworkOptions options;
  options.failAfterStage = Stage::Parse;
  WorkloadEvaluation evaluation = evaluateWorkload("atax", kBudget, options);
  ASSERT_FALSE(evaluation.ok());
  EXPECT_EQ(evaluation.failure->stage, Stage::Parse);
  EXPECT_EQ(evaluation.name, "atax");
  EXPECT_EQ(evaluation.suite, "PolyBench");
}

TEST(DriverFailureTest, UnknownWorkloadIsAFailureRowNotACrash) {
  WorkloadEvaluation evaluation = evaluateWorkload("no-such-kernel", kBudget);
  ASSERT_FALSE(evaluation.ok());
  EXPECT_EQ(evaluation.failure->stage, Stage::Internal);
  EXPECT_NE(evaluation.failure->message.find("unknown workload"),
            std::string::npos);
  EXPECT_EQ(evaluation.name, "no-such-kernel");
}

TEST(DriverFailureTest, SlowCandidateGenerationTripsTheDeadline) {
  FrameworkOptions options;
  options.timeoutSeconds = 1.0;
  std::vector<WorkloadEvaluation> clean =
      evaluateWorkloads(kNames, kBudget, 1, options);
  ASSERT_EQ(countFailures(clean), 0u);

  // Force each candidate generation in bicg to stall 0.4s (the
  // CAYMAN_INJECT_FAULT-style env hook): the selector pre-pass generates one
  // region per poll, so the per-workload deadline must trip inside generate
  // — the checkpoint added for exactly this — while siblings stay clean.
  ASSERT_EQ(setenv("CAYMAN_INJECT_SLOW", "bicg:generate:400000", 1), 0);
  std::vector<WorkloadEvaluation> stalled =
      evaluateWorkloads(kNames, kBudget, 2, options);
  ASSERT_EQ(unsetenv("CAYMAN_INJECT_SLOW"), 0);

  ASSERT_EQ(stalled.size(), clean.size());
  EXPECT_EQ(countFailures(stalled), 1u);
  for (size_t i = 0; i < stalled.size(); ++i) {
    if (clean[i].name == "bicg") {
      ASSERT_FALSE(stalled[i].ok());
      EXPECT_EQ(stalled[i].failure->stage, Stage::Select);
      EXPECT_NE(stalled[i].failure->message.find("timeout"),
                std::string::npos);
      EXPECT_NE(formatEvaluationLine(stalled[i]).find("FAILED select:"),
                std::string::npos);
    } else {
      ASSERT_TRUE(stalled[i].ok());
      EXPECT_EQ(formatEvaluationLine(stalled[i]),
                formatEvaluationLine(clean[i]))
          << clean[i].name;
    }
  }
}

TEST(DriverFailureTest, TimeoutSurfacesAsCancellation) {
  FrameworkOptions options;
  // Effectively-zero deadline: the first cancellation checkpoint must trip.
  options.timeoutSeconds = 1e-9;
  WorkloadEvaluation evaluation = evaluateWorkload("atax", kBudget, options);
  ASSERT_FALSE(evaluation.ok());
  EXPECT_NE(evaluation.failure->message.find("timeout"), std::string::npos);
}

TEST(DriverFailureTest, GenerousTimeoutDoesNotPerturbResults) {
  WorkloadEvaluation clean = evaluateWorkload("atax", kBudget);
  FrameworkOptions options;
  options.timeoutSeconds = 3600.0;
  WorkloadEvaluation timed = evaluateWorkload("atax", kBudget, options);
  ASSERT_TRUE(clean.ok());
  ASSERT_TRUE(timed.ok());
  EXPECT_EQ(formatEvaluationLine(timed), formatEvaluationLine(clean));
}

TEST(DriverFailureTest, TableRendersFailuresAndOkAverage) {
  FrameworkOptions options;
  options.failAfterStage = Stage::Merge;
  std::vector<WorkloadEvaluation> evaluations =
      evaluateWorkloads({"atax"}, kBudget, 1, options);
  evaluations.push_back(evaluateWorkload("bicg", kBudget));

  std::string table = formatEvaluationTable(evaluations);
  EXPECT_NE(table.find("FAILED merge:"), std::string::npos);
  EXPECT_NE(table.find("FAILED: 1 of 2 workloads"), std::string::npos);
  // The average row is still present, computed over the ok rows.
  EXPECT_NE(table.find("average:"), std::string::npos);
}

TEST(DriverFailureTest, AllFailedTableOmitsAverage) {
  FrameworkOptions options;
  options.failAfterStage = Stage::Verify;
  std::vector<WorkloadEvaluation> evaluations =
      evaluateWorkloads({"atax", "bicg"}, kBudget, 1, options);
  ASSERT_EQ(countFailures(evaluations), 2u);
  std::string table = formatEvaluationTable(evaluations);
  EXPECT_EQ(table.find("average:"), std::string::npos);
  EXPECT_NE(table.find("FAILED: 2 of 2 workloads"), std::string::npos);
}

TEST(DriverFailureTest, CleanTableFormatIsUnchanged) {
  // The robustness layer must not change a single byte of clean output: no
  // failure summary, the historical average row, one line per workload.
  std::vector<WorkloadEvaluation> evaluations =
      evaluateWorkloads(kNames, kBudget, 2);
  std::string table = formatEvaluationTable(evaluations);
  EXPECT_EQ(table.find("FAILED"), std::string::npos);
  size_t lines = 0;
  for (char ch : table) lines += ch == '\n' ? 1 : 0;
  EXPECT_EQ(lines, kNames.size() + 2);  // header + rows + average
}

TEST(DriverFailureTest, LongDiagnosticsSurviveFormatting) {
  // formatLine used to truncate at 256 bytes; failure messages can be long.
  WorkloadEvaluation evaluation;
  evaluation.name = "atax";
  evaluation.suite = "PolyBench";
  evaluation.failure =
      support::Diagnostic{Stage::Profile, "atax", std::string(600, 'x')};
  std::string line = formatEvaluationLine(evaluation);
  EXPECT_GT(line.size(), 600u);
  EXPECT_NE(line.find(std::string(600, 'x')), std::string::npos);
}

}  // namespace
}  // namespace cayman
