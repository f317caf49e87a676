// Golden-schema tests for the cayman-metrics-v1 document and the
// determinism contract: a jobs=1 and a jobs=N sweep over every registered
// workload must serialize to byte-identical JSON.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cayman/driver.h"
#include "cayman/metrics.h"
#include "support/json.h"
#include "support/trace.h"
#include "workloads/workloads.h"

namespace cayman {
namespace {

using support::json::Value;

/// Runs a full traced sweep and returns (metrics JSON dump, trace dump).
std::pair<std::string, std::string> runSweep(unsigned jobs) {
  support::trace::TraceRecorder& recorder =
      support::trace::TraceRecorder::global();
  recorder.clear();
  recorder.setEnabled(true);
  std::vector<WorkloadEvaluation> evaluations = evaluateAll(0.25, jobs);
  std::vector<support::trace::TaskRecord> tasks = recorder.drainTasks();
  std::vector<support::trace::OrphanRecord> orphans = recorder.drainOrphans();
  recorder.setEnabled(false);
  recorder.clear();
  std::string metrics = buildMetricsJson(evaluations, tasks).dump(2);
  std::string trace =
      support::trace::chromeTrace(tasks, orphans,
                                  support::trace::TimeMode::Deterministic)
          .dump();
  return {metrics, trace};
}

TEST(MetricsDeterminismTest, AllWorkloadsBitExactAcrossJobsCounts) {
  auto [metrics1, trace1] = runSweep(1);
  auto [metrics4, trace4] = runSweep(4);
  EXPECT_EQ(metrics1, metrics4);
  EXPECT_EQ(trace1, trace4);
}

class MetricsSchemaTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    support::trace::TraceRecorder& recorder =
        support::trace::TraceRecorder::global();
    recorder.clear();
    recorder.setEnabled(true);
    evaluations_ = new std::vector<WorkloadEvaluation>(
        evaluateAll(0.25, 2));
    tasks_ = new std::vector<support::trace::TaskRecord>(
        recorder.drainTasks());
    recorder.setEnabled(false);
    recorder.clear();
  }
  static void TearDownTestSuite() {
    delete evaluations_;
    delete tasks_;
    evaluations_ = nullptr;
    tasks_ = nullptr;
  }

  static std::vector<WorkloadEvaluation>* evaluations_;
  static std::vector<support::trace::TaskRecord>* tasks_;
};

std::vector<WorkloadEvaluation>* MetricsSchemaTest::evaluations_ = nullptr;
std::vector<support::trace::TaskRecord>* MetricsSchemaTest::tasks_ = nullptr;

TEST_F(MetricsSchemaTest, DocumentRoundTripsThroughTheParser) {
  Value document = buildMetricsJson(*evaluations_, *tasks_);
  std::string dumped = document.dump(2);
  support::Expected<Value> parsed = support::json::parse(dumped);
  ASSERT_TRUE(parsed.ok()) << parsed.diagnostic().message;
  EXPECT_EQ(parsed.value().dump(2), dumped);
}

TEST_F(MetricsSchemaTest, TopLevelKeysAndTypes) {
  Value document = buildMetricsJson(*evaluations_, *tasks_);
  ASSERT_TRUE(document.isObject());
  EXPECT_EQ(document.find("schema")->stringValue(), "cayman-metrics-v1");
  EXPECT_EQ(document.find("time_mode")->stringValue(), "deterministic");
  EXPECT_DOUBLE_EQ(document.find("budget_ratio")->numberValue(), 0.25);
  ASSERT_TRUE(document.find("workloads")->isArray());
  EXPECT_EQ(document.find("workload_count")->intValue(),
            static_cast<int64_t>(workloads::all().size()));
  EXPECT_EQ(document.find("workloads")->items().size(),
            workloads::all().size());
  EXPECT_TRUE(document.find("totals")->isObject());
  // Pipeline counters survived into the totals.
  const Value* totals = document.find("totals");
  for (const char* key : {"interp.instructions", "interp.runs",
                          "model.cache_misses", "select.regions_visited",
                          "select.configs_generated"}) {
    const Value* counter = totals->find(key);
    ASSERT_NE(counter, nullptr) << key;
    EXPECT_GT(counter->intValue(), 0) << key;
  }
}

TEST_F(MetricsSchemaTest, WorkloadEntriesCarryMetricsCountersAndSelection) {
  Value document = buildMetricsJson(*evaluations_, *tasks_);
  const Value* workloads = document.find("workloads");
  size_t selected = 0;
  for (size_t i = 0; i < workloads->items().size(); ++i) {
    const Value& entry = workloads->items()[i];
    ASSERT_TRUE(entry.isObject());
    EXPECT_EQ(entry.find("index")->intValue(), static_cast<int64_t>(i));
    EXPECT_TRUE(entry.find("name")->isString());
    EXPECT_TRUE(entry.find("ok")->boolValue());
    const Value* metrics = entry.find("metrics");
    ASSERT_NE(metrics, nullptr);
    EXPECT_GT(metrics->find("total_cpu_cycles")->numberValue(), 0.0);
    EXPECT_GE(metrics->find("cayman_speedup")->numberValue(), 1.0);
    const Value* counters = entry.find("counters");
    ASSERT_NE(counters, nullptr) << "tracing was on, counters must exist";
    EXPECT_GT(counters->find("interp.instructions")->intValue(), 0);
    // Deterministic documents must not carry wall-clock fields.
    EXPECT_EQ(entry.find("stage_seconds"), nullptr);
    EXPECT_EQ(entry.find("total_seconds"), nullptr);
    const Value* selection = entry.find("selection");
    ASSERT_NE(selection, nullptr);
    for (const Value& decision : selection->items()) {
      ++selected;
      EXPECT_FALSE(decision.find("region")->stringValue().empty());
      EXPECT_GT(decision.find("cpu_cycles")->numberValue(), 0.0);
      EXPECT_GT(decision.find("area_um2")->numberValue(), 0.0);
      double hot = decision.find("hot_fraction")->numberValue();
      EXPECT_GT(hot, 0.0);
      EXPECT_LE(hot, 1.0);
      EXPECT_GT(decision.find("kernel_speedup")->numberValue(), 0.0);
    }
  }
  EXPECT_GT(selected, 0u) << "no workload selected any accelerator";
}

TEST_F(MetricsSchemaTest, WallModeStageSecondsSumBelowTotal) {
  Value document;
  {
    support::trace::TraceRecorder& recorder =
        support::trace::TraceRecorder::global();
    recorder.clear();
    recorder.setEnabled(true);
    std::vector<WorkloadEvaluation> evaluations;
    evaluations.push_back(evaluateWorkload("atax", 0.25));
    std::vector<support::trace::TaskRecord> tasks = recorder.drainTasks();
    recorder.setEnabled(false);
    recorder.clear();
    MetricsOptions options;
    options.includeWallTimes = true;
    document = buildMetricsJson(evaluations, tasks, options);
  }
  EXPECT_EQ(document.find("time_mode")->stringValue(), "wall");
  const Value& entry = document.find("workloads")->items().at(0);
  const Value* stages = entry.find("stage_seconds");
  ASSERT_NE(stages, nullptr);
  ASSERT_FALSE(stages->members().empty());
  // Cayman's selection and the baseline pass are timed as separate stages.
  EXPECT_NE(stages->find("select"), nullptr);
  EXPECT_NE(stages->find("baselines"), nullptr);
  double sum = 0.0;
  for (const auto& [stage, seconds] : stages->members()) {
    EXPECT_GE(seconds.numberValue(), 0.0) << stage;
    sum += seconds.numberValue();
  }
  const Value* total = entry.find("total_seconds");
  ASSERT_NE(total, nullptr);
  EXPECT_LE(sum, total->numberValue() * (1.0 + 1e-9));
}

TEST(MetricsFailureTest, FailedRowsCarryStructuredFailureObjects) {
  support::trace::TraceRecorder& recorder =
      support::trace::TraceRecorder::global();
  recorder.clear();
  recorder.setEnabled(true);
  FrameworkOptions options;
  options.failAfterStage = support::Stage::Select;
  std::vector<WorkloadEvaluation> evaluations;
  evaluations.push_back(evaluateWorkload("atax", 0.25, options));
  std::vector<support::trace::TaskRecord> tasks = recorder.drainTasks();
  recorder.setEnabled(false);
  recorder.clear();

  Value document = buildMetricsJson(evaluations, tasks);
  EXPECT_EQ(document.find("failed")->intValue(), 1);
  const Value& entry = document.find("workloads")->items().at(0);
  EXPECT_FALSE(entry.find("ok")->boolValue());
  const Value* failure = entry.find("failure");
  ASSERT_NE(failure, nullptr);
  EXPECT_EQ(failure->find("stage")->stringValue(), "select");
  EXPECT_FALSE(failure->find("message")->stringValue().empty());
  // The failed row still published its trace record with counters.
  const Value* counters = entry.find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_GT(counters->find("interp.instructions")->intValue(), 0);
}

}  // namespace
}  // namespace cayman
