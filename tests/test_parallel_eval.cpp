// Determinism tests for the parallel DSE layer: a parallel evaluate-all run
// must be bit-identical to the sequential one, and pool tasks that each own
// a Framework must match one Framework used sequentially. A Framework
// belongs to one thread, so no test here shares one across tasks. The TSan
// CI job runs this binary.
#include <gtest/gtest.h>

#include "cayman/driver.h"
#include "support/thread_pool.h"
#include "support/trace.h"
#include "workloads/workloads.h"

namespace cayman {
namespace {

/// Exact comparison of every deterministic report field (wall-clock
/// selectionSeconds is the one legitimate difference).
void expectReportsIdentical(const EvaluationReport& a,
                            const EvaluationReport& b,
                            const std::string& name) {
  EXPECT_EQ(a.budgetRatio, b.budgetRatio) << name;
  EXPECT_EQ(a.caymanSpeedup, b.caymanSpeedup) << name;
  EXPECT_EQ(a.noviaSpeedup, b.noviaSpeedup) << name;
  EXPECT_EQ(a.qscoresSpeedup, b.qscoresSpeedup) << name;
  EXPECT_EQ(a.overNovia, b.overNovia) << name;
  EXPECT_EQ(a.overQsCores, b.overQsCores) << name;
  EXPECT_EQ(a.numSeqBlocks, b.numSeqBlocks) << name;
  EXPECT_EQ(a.numPipelinedRegions, b.numPipelinedRegions) << name;
  EXPECT_EQ(a.numCoupled, b.numCoupled) << name;
  EXPECT_EQ(a.numDecoupled, b.numDecoupled) << name;
  EXPECT_EQ(a.numScratchpad, b.numScratchpad) << name;
  EXPECT_EQ(a.areaSavingPercent, b.areaSavingPercent) << name;
  EXPECT_EQ(a.solution.areaUm2, b.solution.areaUm2) << name;
  EXPECT_EQ(a.solution.accelCycles, b.solution.accelCycles) << name;
  EXPECT_EQ(a.solution.cpuCycles, b.solution.cpuCycles) << name;
  EXPECT_EQ(a.solution.accelerators.size(), b.solution.accelerators.size())
      << name;
  EXPECT_EQ(a.merging.areaBeforeUm2, b.merging.areaBeforeUm2) << name;
  EXPECT_EQ(a.merging.areaAfterUm2, b.merging.areaAfterUm2) << name;
  EXPECT_EQ(a.merging.mergeSteps, b.merging.mergeSteps) << name;
  EXPECT_EQ(a.merging.reusableAccelerators, b.merging.reusableAccelerators)
      << name;
}

TEST(ParallelEvalTest, ParallelEvaluateAllMatchesSequentialBitExact) {
  // All 28 workloads: jobs=1 is the sequential reference; jobs=4 must
  // reproduce every report field and every output byte.
  std::vector<WorkloadEvaluation> sequential = evaluateAll(0.25, 1);
  std::vector<WorkloadEvaluation> parallel = evaluateAll(0.25, 4);
  ASSERT_EQ(sequential.size(), workloads::all().size());
  ASSERT_EQ(sequential.size(), parallel.size());
  for (size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_EQ(sequential[i].name, parallel[i].name);
    EXPECT_EQ(sequential[i].suite, parallel[i].suite);
    expectReportsIdentical(sequential[i].report, parallel[i].report,
                           sequential[i].name);
  }
  EXPECT_EQ(formatEvaluationTable(sequential), formatEvaluationTable(parallel));
}

TEST(ParallelEvalTest, PerTaskFrameworksMatchOneSequentialFramework) {
  // A budget sweep on one Framework (warm caches after the first budget)
  // must equal the same sweep with a fresh Framework per pool task.
  const std::vector<double> budgets = {0.10, 0.15, 0.20, 0.25,
                                       0.30, 0.35, 0.40, 0.45};
  Framework framework(workloads::build("3mm"));
  std::vector<std::vector<select::Solution>> sequential;
  for (double budget : budgets) {
    sequential.push_back(framework.explore(budget));
  }

  ThreadPool pool(4);
  std::vector<std::vector<select::Solution>> parallel =
      parallelIndexMap(pool, budgets.size(), [&](size_t i) {
        Framework own(workloads::build("3mm"));
        return own.explore(budgets[i]);
      });

  ASSERT_EQ(sequential.size(), parallel.size());
  for (size_t i = 0; i < budgets.size(); ++i) {
    ASSERT_EQ(sequential[i].size(), parallel[i].size()) << budgets[i];
    for (size_t j = 0; j < sequential[i].size(); ++j) {
      EXPECT_EQ(sequential[i][j].areaUm2, parallel[i][j].areaUm2);
      EXPECT_EQ(sequential[i][j].accelCycles, parallel[i][j].accelCycles);
      EXPECT_EQ(sequential[i][j].cpuCycles, parallel[i][j].cpuCycles);
      EXPECT_EQ(sequential[i][j].accelerators.size(),
                parallel[i][j].accelerators.size());
    }
  }
}

TEST(ParallelEvalTest, ParallelEvaluateMatchesSequentialAtBothBudgets) {
  const std::vector<std::string> names = {"3mm", "fft"};
  for (double budget : {0.25, 0.65}) {
    std::vector<WorkloadEvaluation> sequential =
        evaluateWorkloads(names, budget, 1);
    std::vector<WorkloadEvaluation> parallel =
        evaluateWorkloads(names, budget, 4);
    ASSERT_EQ(sequential.size(), parallel.size());
    for (size_t i = 0; i < sequential.size(); ++i) {
      expectReportsIdentical(sequential[i].report, parallel[i].report,
                             sequential[i].name);
    }
  }
}

TEST(ParallelEvalTest, WarmedCacheDoesNotChangeResults) {
  Framework cold(workloads::build("atax"));
  Framework warm(workloads::build("atax"));
  warm.model().warmGenerateCache();
  expectReportsIdentical(cold.evaluate(0.25), warm.evaluate(0.25), "atax");
}

TEST(ParallelEvalTest, HighJobCountsMatchSerial) {
  // Oversubscribed pools (jobs far above the core count) must reproduce the
  // jobs=1 run byte-for-byte.
  const std::vector<std::string> names = {"atax", "bicg", "mvt", "doitgen"};
  std::string referenceTable =
      formatEvaluationTable(evaluateWorkloads(names, 0.25, 1));
  for (unsigned jobs : {8u, 64u}) {
    EXPECT_EQ(formatEvaluationTable(evaluateWorkloads(names, 0.25, jobs)),
              referenceTable)
        << "jobs=" << jobs;
  }
}

TEST(ParallelEvalTest, OneJobRunsOnTheCallingThreadAfterThePoolGrew) {
  // jobs=1 runs every workload on the calling thread: even after the shared
  // pool has grown to four workers it submits no pool task, and its rows
  // equal a jobs=4 run's.
  ThreadPool::shared().ensureWorkers(4);
  const std::vector<std::string> names = {"atax", "bicg", "mvt"};
  support::trace::TraceRecorder& recorder =
      support::trace::TraceRecorder::global();
  auto poolTasks = [&recorder] {
    for (const auto& [name, value] : recorder.globalCounters()) {
      if (name == "pool.tasks") return value;
    }
    return uint64_t{0};
  };
  recorder.clear();
  recorder.setEnabled(true);
  std::vector<WorkloadEvaluation> parallel =
      evaluateWorkloads(names, 0.25, 4);
  const uint64_t afterParallel = poolTasks();
  std::vector<WorkloadEvaluation> serial = evaluateWorkloads(names, 0.25, 1);
  const uint64_t afterSerial = poolTasks();
  recorder.setEnabled(false);
  recorder.clear();

  EXPECT_EQ(afterParallel, names.size());
  EXPECT_EQ(afterSerial, afterParallel);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].name, names[i]);
    expectReportsIdentical(serial[i].report, parallel[i].report, names[i]);
  }
  EXPECT_EQ(formatEvaluationTable(serial), formatEvaluationTable(parallel));
}

TEST(ParallelEvalTest, EvaluateWorkloadsHonorsNameOrder) {
  std::vector<std::string> names = {"mvt", "atax", "3mm"};
  std::vector<WorkloadEvaluation> evaluations =
      evaluateWorkloads(names, 0.25, 3);
  ASSERT_EQ(evaluations.size(), names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(evaluations[i].name, names[i]);
  }
}

}  // namespace
}  // namespace cayman
