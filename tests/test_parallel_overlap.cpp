// The ctest-enforced overlap guard: two workloads carrying injected 50 ms
// generate stalls must evaluate in well under the serial sum once two pool
// workers are available — proving the stalls (and therefore independent
// cold generations) actually overlap — while the rendered table stays
// byte-identical. The stalls are sleeps, so the guard holds even on a
// single hardware core; compute time is noise next to the injected delay.
//
// This binary must stay order-sensitive: the process-wide shared pool never
// shrinks, so the jobs=1 run has to happen before anything grows the pool.
// Keep it a single test.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "accel/model.h"
#include "cayman/driver.h"

namespace cayman {
namespace {

TEST(ParallelOverlapTest, InjectedStallsOverlapAcrossWorkloads) {
  setenv("CAYMAN_INJECT_SLOW", "atax:generate:50000,bicg:generate:50000", 1);
  const std::vector<std::string> names = {"atax", "bicg"};

  auto timedRun = [&names](unsigned jobs) {
    auto start = std::chrono::steady_clock::now();
    std::vector<WorkloadEvaluation> evaluations =
        evaluateWorkloads(names, 0.25, jobs);
    double seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    return std::make_pair(seconds, formatEvaluationTable(evaluations));
  };

  // jobs=1 first: the shared pool starts at one worker and never shrinks,
  // so this run is genuinely serial.
  auto [serialSeconds, serialTable] = timedRun(1);

  accel::resetColdGenerationInflightPeak();
  auto [parallelSeconds, parallelTable] = timedRun(2);
  unsetenv("CAYMAN_INJECT_SLOW");

  // Determinism: the table is byte-identical whatever the schedule.
  EXPECT_EQ(parallelTable, serialTable);

  // The stalls overlapped: two cold generations were in flight at once ...
  EXPECT_GE(accel::coldGenerationInflightPeak(), 2);

  // ... and the wall clock proves it. Whole workloads are the only tasks,
  // so the best jobs=2 ratio is atax's stalled time over atax's plus
  // bicg's: about 0.58, set by the two workloads' region counts. 0.6
  // leaves about 2% of the serial time as scheduling slack.
  EXPECT_LE(parallelSeconds, 0.6 * serialSeconds)
      << "jobs=2 took " << parallelSeconds << "s vs jobs=1 "
      << serialSeconds << "s";
}

}  // namespace
}  // namespace cayman
