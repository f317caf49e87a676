// Parallelism benchmarks (recorded results: DESIGN.md §15):
//   1. stall overlap — two workloads carrying injected 50 ms generate
//      stalls, evaluated at jobs=1 then jobs=2; the elapsed ratio proves
//      independent cold generations overlap (sleeps overlap even on one
//      hardware core, so the ratio is meaningful anywhere),
//   2. LPT vs FIFO — synthetic makespan of one long and many short tasks on
//      two workers, submitted in registry order vs longest-processing-time
//      order (the driver's submitOrder heuristic).
//
// Order matters: the jobs=1 run must come first because the process-wide
// shared pool grows and never shrinks.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "cayman/driver.h"
#include "support/thread_pool.h"

namespace {

using namespace cayman;

double secondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

void benchStallOverlap() {
  setenv("CAYMAN_INJECT_SLOW", "atax:generate:50000,bicg:generate:50000", 1);
  const std::vector<std::string> names = {"atax", "bicg"};

  auto start = std::chrono::steady_clock::now();
  std::vector<WorkloadEvaluation> serial = evaluateWorkloads(names, 0.25, 1);
  double serialSeconds = secondsSince(start);

  start = std::chrono::steady_clock::now();
  std::vector<WorkloadEvaluation> parallel =
      evaluateWorkloads(names, 0.25, 2);
  double parallelSeconds = secondsSince(start);
  unsetenv("CAYMAN_INJECT_SLOW");

  bool identical =
      formatEvaluationTable(serial) == formatEvaluationTable(parallel);
  std::printf("stall_overlap: jobs1_s=%.3f jobs2_s=%.3f ratio=%.3f "
              "identical=%s\n",
              serialSeconds, parallelSeconds, parallelSeconds / serialSeconds,
              identical ? "true" : "false");
}

double syntheticMakespan(const std::vector<size_t>& submitOrder) {
  // One 80 ms task and seven 10 ms tasks on two workers. FIFO runs the
  // short tasks first and the long one last (makespan ~110 ms); LPT fronts
  // the long task (makespan ~80 ms, the two-worker optimum).
  static const std::vector<unsigned> kDurationsMs = {10, 10, 10, 10,
                                                     10, 10, 10, 80};
  ThreadPool pool(2);
  auto start = std::chrono::steady_clock::now();
  parallelIndexMap(
      pool, kDurationsMs.size(),
      [](size_t i) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(kDurationsMs[i]));
        return i;
      },
      submitOrder);
  return secondsSince(start);
}

void benchLptVsFifo() {
  double fifo = syntheticMakespan({});
  double lpt = syntheticMakespan({7, 0, 1, 2, 3, 4, 5, 6});
  std::printf("lpt_vs_fifo: fifo_s=%.3f lpt_s=%.3f speedup=%.2fx\n", fifo,
              lpt, fifo / lpt);
}

}  // namespace

int main() {
  benchStallOverlap();
  benchLptVsFifo();
  return 0;
}
