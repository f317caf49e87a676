// The traced run: the pipeline Framework runs, rebuilt call by call from each
// module's public functions, with a span around every call. Spans are taken
// here, around the calls, so the library itself stays uninstrumented.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/novia.h"
#include "baselines/qscores.h"
#include "cayman/framework.h"
#include "rows.h"

namespace perfbench {

/// Steady-clock nanoseconds.
uint64_t nowNs();

/// One call into one layer, e.g. "sim.profile".
struct Span {
  const char* layer = "";
  uint64_t beginNs = 0;
  uint64_t endNs = 0;
};

/// What one task (one workload's share of an iteration) recorded.
struct TaskTrace {
  std::string workload;
  uint64_t beginNs = 0;
  uint64_t endNs = 0;
  std::vector<Span> spans;
  /// Work counts, e.g. "sim.insts". "select.front_peak" is a maximum, every
  /// other count a sum.
  std::map<std::string, uint64_t> counts;
  std::vector<Row> rows;
};

/// One traced iteration: its tasks in output order plus its wall interval.
struct IterationTrace {
  uint64_t beginNs = 0;
  uint64_t endNs = 0;
  std::vector<TaskTrace> tasks;
};

/// The objects Framework builds for one workload, built here one timed call
/// at a time with Framework's default parameters:
///   workloads::build, ir::verifyOrThrow, analysis::WPst,
///   sim::Interpreter::run + sim::ProfileData,
///   accel::AcceleratorModel + warmGenerateCache(),
///   and the NOVIA / QsCores baseline flows.
class Pipeline {
 public:
  /// `pool` is forwarded to the model for region fan-out, as the driver
  /// does; nullptr keeps generation serial, as a bare Framework does.
  Pipeline(const std::string& workload, cayman::ThreadPool* pool,
           TaskTrace& trace);
  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// One Table II row, computed as Framework::evaluate computes it, through
  ///   select::CandidateSelector::best, merge::AcceleratorMerger::run,
  ///   baselines::NoviaFlow::best, baselines::QsCoresFlow::best.
  Row evaluate(double budgetRatio, TaskTrace& trace) const;

  /// Adds the work counts of the model-building layers (sim.insts,
  /// analysis.regions, accel.*, hls.*) to `trace`, both models included.
  void countModelWork(TaskTrace& trace) const;

 private:
  const cayman::FrameworkOptions options_;
  std::string workload_;
  std::unique_ptr<cayman::ir::Module> module_;
  std::unique_ptr<cayman::analysis::WPst> wpst_;
  std::unique_ptr<cayman::sim::Interpreter> interpreter_;
  uint64_t instructions_ = 0;
  std::unique_ptr<cayman::sim::ProfileData> profile_;
  cayman::hls::TechLibrary tech_;
  std::unique_ptr<cayman::accel::AcceleratorModel> model_;
  std::unique_ptr<cayman::baselines::NoviaFlow> novia_;
  std::unique_ptr<cayman::baselines::QsCoresFlow> qscores_;
};

/// Work counts summed over an iteration's tasks (select.front_peak: the
/// maximum).
std::map<std::string, uint64_t> counts(const IterationTrace& iteration);

/// Per-layer figures of one iteration: "<layer>_ms" summed over tasks, every
/// count, and the task figures cayman.task_ms_max, cayman.parallel_eff and
/// support.pool_idle_ms for an iteration run on `jobs` workers.
std::map<std::string, double> layerFigures(const IterationTrace& iteration,
                                           unsigned jobs);

/// Sum of every span of the iteration, in milliseconds.
double layerSumMs(const IterationTrace& iteration);

/// Writes the iterations' spans as a Chrome trace-event file; false on error.
bool writeChromeTrace(const std::string& path,
                      const std::vector<const IterationTrace*>& iterations);

}  // namespace perfbench
