#include "cayman/driver.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

#include "support/envhooks.h"
#include "support/thread_pool.h"
#include "support/trace.h"
#include "workloads/workloads.h"

namespace cayman {

namespace {

std::string formatLine(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list argsCopy;
  va_copy(argsCopy, args);
  int needed = std::vsnprintf(nullptr, 0, format, args);
  va_end(args);
  if (needed < 0) {
    va_end(argsCopy);
    return {};
  }
  std::string line(static_cast<size_t>(needed), '\0');
  // C++11 strings are contiguous with space for the terminating NUL at
  // data()[size()].
  std::vsnprintf(line.data(), static_cast<size_t>(needed) + 1, format,
                 argsCopy);
  va_end(argsCopy);
  return line;
}

}  // namespace

WorkloadEvaluation evaluateWorkload(const std::string& name,
                                    double budgetRatio,
                                    const FrameworkOptions& options,
                                    size_t traceIndex) {
  WorkloadEvaluation evaluation;
  evaluation.name = name;
  evaluation.report.budgetRatio = budgetRatio;

  const workloads::WorkloadInfo* info = workloads::byName(name);
  if (info == nullptr) {
    evaluation.failure = support::Diagnostic{
        support::Stage::Internal, name, "unknown workload"};
    return evaluation;
  }
  evaluation.name = info->name;
  evaluation.suite = info->suite;

  // All probes on this thread now attribute to (workload, index); inert
  // when tracing is off.
  support::trace::TaskScope traceScope(info->name, traceIndex);

  FrameworkOptions taskOptions = options;
  // Strict env-hook parsing (envhooks.h): a malformed spec is a loud failed
  // row, not a silently inert hook — the CLI additionally pre-validates and
  // refuses to start the sweep.
  {
    support::Expected<std::optional<support::envhooks::FaultSpec>> fault =
        support::envhooks::envInjectFault();
    if (!fault.ok()) {
      evaluation.failure = fault.diagnostic();
      return evaluation;
    }
    if (!taskOptions.failAfterStage.has_value() &&
        fault.value().has_value() && fault.value()->workload == info->name) {
      taskOptions.failAfterStage = fault.value()->stage;
    }
    support::Expected<std::vector<support::envhooks::SlowSpec>> slow =
        support::envhooks::envInjectSlow();
    if (!slow.ok()) {
      evaluation.failure = slow.diagnostic();
      return evaluation;
    }
    if (taskOptions.injectGenerateStallUs == 0) {
      for (const support::envhooks::SlowSpec& spec : slow.value()) {
        if (spec.workload == info->name) {
          taskOptions.injectGenerateStallUs =
              static_cast<unsigned>(spec.micros);
          break;
        }
      }
    }
  }
  // Per-workload deadline: each task gets its own token so one slow workload
  // cannot consume a shared budget. The token lives on this frame, which
  // outlives the Framework that polls it.
  support::CancelToken deadline;
  if (taskOptions.timeoutSeconds > 0.0) {
    deadline.setTimeout(taskOptions.timeoutSeconds);
    taskOptions.cancel = &deadline;
  }

  try {
    std::unique_ptr<ir::Module> module;
    try {
      module = workloads::build(info->name);
    } catch (const support::DiagnosticError&) {
      throw;
    } catch (const std::exception& e) {
      throw support::DiagnosticError(
          support::Diagnostic{support::Stage::Parse, info->name, e.what()});
    }
    if (taskOptions.failAfterStage == support::Stage::Parse) {
      throw support::DiagnosticError(
          support::Diagnostic{support::Stage::Parse, info->name,
                              "injected fault (failAfterStage)"});
    }
    Framework framework(std::move(module), taskOptions);
    evaluation.report = framework.evaluate(budgetRatio);
    // Capture selection decisions by value while the Framework still owns
    // the regions the solution's config pointers reference.
    const double ratio = taskOptions.clockRatio();
    for (const accel::AcceleratorConfig& config :
         evaluation.report.solution.accelerators) {
      SelectionDecision decision;
      decision.region =
          config.region != nullptr ? config.region->label() : "<none>";
      decision.cpuCycles = config.cpuCycles;
      decision.accelCycles = config.cycles;
      decision.hotFraction = config.region != nullptr
                                 ? framework.profile().hotFraction(config.region)
                                 : 0.0;
      double accelTimeCycles = config.cycles * ratio;
      decision.kernelSpeedup =
          accelTimeCycles > 0.0 ? config.cpuCycles / accelTimeCycles : 0.0;
      decision.areaUm2 = config.areaUm2;
      decision.numSeqBlocks = config.numSeqBlocks;
      decision.numPipelinedRegions = config.numPipelinedRegions;
      decision.numCoupled = config.numCoupled;
      decision.numDecoupled = config.numDecoupled;
      decision.numScratchpad = config.numScratchpad;
      evaluation.decisions.push_back(std::move(decision));
    }
  } catch (const support::DiagnosticError& e) {
    evaluation.failure = e.diagnostic();
    evaluation.report.budgetRatio = budgetRatio;
  } catch (const std::exception& e) {
    evaluation.failure = support::Diagnostic{
        support::Stage::Internal, info->name, e.what()};
    evaluation.report.budgetRatio = budgetRatio;
  }
  return evaluation;
}

std::vector<WorkloadEvaluation> evaluateWorkloads(
    const std::vector<std::string>& names, double budgetRatio, unsigned jobs,
    const FrameworkOptions& options) {
  if (jobs == 0) jobs = ThreadPool::defaultWorkers();
  // One job runs on the calling thread, in index order: no pool task, no
  // cross-thread hand-off, and serial even when the shared pool has grown.
  if (jobs == 1) {
    std::vector<WorkloadEvaluation> evaluations;
    evaluations.reserve(names.size());
    for (size_t i = 0; i < names.size(); ++i) {
      evaluations.push_back(
          evaluateWorkload(names[i], budgetRatio, options, i));
    }
    return evaluations;
  }
  // One process-wide pool reused across invocations (driver sweeps, benches)
  // instead of a construct/join cycle per call. It never shrinks, so a call
  // may run on more workers than it asked for; output is byte-identical at
  // any worker count, only the schedule differs.
  ThreadPool& pool = ThreadPool::shared();
  pool.ensureWorkers(jobs);
  // LPT (longest-processing-time-first) list scheduling: submit the
  // heaviest workloads first so the cjpeg/3mm-class tails start early
  // instead of landing last on an otherwise-drained pool. The pool is FIFO,
  // so submission order is start order; output stays in `names` order and
  // exceptions still surface lowest-index-first.
  std::vector<size_t> submitOrder(names.size());
  for (size_t i = 0; i < submitOrder.size(); ++i) submitOrder[i] = i;
  std::vector<double> hints(names.size(), 1.0);
  for (size_t i = 0; i < names.size(); ++i) {
    if (const workloads::WorkloadInfo* info = workloads::byName(names[i])) {
      hints[i] = info->costHint;
    }
  }
  std::stable_sort(submitOrder.begin(), submitOrder.end(),
                   [&hints](size_t a, size_t b) { return hints[a] > hints[b]; });
  return parallelIndexMap(
      pool, names.size(),
      [&](size_t i) {
        return evaluateWorkload(names[i], budgetRatio, options, i);
      },
      submitOrder);
}

std::vector<WorkloadEvaluation> evaluateAll(double budgetRatio, unsigned jobs,
                                            const FrameworkOptions& options) {
  std::vector<std::string> names;
  for (const auto& info : workloads::all()) names.push_back(info.name);
  return evaluateWorkloads(names, budgetRatio, jobs, options);
}

size_t countFailures(const std::vector<WorkloadEvaluation>& evaluations) {
  size_t failures = 0;
  for (const WorkloadEvaluation& evaluation : evaluations) {
    if (!evaluation.ok()) ++failures;
  }
  return failures;
}

std::string formatEvaluationLine(const WorkloadEvaluation& evaluation) {
  if (!evaluation.ok()) {
    const support::Diagnostic& d = *evaluation.failure;
    return formatLine("%-12s %-22s FAILED %s: %s", evaluation.suite.c_str(),
                      evaluation.name.c_str(), support::stageName(d.stage),
                      d.message.c_str());
  }
  const EvaluationReport& r = evaluation.report;
  return formatLine(
      "%-12s %-22s %8.3fx over[21]=%8.3f over[23]=%8.3f "
      "SB=%-3u PR=%-3u C=%-3u D=%-3u S=%-3u save=%6.2f%%",
      evaluation.suite.c_str(), evaluation.name.c_str(), r.caymanSpeedup,
      r.overNovia, r.overQsCores, r.numSeqBlocks, r.numPipelinedRegions,
      r.numCoupled, r.numDecoupled, r.numScratchpad, r.areaSavingPercent);
}

std::string formatEvaluationTable(
    const std::vector<WorkloadEvaluation>& evaluations) {
  std::string table;
  if (evaluations.empty()) return table;
  table += formatLine("evaluation at budget %.0f%% of a CVA6 tile (%zu "
                      "workloads)\n",
                      100.0 * evaluations.front().report.budgetRatio,
                      evaluations.size());
  double overNovia = 0.0, overQs = 0.0, save = 0.0, speedup = 0.0;
  size_t numOk = 0;
  for (const WorkloadEvaluation& evaluation : evaluations) {
    table += formatEvaluationLine(evaluation);
    table += '\n';
    if (!evaluation.ok()) continue;
    ++numOk;
    overNovia += evaluation.report.overNovia;
    overQs += evaluation.report.overQsCores;
    save += evaluation.report.areaSavingPercent;
    speedup += evaluation.report.caymanSpeedup;
  }
  if (numOk > 0) {
    double n = static_cast<double>(numOk);
    table += formatLine("average: speedup=%8.3fx over[21]=%8.3f "
                        "over[23]=%8.3f save=%6.2f%%\n",
                        speedup / n, overNovia / n, overQs / n, save / n);
  }
  // The failure summary only appears when something failed, so clean-run
  // output stays byte-identical to the historical format.
  size_t failures = countFailures(evaluations);
  if (failures > 0) {
    table += formatLine("FAILED: %zu of %zu workloads\n", failures,
                        evaluations.size());
  }
  return table;
}

}  // namespace cayman
