// Parallel evaluation driver: runs the full Table II-style evaluation over
// many workloads on a thread pool, one Framework per worker task, results
// ordered by workload registry order regardless of schedule.
//
// Determinism contract: every field of the returned reports (and every byte
// of the formatted table, which deliberately omits wall-clock timings) is
// bit-identical between jobs=1 and jobs=N runs — each task is a pure
// function of (workload name, budget).
//
// Fault isolation contract: evaluateWorkload never throws. Every failure —
// cayman::Error, std::bad_alloc, timeouts, injected faults — is caught
// inside the task and returned as a per-workload Diagnostic, so one
// misbehaving workload cannot abort the other rows of a sweep. Rows that
// succeed render byte-identically whether or not a sibling failed.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "cayman/framework.h"
#include "support/status.h"

namespace cayman {

/// One chosen accelerator region, captured as plain values while the
/// Framework (and the wPST/regions it owns) is still alive —
/// AcceleratorConfig::region dangles once evaluateWorkload's Framework is
/// destroyed, so reports must never carry the raw config pointers around.
struct SelectionDecision {
  std::string region;          ///< wPST region label
  double cpuCycles = 0.0;      ///< T_cand contribution (CPU cycles)
  double accelCycles = 0.0;    ///< Cycle_cand contribution (accel cycles)
  double hotFraction = 0.0;    ///< cpuCycles / T_all
  double kernelSpeedup = 0.0;  ///< cpuCycles / (accelCycles * clockRatio)
  double areaUm2 = 0.0;
  unsigned numSeqBlocks = 0;
  unsigned numPipelinedRegions = 0;
  unsigned numCoupled = 0;
  unsigned numDecoupled = 0;
  unsigned numScratchpad = 0;
};

/// One evaluated workload: the registry entry plus its Table II row, or the
/// structured failure that prevented it.
struct WorkloadEvaluation {
  std::string name;
  std::string suite;
  EvaluationReport report;
  /// Chosen regions of the best solution, in solution order.
  std::vector<SelectionDecision> decisions;
  /// Set when the pipeline failed; `report` is then only partially filled.
  std::optional<support::Diagnostic> failure;

  bool ok() const { return !failure.has_value(); }
};

/// Builds, profiles, and evaluates one workload at `budgetRatio`. Never
/// throws: failures (including `options.timeoutSeconds` deadline expiry and
/// faults injected via `options.failAfterStage` or env
/// CAYMAN_INJECT_FAULT=<workload>:<stage>) come back in `failure`.
/// `traceIndex` is the workload's stable output position for the trace
/// recorder (registry order in sweeps; 0 for one-off calls).
WorkloadEvaluation evaluateWorkload(const std::string& name,
                                    double budgetRatio,
                                    const FrameworkOptions& options = {},
                                    size_t traceIndex = 0);

/// Evaluates the named workloads at `budgetRatio` on `jobs` pool workers
/// (jobs == 0 means ThreadPool::defaultWorkers()); jobs == 1 runs them on
/// the calling thread, in order, and submits nothing to the pool. Output
/// order follows `names`.
std::vector<WorkloadEvaluation> evaluateWorkloads(
    const std::vector<std::string>& names, double budgetRatio, unsigned jobs,
    const FrameworkOptions& options = {});

/// Evaluates every registered workload (the paper's 28) at `budgetRatio`.
std::vector<WorkloadEvaluation> evaluateAll(double budgetRatio, unsigned jobs,
                                            const FrameworkOptions& options = {});

/// Number of failed rows (drives the CLI's non-zero exit).
size_t countFailures(const std::vector<WorkloadEvaluation>& evaluations);

/// Deterministic one-line rendering of one evaluation (no timing fields).
/// Failed rows render as "<suite> <name> FAILED <stage>: <message>".
std::string formatEvaluationLine(const WorkloadEvaluation& evaluation);

/// Deterministic multi-line table: header, one line per workload, and an
/// average row over the successful workloads. Bit-identical across jobs
/// counts by construction; identical to the historical format when no row
/// failed.
std::string formatEvaluationTable(
    const std::vector<WorkloadEvaluation>& evaluations);

}  // namespace cayman
