// Machine-readable evaluation reports (--metrics-json).
//
// Determinism contract: the default document is a pure function of the
// (workload, budget) pairs — counters, selection decisions and speedups, no
// wall-clock fields — so a jobs=1 and a jobs=8 sweep dump byte-identical
// files. `includeWallTimes` opts into per-stage wall seconds for human
// profiling; such files are schedule-dependent by nature and are excluded
// from the byte-identity guarantee.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "cayman/driver.h"
#include "support/json.h"
#include "support/trace.h"

namespace cayman {

struct MetricsOptions {
  /// Adds stage_seconds / total_seconds / selection_seconds (wall clock) to
  /// each workload entry. Off by default to keep the document deterministic.
  bool includeWallTimes = false;
  /// Out-of-task counters (pool.tasks) from TraceRecorder::globalCounters().
  /// Exported under "global" only when includeWallTimes is set: which thread
  /// executes which task is schedule-dependent, so these values would break
  /// deterministic byte-identity.
  std::vector<std::pair<std::string, uint64_t>> globalCounters;
  /// Global gauges (pool.workers) from
  /// TraceRecorder::gauges(). Same wall-mode-only export rule.
  std::vector<std::pair<std::string, int64_t>> gauges;
};

/// Builds the "cayman-metrics-v1" document. `tasks` are the trace records
/// drained from the recorder (may be empty when tracing was off; counters
/// are then omitted); they are matched to evaluations by task index.
support::json::Value buildMetricsJson(
    const std::vector<WorkloadEvaluation>& evaluations,
    const std::vector<support::trace::TaskRecord>& tasks,
    const MetricsOptions& options = {});

}  // namespace cayman
