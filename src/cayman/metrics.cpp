#include "cayman/metrics.h"

#include <map>

namespace cayman {

namespace {

using support::json::Value;

Value decisionJson(const SelectionDecision& d) {
  Value entry = Value::object();
  entry.set("region", d.region);
  entry.set("cpu_cycles", d.cpuCycles);
  entry.set("accel_cycles", d.accelCycles);
  entry.set("hot_fraction", d.hotFraction);
  entry.set("kernel_speedup", d.kernelSpeedup);
  entry.set("area_um2", d.areaUm2);
  entry.set("num_seq_blocks", d.numSeqBlocks);
  entry.set("num_pipelined_regions", d.numPipelinedRegions);
  entry.set("num_coupled", d.numCoupled);
  entry.set("num_decoupled", d.numDecoupled);
  entry.set("num_scratchpad", d.numScratchpad);
  return entry;
}

Value reportJson(const EvaluationReport& r) {
  Value metrics = Value::object();
  metrics.set("total_cpu_cycles", r.totalCpuCycles);
  metrics.set("cayman_speedup", r.caymanSpeedup);
  metrics.set("novia_speedup", r.noviaSpeedup);
  metrics.set("qscores_speedup", r.qscoresSpeedup);
  metrics.set("over_novia", r.overNovia);
  metrics.set("over_qscores", r.overQsCores);
  metrics.set("num_seq_blocks", r.numSeqBlocks);
  metrics.set("num_pipelined_regions", r.numPipelinedRegions);
  metrics.set("num_coupled", r.numCoupled);
  metrics.set("num_decoupled", r.numDecoupled);
  metrics.set("num_scratchpad", r.numScratchpad);
  metrics.set("area_before_um2", r.merging.areaBeforeUm2);
  metrics.set("area_after_um2", r.merging.areaAfterUm2);
  metrics.set("area_saving_percent", r.areaSavingPercent);
  return metrics;
}

}  // namespace

Value buildMetricsJson(const std::vector<WorkloadEvaluation>& evaluations,
                       const std::vector<support::trace::TaskRecord>& tasks,
                       const MetricsOptions& options) {
  std::map<size_t, const support::trace::TaskRecord*> taskByIndex;
  for (const support::trace::TaskRecord& task : tasks) {
    taskByIndex[task.index] = &task;
  }

  Value document = Value::object();
  document.set("schema", "cayman-metrics-v1");
  document.set("time_mode",
               options.includeWallTimes ? "wall" : "deterministic");
  if (!evaluations.empty()) {
    document.set("budget_ratio", evaluations.front().report.budgetRatio);
  }
  document.set("workload_count", evaluations.size());
  document.set("failed", countFailures(evaluations));

  std::map<std::string, uint64_t> totals;
  Value workloads = Value::array();
  for (size_t i = 0; i < evaluations.size(); ++i) {
    const WorkloadEvaluation& evaluation = evaluations[i];
    Value entry = Value::object();
    entry.set("name", evaluation.name);
    entry.set("suite", evaluation.suite);
    entry.set("index", i);
    entry.set("ok", evaluation.ok());
    if (!evaluation.ok()) {
      const support::Diagnostic& d = *evaluation.failure;
      Value failure = Value::object();
      failure.set("stage", support::stageName(d.stage));
      failure.set("message", d.message);
      entry.set("failure", std::move(failure));
    }
    entry.set("metrics", reportJson(evaluation.report));

    Value selection = Value::array();
    for (const SelectionDecision& decision : evaluation.decisions) {
      selection.push(decisionJson(decision));
    }
    entry.set("selection", std::move(selection));

    auto it = taskByIndex.find(i);
    if (it != taskByIndex.end()) {
      const support::trace::TaskRecord& task = *it->second;
      Value counters = Value::object();
      for (const auto& [name, value] : task.counters) {
        counters.set(name, value);
        totals[name] += value;
      }
      entry.set("counters", std::move(counters));
      if (options.includeWallTimes) {
        Value stages = Value::object();
        for (const auto& [stage, seconds] : task.stageSeconds) {
          stages.set(stage, seconds);
        }
        entry.set("stage_seconds", std::move(stages));
        entry.set("total_seconds", task.totalSeconds);
        entry.set("selection_seconds", evaluation.report.selectionSeconds);
      }
    }
    workloads.push(std::move(entry));
  }
  document.set("workloads", std::move(workloads));

  Value totalsJson = Value::object();
  for (const auto& [name, value] : totals) totalsJson.set(name, value);
  document.set("totals", std::move(totalsJson));

  // Out-of-task pool/gauge data is schedule-dependent (which worker runs
  // which task varies run to run), so it rides the same wall-mode opt-in as
  // stage_seconds and never perturbs the deterministic document.
  if (options.includeWallTimes &&
      (!options.globalCounters.empty() || !options.gauges.empty())) {
    Value global = Value::object();
    Value counters = Value::object();
    for (const auto& [name, value] : options.globalCounters) {
      counters.set(name, value);
    }
    global.set("counters", std::move(counters));
    Value gaugesJson = Value::object();
    for (const auto& [name, value] : options.gauges) {
      gaugesJson.set(name, value);
    }
    global.set("gauges", std::move(gaugesJson));
    document.set("global", std::move(global));
  }
  return document;
}

}  // namespace cayman
