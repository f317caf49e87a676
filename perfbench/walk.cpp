#include "walk.h"

#include <algorithm>
#include <chrono>
#include <fstream>

#include "ir/verifier.h"
#include "support/json.h"
#include "workloads/workloads.h"

namespace perfbench {

namespace json = cayman::support::json;

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

/// Records one span into a task trace for the lifetime of the scope.
class Timed {
 public:
  Timed(TaskTrace& trace, const char* layer)
      : trace_(trace), span_{layer, nowNs(), 0} {}
  ~Timed() {
    span_.endNs = nowNs();
    trace_.spans.push_back(span_);
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  TaskTrace& trace_;
  Span span_;
};

cayman::FrameworkOptions withPool(cayman::ThreadPool* pool) {
  cayman::FrameworkOptions options;
  options.pool = pool;
  return options;
}

double ms(uint64_t ns) { return static_cast<double>(ns) * 1e-6; }

}  // namespace

Pipeline::Pipeline(const std::string& workload, cayman::ThreadPool* pool,
                   TaskTrace& trace)
    : options_(withPool(pool)),
      workload_(workload),
      tech_(cayman::hls::TechLibrary::nangate45()) {
  using namespace cayman;
  {
    Timed t(trace, "workloads.build");
    module_ = workloads::build(workload);
  }
  {
    Timed t(trace, "ir.verify");
    ir::verifyOrThrow(*module_);
  }
  {
    Timed t(trace, "analysis.wpst");
    wpst_ = std::make_unique<analysis::WPst>(*module_);
  }
  {
    Timed t(trace, "sim.profile");
    interpreter_ = std::make_unique<sim::Interpreter>(*module_);
    sim::Interpreter::Result run = interpreter_->run();
    instructions_ = run.instructions;
    profile_ = std::make_unique<sim::ProfileData>(*wpst_, run,
                                                  interpreter_->costModel());
  }
  {
    Timed t(trace, "accel.model");
    accel::ModelParams params;
    params.clockNs = options_.accelClockNs;
    params.beta = options_.beta;
    params.allowDecoupled = !options_.coupledOnly;
    params.allowScratchpad = !options_.coupledOnly;
    params.generateMode = options_.generateMode;
    params.pool = options_.pool;
    model_ = std::make_unique<accel::AcceleratorModel>(
        *wpst_, *profile_, tech_, hls::InterfaceTiming{}, params);
  }
  {
    Timed t(trace, "accel.generate");
    model_->warmGenerateCache();
  }
  {
    Timed t(trace, "baselines.novia");
    novia_ = std::make_unique<baselines::NoviaFlow>(
        *wpst_, *profile_, tech_, interpreter_->costModel(),
        options_.cpuClockNs);
  }
  {
    Timed t(trace, "baselines.qscores");
    qscores_ = std::make_unique<baselines::QsCoresFlow>(
        *wpst_, *profile_, tech_, options_.generateMode);
  }
}

Row Pipeline::evaluate(double budgetRatio, TaskTrace& trace) const {
  using namespace cayman;
  EvaluationReport report;
  report.budgetRatio = budgetRatio;
  const double budgetUm2 = budgetRatio * tech_.cva6TileAreaUm2;
  const double ratio = options_.clockRatio();
  {
    Timed t(trace, "select.dp");
    select::SelectorParams params;
    params.areaBudgetUm2 = budgetUm2;
    params.alpha = options_.alpha;
    params.pruneHotFraction = options_.pruneHotFraction;
    params.clockRatio = ratio;
    params.mode = options_.selectMode;
    select::CandidateSelector::Stats stats;
    report.solution = select::CandidateSelector(*model_, params).best(stats);
    trace.counts["select.combine_pairs"] += stats.combinePairs;
    uint64_t& peak = trace.counts["select.front_peak"];
    peak = std::max<uint64_t>(peak, stats.frontPeak);
  }
  {
    Timed t(trace, "merge.run");
    report.merging =
        merge::AcceleratorMerger(tech_, options_.mergeMode).run(report.solution);
    trace.counts["merge.steps"] += static_cast<uint64_t>(report.merging.mergeSteps);
    trace.counts["merge.pairs_scored"] += report.merging.pairsScored;
  }
  const double tAll = profile_->totalCycles();
  report.totalCpuCycles = tAll;
  report.caymanSpeedup = report.solution.speedup(tAll, ratio);
  {
    Timed t(trace, "baselines.novia");
    report.noviaSpeedup = novia_->best(budgetUm2).speedup(tAll);
  }
  {
    Timed t(trace, "baselines.qscores");
    report.qscoresSpeedup =
        qscores_->best(budgetUm2, ratio, options_.selectMode).speedup(tAll, ratio);
  }
  // The rest mirrors Framework::evaluate line for line.
  report.overNovia = report.noviaSpeedup > 0.0
                         ? report.caymanSpeedup / report.noviaSpeedup
                         : 0.0;
  report.overQsCores = report.qscoresSpeedup > 0.0
                           ? report.caymanSpeedup / report.qscoresSpeedup
                           : 0.0;
  for (const accel::AcceleratorConfig& config : report.solution.accelerators) {
    report.numSeqBlocks += config.numSeqBlocks;
    report.numPipelinedRegions += config.numPipelinedRegions;
    report.numCoupled += config.numCoupled;
    report.numDecoupled += config.numDecoupled;
    report.numScratchpad += config.numScratchpad;
  }
  report.areaSavingPercent = report.merging.savingPercent();
  return makeRow(workload_, report, budgetUm2);
}

void Pipeline::countModelWork(TaskTrace& trace) const {
  const cayman::accel::AcceleratorModel& qsModel = qscores_->model();
  trace.counts["sim.insts"] += instructions_;
  trace.counts["analysis.regions"] += wpst_->allRegions().size();
  trace.counts["accel.estimate_calls"] +=
      model_->estimateCalls() + qsModel.estimateCalls();
  trace.counts["accel.candidates"] +=
      model_->candidatesTotal() + qsModel.candidatesTotal();
  trace.counts["hls.sched_block_calls"] +=
      model_->scheduleBlockCalls() + qsModel.scheduleBlockCalls();
}

std::map<std::string, uint64_t> counts(const IterationTrace& iteration) {
  std::map<std::string, uint64_t> totals;
  for (const TaskTrace& task : iteration.tasks) {
    for (const auto& [name, value] : task.counts) {
      uint64_t& total = totals[name];
      total = name == "select.front_peak" ? std::max(total, value)
                                          : total + value;
    }
  }
  return totals;
}

std::map<std::string, double> layerFigures(const IterationTrace& iteration,
                                           unsigned jobs) {
  std::map<std::string, double> figures;
  for (const auto& [name, value] : counts(iteration)) {
    figures[name] = static_cast<double>(value);
  }
  double taskSum = 0.0, taskMax = 0.0;
  for (const TaskTrace& task : iteration.tasks) {
    for (const Span& span : task.spans) {
      figures[std::string(span.layer) + "_ms"] += ms(span.endNs - span.beginNs);
    }
    double taskMs = ms(task.endNs - task.beginNs);
    taskSum += taskMs;
    taskMax = std::max(taskMax, taskMs);
  }
  double capacityMs = jobs * ms(iteration.endNs - iteration.beginNs);
  figures["cayman.task_ms_max"] = taskMax;
  figures["cayman.parallel_eff"] = capacityMs > 0.0 ? taskSum / capacityMs : 0.0;
  figures["support.pool_idle_ms"] = std::max(0.0, capacityMs - taskSum);
  return figures;
}

double layerSumMs(const IterationTrace& iteration) {
  double sum = 0.0;
  for (const TaskTrace& task : iteration.tasks) {
    for (const Span& span : task.spans) sum += ms(span.endNs - span.beginNs);
  }
  return sum;
}

bool writeChromeTrace(const std::string& path,
                      const std::vector<const IterationTrace*>& iterations) {
  if (iterations.empty()) return false;
  const uint64_t epoch = iterations.front()->beginNs;
  auto event = [&](const std::string& name, uint64_t begin, uint64_t end,
                   size_t tid) {
    json::Value e = json::Value::object();
    e.set("name", name);
    e.set("ph", "X");
    e.set("ts", static_cast<double>(begin - epoch) * 1e-3);
    e.set("dur", static_cast<double>(end - begin) * 1e-3);
    e.set("pid", 1);
    e.set("tid", static_cast<uint64_t>(tid));
    return e;
  };
  json::Value events = json::Value::array();
  for (size_t i = 0; i < iterations.size(); ++i) {
    const IterationTrace& it = *iterations[i];
    events.push(event("iteration " + std::to_string(i), it.beginNs, it.endNs, 0));
    for (size_t t = 0; t < it.tasks.size(); ++t) {
      const TaskTrace& task = it.tasks[t];
      events.push(event(task.workload, task.beginNs, task.endNs, t + 1));
      for (const Span& span : task.spans) {
        events.push(event(span.layer, span.beginNs, span.endNs, t + 1));
      }
    }
  }
  json::Value doc = json::Value::object();
  doc.set("traceEvents", std::move(events));
  std::ofstream out(path);
  out << doc.dump() << '\n';
  return static_cast<bool>(out);
}

}  // namespace perfbench
