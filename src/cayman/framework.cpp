#include "cayman/framework.h"

#include "ir/verifier.h"
#include "support/trace.h"

namespace cayman {

namespace {

/// Runs one pipeline stage with failure attribution: any escaping exception
/// becomes a DiagnosticError carrying the stage and unit (already-attributed
/// DiagnosticErrors — parse/verify diagnostics, cancellation — pass through
/// untouched). After a successful stage this is also the fault-injection and
/// cancellation checkpoint, and — when tracing is on — the span / stage-time
/// attribution point for the observability layer.
template <typename Fn>
void runStage(support::Stage stage, const std::string& unit,
              const FrameworkOptions& options, Fn&& fn) {
  const bool tracing = support::trace::on();
  uint64_t beginNs = tracing ? support::trace::nowNs() : 0;
  try {
    support::trace::Span span(
        tracing ? support::stageName(stage) : "", "pipeline");
    fn();
  } catch (const support::DiagnosticError&) {
    throw;
  } catch (const std::exception& e) {
    throw support::DiagnosticError(
        support::Diagnostic{stage, unit, e.what()});
  }
  if (tracing) {
    support::trace::addStageSeconds(
        support::stageName(stage),
        static_cast<double>(support::trace::nowNs() - beginNs) * 1e-9);
  }
  if (options.failAfterStage == stage) {
    throw support::DiagnosticError(support::Diagnostic{
        stage, unit, "injected fault (failAfterStage)"});
  }
  if (options.cancel != nullptr) options.cancel->check(stage, unit);
}

}  // namespace

Framework::Framework(std::unique_ptr<ir::Module> module,
                     FrameworkOptions options)
    : options_(options),
      module_(std::move(module)),
      tech_(hls::TechLibrary::nangate45()) {
  CAYMAN_ASSERT(module_ != nullptr, "Framework requires a module");
  const std::string unit = module_->name();

  runStage(support::Stage::Verify, unit, options_,
           [&] { ir::verifyOrThrow(*module_); });

  // Fig. 1 pipeline: wPST construction, profiling, program analysis.
  runStage(support::Stage::Analyze, unit, options_,
           [&] { wpst_ = std::make_unique<analysis::WPst>(*module_); });

  runStage(support::Stage::Profile, unit, options_, [&] {
    // A local: ProfileData and NoviaFlow copy what they need, so the
    // interpreter's memory images and decoded streams die with this stage.
    sim::Interpreter interpreter(*module_);
    interpreter.setCancelToken(options_.cancel);
    sim::Interpreter::Result run = interpreter.profile(*wpst_);
    profile_ = std::make_unique<sim::ProfileData>(*wpst_, run,
                                                  interpreter.costModel());

    accel::ModelParams params;
    params.clockNs = options_.accelClockNs;
    params.beta = options_.beta;
    params.allowDecoupled = !options_.coupledOnly;
    params.allowScratchpad = !options_.coupledOnly;
    params.cancel = options_.cancel;
    params.injectGenerateStallUs = options_.injectGenerateStallUs;
    model_ = std::make_unique<accel::AcceleratorModel>(
        *wpst_, *profile_, tech_, hls::InterfaceTiming{}, params);

    novia_ = std::make_unique<baselines::NoviaFlow>(
        *wpst_, *profile_, tech_, interpreter.costModel(),
        options_.cpuClockNs);
    qscores_ = std::make_unique<baselines::QsCoresFlow>(
        *wpst_, *profile_, tech_, accel::GenerateMode::Guided,
        options_.cancel);
  });
}

select::SelectorParams Framework::selectorParams(double budgetRatio) const {
  select::SelectorParams params;
  params.areaBudgetUm2 = budgetUm2(budgetRatio);
  params.alpha = options_.alpha;
  params.pruneHotFraction = options_.pruneHotFraction;
  params.clockRatio = options_.clockRatio();
  params.cancel = options_.cancel;
  return params;
}

std::vector<select::Solution> Framework::explore(double budgetRatio) const {
  select::CandidateSelector selector(*model_, selectorParams(budgetRatio));
  select::SelectStats stats;
  return selector.select(stats);
}

select::Solution Framework::best(double budgetRatio) const {
  select::CandidateSelector selector(*model_, selectorParams(budgetRatio));
  select::SelectStats stats;
  return selector.best(stats);
}

merge::MergeResult Framework::mergeSolution(
    const select::Solution& solution) const {
  return merge::AcceleratorMerger(tech_).run(solution);
}

EvaluationReport Framework::evaluate(double budgetRatio) const {
  EvaluationReport report;
  report.budgetRatio = budgetRatio;
  const std::string& unit = module_->name();

  auto start = std::chrono::steady_clock::now();
  // A memo hit skips the DP (with its select.* counters and span) and the
  // merge; the stage checkpoints still run.
  const select::SelectorParams params = selectorParams(budgetRatio);
  const Selected* memoized = nullptr;
  select::SelectStats stats;
  runStage(support::Stage::Select, unit, options_, [&] {
    memoized = memo_.find(params);
    if (memoized != nullptr) {
      report.solution = memoized->solution;
    } else {
      report.solution = select::CandidateSelector(*model_, params).best(stats);
    }
  });
  runStage(support::Stage::Merge, unit, options_, [&] {
    report.merging = memoized != nullptr ? memoized->merging
                                         : mergeSolution(report.solution);
  });
  if (memoized == nullptr) {
    memo_.offer(params, stats,
                [&] { return Selected{report.solution, report.merging}; });
  }
  report.selectionSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  double tAll = totalCpuCycles();
  double ratio = options_.clockRatio();
  report.totalCpuCycles = tAll;
  report.caymanSpeedup = report.solution.speedup(tAll, ratio);

  runStage(support::Stage::Baselines, unit, options_, [&] {
    baselines::NoviaFlow::Point noviaBest =
        novia_->best(budgetUm2(budgetRatio));
    report.noviaSpeedup = noviaBest.speedup(tAll);
    select::Solution qscoresBest =
        qscores_->best(budgetUm2(budgetRatio), ratio, options_.selectMode);
    report.qscoresSpeedup = qscoresBest.speedup(tAll, ratio);
  });

  // Baseline speedups are 0 when the baseline found nothing to accelerate
  // over an empty/degenerate profile; report the ratio as 0 instead of
  // letting inf/NaN flow into tables and averages.
  report.overNovia = report.noviaSpeedup > 0.0
                         ? report.caymanSpeedup / report.noviaSpeedup
                         : 0.0;
  report.overQsCores = report.qscoresSpeedup > 0.0
                           ? report.caymanSpeedup / report.qscoresSpeedup
                           : 0.0;

  for (const accel::AcceleratorConfig& config :
       report.solution.accelerators) {
    report.numSeqBlocks += config.numSeqBlocks;
    report.numPipelinedRegions += config.numPipelinedRegions;
    report.numCoupled += config.numCoupled;
    report.numDecoupled += config.numDecoupled;
    report.numScratchpad += config.numScratchpad;
  }
  report.areaSavingPercent = report.merging.savingPercent();
  return report;
}

}  // namespace cayman
