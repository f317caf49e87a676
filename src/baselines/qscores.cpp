#include "baselines/qscores.h"

namespace cayman::baselines {

namespace {

select::SelectorParams selectorParams(double areaBudgetUm2,
                                      double clockRatio) {
  select::SelectorParams params;
  params.areaBudgetUm2 = areaBudgetUm2;
  params.clockRatio = clockRatio;
  return params;
}

}  // namespace

hls::InterfaceTiming QsCoresFlow::scanChainTiming() {
  hls::InterfaceTiming timing;
  // Scan-chain data access: words serially shifted through the chain —
  // roughly twice the latency and occupancy of a dedicated coupled port
  // ([22], [23]). Slow enough to cap scaling, not so slow the flow never
  // beats the CPU (QsCores is a real baseline, clearly above NOVIA).
  timing.coupledLoadLatency = 6;
  timing.coupledLoadOccupancy = 5;
  timing.coupledStoreLatency = 3;
  timing.coupledStoreOccupancy = 2;
  return timing;
}

accel::ModelParams QsCoresFlow::restrictedParams(
    const support::CancelToken* cancel) {
  accel::ModelParams params;
  params.allowDecoupled = false;
  params.allowScratchpad = false;
  params.optimizeControlFlow = false;
  params.cancel = cancel;
  return params;
}

QsCoresFlow::QsCoresFlow(const analysis::WPst& wpst,
                         const sim::ProfileData& profile,
                         const hls::TechLibrary& tech, accel::GenerateMode,
                         const support::CancelToken* cancel)
    : model_(wpst, profile, tech, scanChainTiming(),
             restrictedParams(cancel)) {}

std::vector<select::Solution> QsCoresFlow::paretoFront(
    double areaBudgetUm2, double clockRatio) const {
  select::CandidateSelector selector(model_,
                                     selectorParams(areaBudgetUm2, clockRatio));
  select::SelectStats stats;
  return selector.select(stats);
}

select::Solution QsCoresFlow::best(double areaBudgetUm2, double clockRatio,
                                   select::SelectMode) const {
  const select::SelectorParams params =
      selectorParams(areaBudgetUm2, clockRatio);
  if (const select::Solution* memoized = memo_.find(params)) {
    return *memoized;
  }
  select::SelectStats stats;
  select::Solution winner =
      select::CandidateSelector(model_, params).best(stats);
  memo_.offer(params, stats, [&] { return winner; });
  return winner;
}

}  // namespace cayman::baselines
