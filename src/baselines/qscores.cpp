#include "baselines/qscores.h"

namespace cayman::baselines {

namespace {

select::SelectorParams selectorParams(double areaBudgetUm2, double clockRatio,
                                      select::SelectMode mode) {
  select::SelectorParams params;
  params.areaBudgetUm2 = areaBudgetUm2;
  params.clockRatio = clockRatio;
  params.mode = mode;
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
    accel::GenerateMode mode, const support::CancelToken* cancel) {
  accel::ModelParams params;
  params.allowDecoupled = false;
  params.allowScratchpad = false;
  params.allowPipelining = false;
  params.allowUnrolling = false;
  params.generateMode = mode;
  params.cancel = cancel;
  return params;
}

QsCoresFlow::QsCoresFlow(const analysis::WPst& wpst,
                         const sim::ProfileData& profile,
                         const hls::TechLibrary& tech,
                         accel::GenerateMode mode,
                         const support::CancelToken* cancel)
    : model_(wpst, profile, tech, scanChainTiming(),
             restrictedParams(mode, cancel)) {}

std::vector<select::Solution> QsCoresFlow::paretoFront(
    double areaBudgetUm2, double clockRatio,
    select::SelectMode mode) const {
  select::CandidateSelector selector(
      model_, selectorParams(areaBudgetUm2, clockRatio, mode));
  select::SelectStats stats;
  return selector.select(stats);
}

select::Solution QsCoresFlow::best(double areaBudgetUm2, double clockRatio,
                                   select::SelectMode mode) const {
  const select::SelectorParams params =
      selectorParams(areaBudgetUm2, clockRatio, mode);
  if (auto memoized = memo_.find(params)) return *memoized;
  select::SelectStats stats;
  select::Solution winner =
      select::CandidateSelector(model_, params).best(stats);
  memo_.offer(params, stats, [&] { return winner; });
  return winner;
}

}  // namespace cayman::baselines
