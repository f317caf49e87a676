// QsCores-like baseline [23]: off-core accelerators ("quasi-specific
// cores") that do support control flow and memory, but only synthesize
// sequential control logic and reach memory through a slow scan-chain-style
// interface (paper Table I / §II-B). Implemented by instantiating Cayman's
// own accelerator model with those restrictions, so the comparison isolates
// exactly the paper's claimed advantages.
#pragma once

#include "select/selection_memo.h"
#include "select/selector.h"

namespace cayman::baselines {

class QsCoresFlow {
 public:
  /// The GenerateMode argument is unused; the benchmark harness still
  /// passes one (see accel::GenerateMode).
  QsCoresFlow(const analysis::WPst& wpst, const sim::ProfileData& profile,
              const hls::TechLibrary& tech,
              accel::GenerateMode = accel::GenerateMode::Guided,
              const support::CancelToken* cancel = nullptr);

  /// Scan-chain access timing: high latency, one word at a time, the chain
  /// shared by every access.
  static hls::InterfaceTiming scanChainTiming();

  /// Model restrictions: sequential control only, coupled-style access only.
  static accel::ModelParams restrictedParams(
      const support::CancelToken* cancel = nullptr);

  /// Both are safe to call concurrently: selection state is per-call and
  /// the restricted model's generate cache and best()'s selection memo are
  /// internally synchronized. best() keeps the first winner the budget does
  /// not bind and serves it, without running the DP, at every budget it
  /// covers under the same clock ratio (select/selection_memo.h). Its
  /// SelectMode argument is unused; the benchmark harness still passes one.
  std::vector<select::Solution> paretoFront(double areaBudgetUm2,
                                            double clockRatio = 1.25) const;
  select::Solution best(
      double areaBudgetUm2, double clockRatio = 1.25,
      select::SelectMode = select::SelectMode::Frontier) const;

  const accel::AcceleratorModel& model() const { return model_; }

 private:
  accel::AcceleratorModel model_;
  mutable select::SelectionMemo<select::Solution> memo_;
};

}  // namespace cayman::baselines
