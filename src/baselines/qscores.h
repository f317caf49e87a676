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
  QsCoresFlow(const analysis::WPst& wpst, const sim::ProfileData& profile,
              const hls::TechLibrary& tech,
              accel::GenerateMode mode = accel::GenerateMode::Guided,
              const support::CancelToken* cancel = nullptr);

  /// Scan-chain access timing: high latency, one word at a time, the chain
  /// shared by every access.
  static hls::InterfaceTiming scanChainTiming();

  /// Model restrictions: sequential control only, coupled-style access only.
  static accel::ModelParams restrictedParams(
      accel::GenerateMode mode = accel::GenerateMode::Guided,
      const support::CancelToken* cancel = nullptr);

  /// Both are safe to call concurrently: selection state is per-call and
  /// the restricted model's generate cache and best()'s selection memo are
  /// internally synchronized. `mode` selects the DP engine (bit-identical
  /// results either way). best() keeps the first winner the budget does not
  /// bind and serves it, without running the DP, at every budget it covers
  /// under the same clock ratio and engine (select/selection_memo.h).
  std::vector<select::Solution> paretoFront(
      double areaBudgetUm2, double clockRatio = 1.25,
      select::SelectMode mode = select::SelectMode::Frontier) const;
  select::Solution best(
      double areaBudgetUm2, double clockRatio = 1.25,
      select::SelectMode mode = select::SelectMode::Frontier) const;

  const accel::AcceleratorModel& model() const { return model_; }

 private:
  accel::AcceleratorModel model_;
  mutable select::SelectionMemo<select::Solution> memo_;
};

}  // namespace cayman::baselines
