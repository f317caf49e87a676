// Candidate selection (paper §III-D, Algorithm 1): a knapsack over the wPST
// solved by dynamic programming with Pareto sequences, the ⊗ combine, the
// α-filter and heuristic hotspot pruning.
#pragma once

#include "accel/model.h"
#include "select/frontier.h"
#include "support/cancellation.h"

namespace cayman::select {

/// The selector's one DP engine. Algorithm 1 always runs the
/// frontier-compressed DP (select/frontier.h); nothing branches on this
/// type. It exists only because the benchmark harness (perfbench/) still
/// assigns SelectorParams::mode and passes a mode to QsCoresFlow::best().
enum class SelectMode {
  Frontier,
};

struct SelectorParams {
  /// Knapsack area limit (um^2). Table II uses 25% / 65% of a CVA6 tile.
  double areaBudgetUm2 = 0.0;
  /// Filter ratio α: neighbouring kept solutions differ in area by > α.
  double alpha = 1.12;
  /// Prune regions whose profiled share of T_all is below this fraction.
  double pruneHotFraction = 5e-4;
  /// Accelerator clock period over CPU clock period (Eq. 1's 1/F in CPU
  /// cycle units). 1.25 = 500 MHz accelerators beside a 625 MHz CVA6 on the
  /// same 45nm node.
  double clockRatio = 1.25;
  /// Unused (see SelectMode).
  SelectMode mode = SelectMode::Frontier;
  /// Optional cooperative cancellation: the DP polls this once per region
  /// visit and aborts with support::CancelledError when expired. Must
  /// outlive the selector run; nullptr disables the checks.
  const support::CancelToken* cancel = nullptr;
};

class CandidateSelector {
 public:
  CandidateSelector(const accel::AcceleratorModel& model,
                    SelectorParams params)
      : model_(model), params_(params) {}

  /// Old name of SelectStats, still used by perfbench/walk.cpp.
  using Stats = SelectStats;

  /// Runs Algorithm 1 and returns F[root]: the Pareto-optimal solution
  /// sequence under the area budget, ascending in area. Stats accumulate
  /// into the caller-owned `stats`, so one selector can run concurrently
  /// from several threads (the model's generate cache is internally
  /// synchronized; the selector itself holds no mutable state).
  std::vector<Solution> select(SelectStats& stats) const;

  /// The single best solution under the budget: the first element of
  /// select() with the strictly largest savedCycles above 0, or the empty
  /// solution when nothing saves cycles. Same DP, stats and counters as
  /// select(); the frontier engine materializes only the winner.
  Solution best(SelectStats& stats) const;

  /// Convenience wrappers recording into the selector-owned stats block.
  /// Single-threaded use only; `stats()` reads back the last run.
  std::vector<Solution> select() { return select(stats_); }
  Solution best() { return best(stats_); }
  const SelectStats& stats() const { return stats_; }

  const SelectorParams& params() const { return params_; }

 private:
  /// Candidate lists the DP consumes, indexed by Region::id() over
  /// wpst().allRegions(); nullptr for regions the DP never queries.
  using CandidateLists =
      std::vector<const std::vector<accel::AcceleratorConfig>*>;

  /// select() and best(): Algorithm 1 plus the select.* counters. Returns
  /// the whole root front, or with `winnerOnly` just best()'s pick (empty
  /// when nothing saves cycles).
  std::vector<Solution> run(SelectStats& stats, bool winnerOnly) const;

  /// True when the DP prunes this region's subtree (the hotspot heuristic).
  bool prunes(const analysis::Region* region) const;

  /// Pre-pass mirroring the DP traversal: generates, in the DP's exact
  /// query order (post-order: Bb leaves as encountered, ctrl-flow regions
  /// after their children), every region the DP will ask candidates for,
  /// and files each list under its Region::id() in `lists` (sized to the
  /// wPST by the caller). The same per-region generate() calls the DP used
  /// to make inline, so model.cache_* counter totals are unchanged. Runs
  /// outside the select.dp span: generation is memoized, budget-independent
  /// model work, and attributing its first (cold) computation to the DP span
  /// hid what the DP itself costs.
  void collectCandidates(const analysis::Region* region,
                         CandidateLists& lists) const;

  /// Looks up a pre-collected candidate list; the pre-pass mirrors the DP
  /// traversal exactly, so a miss is a traversal bug, not a data condition.
  static const std::vector<accel::AcceleratorConfig>& candidatesFor(
      const CandidateLists& lists, const analysis::Region* region);

  /// The frontier DP over one scratch stack: pushes F[region] onto the top
  /// of `buffer` and returns its begin offset (the front ends at
  /// buffer.size()). Children's fronts are pushed above the parent's and
  /// consumed by combine() in place, so no region allocates.
  size_t dpFrontier(const analysis::Region* region,
                    const CandidateLists& lists, SelectStats& stats,
                    SolutionArena& arena,
                    std::vector<FrontierEntry>& buffer) const;

  const accel::AcceleratorModel& model_;
  SelectorParams params_;
  SelectStats stats_;
};

}  // namespace cayman::select
