// Accelerator merging (paper §III-E): share reconfigurable datapath units
// between basic blocks of different kernels so one reusable accelerator
// serves multiple program regions — FSMs stay per-kernel, datapath operators
// get multiplexed inputs plus reconfiguration bits.
#pragma once

#include "merge/graph.h"

namespace cayman::merge {

/// The merger's one matching engine, matchUnitsGraph (merge/graph.h);
/// nothing branches on this type. It exists only because the benchmark
/// harness (perfbench/) still passes a mode to AcceleratorMerger.
enum class MergeMode {
  Graph,
};

/// Outcome of merging one solution's accelerators.
struct MergeResult {
  double areaBeforeUm2 = 0.0;
  double areaAfterUm2 = 0.0;
  /// Number of pairwise merge steps performed. Every step unions two
  /// distinct accelerator groups, so this never exceeds accelerators - 1.
  int mergeSteps = 0;
  /// Reusable accelerators produced (groups of >= 2 original kernels).
  int reusableAccelerators = 0;
  /// Average original kernels per reusable accelerator.
  double avgKernelsPerReusable = 0.0;
  /// Datapath units extracted (0 when the solution has < 2 accelerators —
  /// merging is strictly cross-accelerator, so nothing is even extracted).
  size_t unitsExtracted = 0;
  /// Cross-accelerator unit pairs in the initial compatibility scan: every
  /// pair of units owned by different accelerators (the
  /// `merge.pairs_evaluated` trace counter).
  uint64_t pairsEvaluated = 0;
  /// pairSaving evaluations the edge-heap matching performed: the initial
  /// scan plus the rescoring after each merge. A work measure for benches,
  /// not exported as a trace counter.
  uint64_t pairsScored = 0;

  double savingPercent() const {
    if (areaBeforeUm2 <= 0.0) return 0.0;
    return 100.0 * (areaBeforeUm2 - areaAfterUm2) / areaBeforeUm2;
  }
};

class AcceleratorMerger {
 public:
  /// The MergeMode argument is unused (see MergeMode).
  explicit AcceleratorMerger(const hls::TechLibrary& tech,
                             MergeMode = MergeMode::Graph)
      : tech_(tech) {}

  /// Contracts the compatibility graph: repeatedly merge the cross-group
  /// unit pair with the maximum positive net saving until none remains.
  /// Execution time is unaffected — kernels are offloaded one at a time, so
  /// a shared datapath never serializes anything that ran in parallel
  /// before.
  MergeResult run(const select::Solution& solution) const;

  /// Estimated net area saving of merging two fresh (fan-in 1) op multisets
  /// (shared operator area minus multiplexer / config-bit overhead).
  /// Exposed for tests; chained merges use the fan-in-aware
  /// merge::unitPairSaving.
  double pairSaving(const OpCounts& a, const OpCounts& b) const;

 private:
  const hls::TechLibrary& tech_;
};

}  // namespace cayman::merge
