// Reference generator: the exhaustive enumeration oracle for
// AcceleratorModel::generate(). It estimates every point of a region's
// unroll ladder — no roofline clamp, no MII admission, no guarded walk, no
// schedule cache — so the roofline-guided engine can be checked for what it
// must never change (the Pareto front the selector sees) and measured for
// what it saves (estimate and scheduleBlock calls).
#pragma once

#include <vector>

#include "accel/model.h"

namespace cayman::oracles {

class ReferenceGenerator {
 public:
  /// Enumerates with `model`'s parameters, wPST, profile and timing. The
  /// model itself is only read (ladderConfig); nothing is estimated on it.
  explicit ReferenceGenerator(const accel::AcceleratorModel& model);

  /// One config per ladder point — the sequential point, then every unroll
  /// factor optimized (just the pipelined point when unrolling is off) —
  /// sorted by area with exact (area, cycles) duplicates dropped.
  /// Dominated points are kept. Memoized per region, like generate().
  const std::vector<accel::AcceleratorConfig>& generate(
      const analysis::Region* region);

  /// estimate() and scheduleBlock() calls the enumeration cost so far. Each
  /// config is estimated on a fresh model, so every block schedule it needs
  /// is a cache miss: the counts are those of an uncached enumeration.
  uint64_t estimateCalls() const { return estimateCalls_; }
  uint64_t scheduleBlockCalls() const { return scheduleBlockCalls_; }

 private:
  std::vector<accel::AcceleratorConfig> enumerate(
      const analysis::Region* region);

  const accel::AcceleratorModel& model_;
  std::vector<bool> done_;  ///< by Region::id()
  std::vector<std::vector<accel::AcceleratorConfig>> lists_;
  uint64_t estimateCalls_ = 0;
  uint64_t scheduleBlockCalls_ = 0;
};

}  // namespace cayman::oracles
