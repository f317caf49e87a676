// Region profiler: joins interpreter execution counts with the wPST,
// producing the "profiling results R" of paper §III-B (duration and
// execution count for every program region).
#pragma once

#include "analysis/regions.h"
#include "sim/interpreter.h"

namespace cayman::sim {

class ProfileData {
 public:
  ProfileData(const analysis::WPst& wpst, const Interpreter::Result& run,
              const CpuCostModel& model);

  /// Whole-application cycle count (T_all in Eq. 1).
  double totalCycles() const { return totalCycles_; }

  /// Dynamic execution count of a block.
  uint64_t blockCount(const ir::BasicBlock* block) const;
  /// Cycles spent in a block across the run (count × static block cost).
  double blockCycles(const ir::BasicBlock* block) const;

  /// Times the region was entered (its anchor block's execution count).
  uint64_t entries(const analysis::Region* region) const;
  /// Total cycles spent inside the region across the run (T_cand when the
  /// region is selected). Excludes callee time — regions containing calls
  /// are not candidates.
  double cycles(const analysis::Region* region) const;
  /// cycles(region) / totalCycles().
  double hotFraction(const analysis::Region* region) const {
    return totalCycles_ <= 0 ? 0.0 : cycles(region) / totalCycles_;
  }

  /// Average iterations per entry, from profile (summed latch counts /
  /// entries).
  double avgTripCount(const analysis::Loop* loop) const;

 private:
  const analysis::WPst& wpst_;
  std::unordered_map<const ir::BasicBlock*, uint64_t> counts_;
  std::unordered_map<const ir::BasicBlock*, double> cycles_;
  std::vector<double> regionCycles_;    // by region id
  std::vector<uint64_t> regionEntries_; // by region id
  double totalCycles_ = 0.0;
};

}  // namespace cayman::sim
