#include "sim/profiler.h"

namespace cayman::sim {

ProfileData::ProfileData(const analysis::WPst& wpst,
                         const Interpreter::Result& run,
                         const CpuCostModel& model)
    : wpst_(wpst), totalCycles_(run.totalCycles) {
  for (const auto& [block, count] : run.blockCounts) {
    counts_[block] = count;
    cycles_[block] = static_cast<double>(count) * model.blockCost(*block);
  }

  regionCycles_.assign(wpst.allRegions().size(), 0.0);
  regionEntries_.assign(wpst.allRegions().size(), 0);
  for (const analysis::Region* region : wpst.allRegions()) {
    double total = 0.0;
    for (const ir::BasicBlock* block : region->blocks()) {
      total += blockCycles(block);
    }
    regionCycles_[static_cast<size_t>(region->id())] = total;
    if (region->profileAnchor() != nullptr) {
      regionEntries_[static_cast<size_t>(region->id())] =
          blockCount(region->profileAnchor());
    }
  }
}

uint64_t ProfileData::blockCount(const ir::BasicBlock* block) const {
  auto it = counts_.find(block);
  return it == counts_.end() ? 0 : it->second;
}

double ProfileData::blockCycles(const ir::BasicBlock* block) const {
  auto it = cycles_.find(block);
  return it == cycles_.end() ? 0.0 : it->second;
}

uint64_t ProfileData::entries(const analysis::Region* region) const {
  return regionEntries_.at(static_cast<size_t>(region->id()));
}

double ProfileData::cycles(const analysis::Region* region) const {
  return regionCycles_.at(static_cast<size_t>(region->id()));
}

double ProfileData::avgTripCount(const analysis::Loop* loop) const {
  // Back-edge traversals: every latch's count.
  uint64_t iterations = 0;
  for (const ir::BasicBlock* latch : loop->latches()) {
    iterations += blockCount(latch);
  }
  uint64_t entries = loop->preheader() != nullptr
                         ? blockCount(loop->preheader())
                         : 1;
  if (entries == 0) return 0.0;
  return static_cast<double>(iterations) / static_cast<double>(entries);
}

}  // namespace cayman::sim
