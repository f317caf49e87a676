#include "analysis/roofline.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace cayman::analysis {

const char* bottleneckSpelling(Bottleneck b) {
  switch (b) {
    case Bottleneck::ComputeBound: return "compute-bound";
    case Bottleneck::MemoryBound: return "memory-bound";
    case Bottleneck::Balanced: return "balanced";
  }
  return "?";
}

RooflineAnalysis::RooflineAnalysis(const WPst& wpst,
                                   const sim::ProfileData& profile,
                                   const hls::TechLibrary& tech,
                                   hls::InterfaceTiming timing, double clockNs,
                                   uint64_t unknownTripFallback)
    : wpst_(wpst),
      profile_(profile),
      scheduler_(tech, timing, clockNs),
      unknownTripFallback_(unknownTripFallback) {}

Bottleneck RooflineAnalysis::classifyIntensity(double intensity,
                                               double machineBalance) {
  if (intensity <= machineBalance * 0.5) return Bottleneck::MemoryBound;
  if (intensity >= machineBalance * 2.0) return Bottleneck::ComputeBound;
  return Bottleneck::Balanced;
}

unsigned RooflineAnalysis::saturatingUnroll(unsigned recMii,
                                            double bytesPerIter,
                                            double bytesPerCycle) {
  if (bytesPerIter <= 0.0) return kUnboundedUnroll;
  double u = std::floor(static_cast<double>(std::max(1u, recMii)) *
                        bytesPerCycle / bytesPerIter);
  if (u < 1.0) return 1;
  if (u >= static_cast<double>(kUnboundedUnroll)) return kUnboundedUnroll;
  return static_cast<unsigned>(u);
}

const ir::BasicBlock* RooflineAnalysis::pipelineableBody(
    const Region* loopRegion) const {
  if (loopRegion->kind() != RegionKind::Loop) return nullptr;
  if (!loopRegion->loop()->isInnermost()) return nullptr;
  if (loopRegion->loop()->latch() == nullptr) return nullptr;
  const ir::BasicBlock* body = nullptr;
  unsigned bodyBlocks = 0;
  for (const auto& child : loopRegion->children()) {
    if (!child->isBb()) return nullptr;
    const ir::BasicBlock* block = child->block();
    if (block == loopRegion->loop()->header() ||
        block == loopRegion->loop()->latch()) {
      continue;
    }
    ++bodyBlocks;
    body = block;
  }
  return bodyBlocks == 1 ? body : nullptr;
}

/// Bytes a single load/store moves (element size of the accessed slot).
static double accessBytes(const ir::Instruction& inst) {
  const ir::Type* type = inst.opcode() == ir::Opcode::Load
                             ? inst.type()
                             : inst.operand(0)->type();
  return static_cast<double>(type->sizeBytes());
}

RegionRoofline RooflineAnalysis::classifyUncached(const Region* region) const {
  RegionRoofline r;
  // Ridge point of the two ceilings: the datapath FSM retires on the order
  // of one dependent operation level per cycle, the DMA/bus moves
  // dmaBytesPerCycle. Both sides of the ratio are per-cycle, so the balance
  // is in ops/byte like the intensity.
  r.machineBalance =
      1.0 / static_cast<double>(scheduler_.timing().dmaBytesPerCycle);
  if (!region->isCandidate()) return r;

  double entries =
      std::max<double>(1.0, static_cast<double>(profile_.entries(region)));
  for (const ir::BasicBlock* block : region->blocks()) {
    double execsPerEntry =
        static_cast<double>(profile_.blockCount(block)) / entries;
    for (const auto& inst : block->instructions()) {
      if (inst->isMemoryAccess()) {
        r.bytesPerEntry += execsPerEntry * accessBytes(*inst);
      } else if (ir::isComputeOp(inst->opcode())) {
        r.opsPerEntry += execsPerEntry;
        if (ir::isFloatOp(inst->opcode())) r.flopsPerEntry += execsPerEntry;
      }
    }
  }
  r.intensity = r.bytesPerEntry > 0.0
                    ? r.opsPerEntry / r.bytesPerEntry
                    : std::numeric_limits<double>::infinity();
  r.bottleneck = classifyIntensity(r.intensity, r.machineBalance);

  // Critical-path label and bandwidth-saturating unroll from the hottest
  // pipelineable loop, judged under default (coupled) interfaces: the MII
  // bounds are interface-refinable, but a recurrence that pins the II under
  // the slowest interface choice identifies loops where the dependence
  // chain, not port replication, is the lever.
  const hls::IfaceAssignment defaultIfaces;
  double hottest = -1.0;
  region->walk([&](const Region& sub) {
    const ir::BasicBlock* body = pipelineableBody(&sub);
    if (body == nullptr) return;
    const MemoryAnalysis& mem = wpst_.analyses(sub.function()).mem;
    unsigned rec = scheduler_.recMII(mem.carriedDeps(sub.loop()),
                                     defaultIfaces);
    unsigned res = scheduler_.resMII(*body, defaultIfaces, 1);
    if (rec >= res) r.recurrenceLimited = true;
    double bytesPerIter = 0.0;
    for (const auto& inst : body->instructions()) {
      if (inst->isMemoryAccess()) bytesPerIter += accessBytes(*inst);
    }
    double cycles = profile_.cycles(&sub);
    if (cycles > hottest) {
      hottest = cycles;
      r.saturatingUnroll = saturatingUnroll(
          rec, bytesPerIter,
          static_cast<double>(scheduler_.timing().dmaBytesPerCycle));
    }
  });
  return r;
}

const RegionRoofline& RooflineAnalysis::classify(const Region* region) const {
  size_t id = static_cast<size_t>(region->id());
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (byId_.size() <= id) byId_.resize(wpst_.allRegions().size());
    CAYMAN_ASSERT(id < byId_.size(), "region id out of range");
    if (byId_[id] != nullptr) return *byId_[id];
  }
  // Compute outside the lock (pure function of the region); the loser of a
  // race simply discards its copy.
  RegionRoofline result = classifyUncached(region);
  std::lock_guard<std::mutex> lock(mutex_);
  if (byId_[id] == nullptr) {
    byId_[id] = std::make_unique<RegionRoofline>(result);
  }
  return *byId_[id];
}

}  // namespace cayman::analysis
