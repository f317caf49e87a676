#include "analysis/memdep.h"

#include <algorithm>
#include <deque>

#include "analysis/regions.h"

namespace cayman::analysis {

namespace {

/// True when two affine forms have identical symbolic terms (so their
/// difference is the constant delta).
bool sameTerms(const Affine& a, const Affine& b) {
  return a.terms == b.terms;
}

/// Do the symbol sets make a static comparison meaningful? Any symbol that
/// varies inside `loop` and is not an induction-variable phi defeats it.
bool comparableIn(const Affine& a, const Loop* loop) {
  if (!a.valid) return false;
  for (const auto& [symbol, coeff] : a.terms) {
    (void)coeff;
    const auto* inst = ir::dynCast<ir::Instruction>(symbol);
    if (inst == nullptr) continue;
    if (inst->opcode() == ir::Opcode::Phi) continue;  // IV-like
    if (loop->contains(inst->parent())) return false;
  }
  return true;
}

}  // namespace

MemoryAnalysis::MemoryAnalysis(const ir::Function& function,
                               const FunctionAnalyses& fa,
                               const ScalarEvolution& scev)
    : function_(function), loops_(fa.loops), scev_(scev) {
  blockBegin_.reserve(function.numBlocks() + 1);
  for (const auto& block : function.blocks()) {
    blockBegin_.push_back(static_cast<uint32_t>(accesses_.size()));
    for (const auto& inst : block->instructions()) {
      if (!inst->isMemoryAccess()) continue;
      MemAccessInfo info;
      info.inst = inst.get();
      info.isStore = inst->opcode() == ir::Opcode::Store;
      info.addr = scev.addressOf(inst.get());
      accesses_.push_back(std::move(info));
    }
  }
  blockBegin_.push_back(static_cast<uint32_t>(accesses_.size()));
  deps_.resize(fa.loops.loops().size());
  for (const auto& loop : fa.loops.loops()) {
    analyzeLoop(loop.get());
  }
}

const MemAccessInfo* MemoryAnalysis::infoFor(
    const ir::Instruction* inst) const {
  const ir::BasicBlock* block = inst->parent();
  if (block == nullptr || block->parent() != &function_) return nullptr;
  for (uint32_t i = blockBegin_[block->index()];
       i < blockBegin_[block->index() + 1]; ++i) {
    if (accesses_[i].inst == inst) return &accesses_[i];
  }
  return nullptr;
}

const std::vector<LoopCarriedDep>& MemoryAnalysis::carriedDeps(
    const Loop* loop) const {
  const auto& loops = loops_.loops();
  const size_t i = loop->index();
  return i < loops.size() && loops[i].get() == loop ? deps_[i] : noDeps_;
}

void MemoryAnalysis::analyzeLoop(const Loop* loop) {
  std::vector<LoopCarriedDep>& out = deps_[loop->index()];

  // --- Scalar recurrences: non-IV header phis fed from the latch through a
  // def-use cycle (e.g. floating-point accumulation).
  const ir::BasicBlock* latch = loop->latch();
  for (const ir::Instruction* phi : loop->header()->phis()) {
    if (scev_.inductionVar(phi) != nullptr) continue;
    if (latch == nullptr) continue;
    const auto* update =
        ir::dynCast<ir::Instruction>(phi->incomingValueFor(latch));
    if (update == nullptr || !loop->contains(update->parent())) continue;
    std::vector<const ir::Instruction*> chain = defUsePath(update, phi, loop);
    if (chain.empty()) continue;
    LoopCarriedDep dep;
    dep.kind = LoopCarriedDep::Kind::Scalar;
    dep.loop = loop;
    dep.src = phi;
    dep.dst = update;
    dep.distance = 1;
    dep.chain = std::move(chain);
    out.push_back(std::move(dep));
  }

  // --- Memory recurrences: store vs load/store pairs on the same base.
  // `inLoop` points into accesses_, so pointer order is program order.
  std::vector<const MemAccessInfo*> inLoop;
  for (const ir::BasicBlock* block : loop->blocks()) {
    for (uint32_t i = blockBegin_[block->index()];
         i < blockBegin_[block->index() + 1]; ++i) {
      inLoop.push_back(&accesses_[i]);
    }
  }
  for (const MemAccessInfo* store : inLoop) {
    if (!store->isStore) continue;
    for (const MemAccessInfo* other : inLoop) {
      if (other == store) continue;
      // Each store pair once, with the earlier store as the source.
      if (other->isStore && other < store) continue;

      // Distinct statically-known bases can never alias (globals are
      // disjoint arrays in the flat address space).
      if (store->addr.valid && other->addr.valid &&
          store->addr.base != other->addr.base) {
        continue;
      }

      auto conservative = [&]() {
        LoopCarriedDep dep;
        dep.kind = LoopCarriedDep::Kind::Memory;
        dep.loop = loop;
        dep.src = store->inst;
        dep.dst = other->inst;
        dep.distance = 1;
        dep.chain = defUsePath(store->inst, other->inst, loop);
        dep.chain.push_back(store->inst);
        if (std::find(dep.chain.begin(), dep.chain.end(), other->inst) ==
            dep.chain.end()) {
          dep.chain.push_back(other->inst);
        }
        out.push_back(std::move(dep));
      };

      if (!store->addr.valid || !other->addr.valid ||
          !comparableIn(store->addr.offset, loop) ||
          !comparableIn(other->addr.offset, loop)) {
        conservative();
        continue;
      }
      if (!sameTerms(store->addr.offset, other->addr.offset)) {
        // Same array, structurally different subscripts (e.g. A[i][j] vs
        // A[j][i]): assume a carried dependence.
        conservative();
        continue;
      }

      int64_t delta =
          other->addr.offset.constant - store->addr.offset.constant;
      int64_t stride = store->addr.offset.coeffForLoop(loop);
      if (stride == 0) {
        if (delta == 0) {
          // Same loop-invariant location every iteration (z[i] += ...).
          LoopCarriedDep dep;
          dep.kind = LoopCarriedDep::Kind::Memory;
          dep.loop = loop;
          dep.src = store->inst;
          dep.dst = other->inst;
          dep.distance = 1;
          dep.chain = defUsePath(store->inst, other->inst, loop);
          dep.chain.push_back(store->inst);
          if (std::find(dep.chain.begin(), dep.chain.end(), other->inst) ==
              dep.chain.end()) {
            dep.chain.push_back(other->inst);
          }
          out.push_back(std::move(dep));
        }
        // delta != 0: two fixed, distinct locations — independent.
        continue;
      }
      if (delta == 0) continue;  // same address, same iteration only
      if (delta % stride != 0) continue;  // interleaved, never collide
      int64_t distance = delta / stride;
      if (distance < 0) distance = -distance;
      LoopCarriedDep dep;
      dep.kind = LoopCarriedDep::Kind::Memory;
      dep.loop = loop;
      dep.src = store->inst;
      dep.dst = other->inst;
      dep.distance = static_cast<unsigned>(distance);
      dep.chain = {store->inst, other->inst};
      out.push_back(std::move(dep));
    }
  }
}

std::vector<const ir::Instruction*> MemoryAnalysis::defUsePath(
    const ir::Instruction* from, const ir::Instruction* to,
    const Loop* loop) const {
  // BFS backwards through operands of `from` until `to` is reached.
  std::map<const ir::Instruction*, const ir::Instruction*> cameFrom;
  std::deque<const ir::Instruction*> queue{from};
  cameFrom[from] = nullptr;
  while (!queue.empty()) {
    const ir::Instruction* current = queue.front();
    queue.pop_front();
    if (current == to) {
      std::vector<const ir::Instruction*> path;
      for (const ir::Instruction* i = current; i != nullptr;
           i = cameFrom[i]) {
        path.push_back(i);
      }
      return path;
    }
    for (const ir::Value* operand : current->operands()) {
      const auto* inst = ir::dynCast<ir::Instruction>(operand);
      if (inst == nullptr || cameFrom.count(inst) != 0) continue;
      if (loop != nullptr && !loop->contains(inst->parent())) continue;
      cameFrom[inst] = current;
      queue.push_back(inst);
    }
  }
  return {};
}

bool MemoryAnalysis::isStream(const ir::Instruction* access,
                              const Loop* loop) const {
  const MemAccessInfo* info = infoFor(access);
  if (info == nullptr || !info->addr.valid) return false;
  return info->addr.offset.isStreamIn(loop);
}

std::optional<uint64_t> MemoryAnalysis::footprintElems(
    const ir::Instruction* access, const Region* region,
    uint64_t unknownTrip) const {
  const MemAccessInfo* info = infoFor(access);
  if (info == nullptr || !info->addr.valid) return std::nullopt;

  // Reject addresses with loop-varying non-IV symbols (indirect indexing).
  for (const auto& [symbol, coeff] : info->addr.offset.terms) {
    (void)coeff;
    const auto* inst = ir::dynCast<ir::Instruction>(symbol);
    if (inst != nullptr && inst->opcode() != ir::Opcode::Phi) {
      // Invariant relative to the region? If defined inside, give up.
      for (const ir::BasicBlock* b : region->blocks()) {
        if (inst->parent() == b) return std::nullopt;
      }
    }
  }

  uint64_t footprint = 1;
  for (const Loop* loop = loops_.loopFor(access->parent()); loop != nullptr;
       loop = loop->parent()) {
    // Only loops nested inside the region multiply the footprint.
    bool loopInRegion =
        std::find(region->blocks().begin(), region->blocks().end(),
                  loop->header()) != region->blocks().end();
    if (!loopInRegion) break;
    if (info->addr.offset.coeffForLoop(loop) == 0) continue;
    TripCount trip = scev_.tripCount(loop);
    footprint *= trip.known ? trip.value : unknownTrip;
  }
  return footprint;
}

}  // namespace cayman::analysis
