#include "hls/scheduler.h"

#include <algorithm>
#include <cmath>

#include "support/trace.h"

namespace cayman::hls {

namespace {

AccessIface ifaceFor(const ir::Instruction& inst,
                     const IfaceAssignment& ifaces) {
  auto it = ifaces.find(&inst);
  return it == ifaces.end() ? AccessIface{} : it->second;
}

/// One schedulable operation of scheduleBlock(), with every fact the unroll
/// instances need computed once per call.
struct SchedNode {
  const ir::Instruction* inst = nullptr;
  AccessIface iface;  ///< default for non-accesses
  unsigned latency = 0;
  /// Non-promoted memory access: takes part in memory ordering and competes
  /// for its interface's shared resource.
  bool ordered = false;
  unsigned occupancy = 0;  ///< coupled port cycles
  unsigned bank = 0;       ///< scratchpad bank group
  /// Predecessors whose finish gates this node's start — in-block operand
  /// definitions and earlier accesses it may conflict with — as a slice of
  /// SchedScratch::preds.
  unsigned predBegin = 0;
  unsigned predEnd = 0;
  unsigned finish = 0;  ///< in the instance being scheduled
};

/// Scratchpad banks of one resource key (a backing array, else a single
/// access). The live bank count grows the first time an access asks for
/// more partitions, exactly when the schedule reaches it; `capacity` is the
/// final count, so every group's banks fit one flat vector.
struct BankGroup {
  const void* key = nullptr;
  unsigned base = 0;
  unsigned capacity = 0;
  unsigned live = 0;
};

/// Per-thread working storage, reused across calls so scheduling a block
/// allocates nothing once the vectors have grown.
struct SchedScratch {
  std::vector<SchedNode> nodes;
  std::vector<std::pair<const ir::Instruction*, unsigned>> index;
  std::vector<unsigned> preds;
  std::vector<BankGroup> banks;
  std::vector<unsigned> bankFree;  ///< next free cycle per bank
};

thread_local SchedScratch t_sched;

}  // namespace

const char* ifaceSpelling(IfaceKind kind) {
  switch (kind) {
    case IfaceKind::Coupled: return "coupled";
    case IfaceKind::Decoupled: return "decoupled";
    case IfaceKind::Scratchpad: return "scratchpad";
  }
  return "?";
}

unsigned Scheduler::opLatency(const ir::Instruction& inst,
                              const IfaceAssignment& ifaces) const {
  return latencyUnder(inst, inst.isMemoryAccess() ? ifaceFor(inst, ifaces)
                                                  : AccessIface{});
}

unsigned Scheduler::latencyUnder(const ir::Instruction& inst,
                                 const AccessIface& iface) const {
  if (inst.opcode() == ir::Opcode::Load) {
    return iface.promoted ? 0 : timing_.loadLatency(iface.kind);
  }
  if (inst.opcode() == ir::Opcode::Store) {
    return iface.promoted ? 0 : timing_.storeLatency(iface.kind);
  }
  return tech_.latencyCycles(inst.opcode(), inst.type(), clockNs_);
}

const void* Scheduler::bankKey(const AccessIface& iface,
                               const ir::Instruction& inst) {
  (void)inst;
  return iface.array != nullptr ? static_cast<const void*>(iface.array)
                                : static_cast<const void*>(&inst);
}

BlockSchedule Scheduler::scheduleBlock(const ir::BasicBlock& block,
                                       const IfaceAssignment& ifaces,
                                       unsigned unroll,
                                       std::vector<unsigned>* starts) const {
  CAYMAN_ASSERT(unroll >= 1, "unroll factor must be >= 1");
  ++blockCalls_;
  support::trace::count("sched.block_calls", 1);
  BlockSchedule result;
  SchedScratch& scratch = t_sched;
  std::vector<SchedNode>& nodes = scratch.nodes;
  std::vector<unsigned>& preds = scratch.preds;
  std::vector<BankGroup>& banks = scratch.banks;
  nodes.clear();
  preds.clear();
  banks.clear();

  // Schedulable nodes: everything but phis (register selects, free) and the
  // terminator (FSM transition). Area accumulates in node order: operators
  // replicate per unroll instance; every multi-cycle value needs a
  // pipeline/holding register.
  double opArea = 0.0;
  double regArea = 0.0;
  for (const auto& inst : block.instructions()) {
    if (inst->opcode() == ir::Opcode::Phi || inst->isTerminator()) continue;
    SchedNode node;
    node.inst = inst.get();
    if (inst->isMemoryAccess()) node.iface = ifaceFor(*inst, ifaces);
    node.latency = latencyUnder(*inst, node.iface);
    node.ordered = inst->isMemoryAccess() && !node.iface.promoted;
    node.occupancy = inst->opcode() == ir::Opcode::Load
                         ? timing_.coupledLoadOccupancy
                         : timing_.coupledStoreOccupancy;
    nodes.push_back(node);
    opArea += tech_.opInfo(inst->opcode(), inst->type()).areaUm2;
    if (!inst->type()->isVoid()) {
      regArea += tech_.registerAreaPerBit * inst->type()->bitWidth();
    }
  }
  result.numOps = static_cast<unsigned>(nodes.size());
  result.opAreaUm2 = opArea * unroll;
  result.regAreaUm2 = regArea * unroll;

  // Node position by instruction, for operand lookups.
  auto& index = scratch.index;
  index.clear();
  for (unsigned i = 0; i < nodes.size(); ++i) {
    index.emplace_back(nodes[i].inst, i);
  }
  std::sort(index.begin(), index.end());

  for (unsigned i = 0; i < nodes.size(); ++i) {
    SchedNode& node = nodes[i];
    node.predBegin = static_cast<unsigned>(preds.size());
    for (const ir::Value* operand : node.inst->operands()) {
      const auto* def = ir::dynCast<ir::Instruction>(operand);
      if (def == nullptr || def->parent() != &block) continue;
      auto it = std::lower_bound(index.begin(), index.end(),
                                 std::make_pair(def, 0u));
      // Only earlier nodes: a def not yet scheduled in the current instance
      // has no finish time to wait for.
      if (it != index.end() && it->first == def && it->second < i) {
        preds.push_back(it->second);
      }
    }
    if (node.ordered) {
      // Memory ordering within one instance: accesses that may conflict
      // keep program order (same array with a store involved, or any
      // unknown address). `ifaces.array` is the statically resolved base
      // where known.
      bool store = node.inst->opcode() == ir::Opcode::Store;
      for (unsigned j = 0; j < i; ++j) {
        if (!nodes[j].ordered) continue;
        if (!store && nodes[j].inst->opcode() != ir::Opcode::Store) continue;
        const ir::GlobalArray* arrA = nodes[j].iface.array;
        const ir::GlobalArray* arrB = node.iface.array;
        if (arrA == nullptr || arrB == nullptr || arrA == arrB) {
          preds.push_back(j);
        }
      }
      if (node.iface.kind == IfaceKind::Scratchpad) {
        const void* key = bankKey(node.iface, *node.inst);
        auto group = std::find_if(
            banks.begin(), banks.end(),
            [&](const BankGroup& g) { return g.key == key; });
        if (group == banks.end()) {
          group = banks.insert(banks.end(), BankGroup{key});
        }
        group->capacity =
            std::max(group->capacity, std::max(node.iface.partitions, 1u));
        node.bank = static_cast<unsigned>(group - banks.begin());
      }
    }
    node.predEnd = static_cast<unsigned>(preds.size());
  }
  unsigned bankSlots = 0;
  for (BankGroup& group : banks) {
    group.base = bankSlots;
    bankSlots += group.capacity;
  }
  scratch.bankFree.assign(bankSlots, 0);
  if (starts != nullptr) starts->clear();

  // Resource state shared across unroll instances: the coupled port's next
  // free cycle and each scratchpad bank's next free cycle (greedy).
  unsigned coupledPortFree = 0;
  unsigned overallFinish = 0;
  for (unsigned instance = 0; instance < unroll; ++instance) {
    for (SchedNode& node : nodes) {
      unsigned startCycle = 0;
      for (unsigned p = node.predBegin; p < node.predEnd; ++p) {
        startCycle = std::max(startCycle, nodes[preds[p]].finish);
      }
      if (node.ordered) {
        switch (node.iface.kind) {
          case IfaceKind::Coupled:
            startCycle = std::max(startCycle, coupledPortFree);
            coupledPortFree = startCycle + node.occupancy;
            break;
          case IfaceKind::Scratchpad: {
            BankGroup& group = banks[node.bank];
            unsigned parts = node.iface.partitions;
            if (group.live < parts) group.live = std::max(parts, 1u);
            auto first = scratch.bankFree.begin() + group.base;
            auto slot = std::min_element(first, first + group.live);
            startCycle = std::max(startCycle, *slot);
            *slot = startCycle + 1;  // single-cycle bank occupancy
            break;
          }
          case IfaceKind::Decoupled:
            break;  // private FIFO: no shared resource
        }
      }
      if (starts != nullptr) starts->push_back(startCycle);
      node.finish = startCycle + node.latency;
      overallFinish = std::max(overallFinish, node.finish);
    }
  }
  result.latency = nodes.empty() ? 1 : std::max(1u, overallFinish);
  return result;
}

unsigned Scheduler::resMII(const ir::BasicBlock& block,
                           const IfaceAssignment& ifaces,
                           unsigned unroll) const {
  unsigned coupledDemand = 0;
  std::map<const void*, std::pair<unsigned, unsigned>> bankDemand;  // count, parts
  for (const auto& inst : block.instructions()) {
    if (!inst->isMemoryAccess()) continue;
    AccessIface iface = ifaceFor(*inst, ifaces);
    if (iface.promoted) continue;  // register-held: no port demand
    switch (iface.kind) {
      case IfaceKind::Coupled:
        coupledDemand += (inst->opcode() == ir::Opcode::Load
                              ? timing_.coupledLoadOccupancy
                              : timing_.coupledStoreOccupancy) *
                         unroll;
        break;
      case IfaceKind::Scratchpad: {
        auto& [count, parts] = bankDemand[bankKey(iface, *inst)];
        count += unroll;
        parts = std::max(parts, std::max(1u, iface.partitions));
        break;
      }
      case IfaceKind::Decoupled:
        break;
    }
  }
  unsigned ii = std::max(1u, coupledDemand);
  for (const auto& [key, demand] : bankDemand) {
    (void)key;
    auto [count, parts] = demand;
    ii = std::max(ii, (count + parts - 1) / parts);
  }
  return ii;
}

unsigned Scheduler::recMII(std::span<const analysis::LoopCarriedDep> deps,
                           const IfaceAssignment& ifaces) const {
  unsigned ii = 1;
  for (const analysis::LoopCarriedDep& dep : deps) {
    unsigned chainLatency = 0;
    for (const ir::Instruction* inst : dep.chain) {
      chainLatency += opLatency(*inst, ifaces);
    }
    unsigned distance = std::max(1u, dep.distance);
    ii = std::max(ii, (chainLatency + distance - 1) / distance);
  }
  return ii;
}

uint64_t Scheduler::pipelinedCycles(uint64_t iterations, unsigned depth,
                                    unsigned ii) {
  if (iterations == 0) return 0;
  return depth + (iterations - 1) * static_cast<uint64_t>(ii);
}

}  // namespace cayman::hls
