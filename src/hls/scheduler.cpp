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

/// Per-call state of one planned node: the facts its access's interface
/// decides, plus its finish cycle in the instance being scheduled.
struct SchedNode {
  unsigned latency = 0;
  /// Non-promoted memory access: takes part in memory ordering and competes
  /// for its interface's shared resource.
  bool ordered = false;
  IfaceKind kind = IfaceKind::Coupled;
  unsigned partitions = 1;
  unsigned occupancy = 0;  ///< coupled port cycles
  unsigned bank = 0;       ///< scratchpad bank group
  /// Earlier accesses it may conflict with, as a slice of
  /// SchedScratch::memPreds (its operand predecessors are in the plan).
  unsigned memBegin = 0;
  unsigned memEnd = 0;
  unsigned finish = 0;
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
  std::vector<unsigned> memPreds;
  std::vector<BankGroup> banks;
  std::vector<unsigned> bankFree;  ///< next free cycle per bank
  std::vector<AccessIface> signature;  ///< signature()
  std::vector<std::pair<const ir::Instruction*, unsigned>> index;  ///< plan()
};

thread_local SchedScratch t_sched;

/// Scratchpad demand of one resource key in resMII().
struct BankDemand {
  const void* key = nullptr;
  unsigned count = 0;
  unsigned parts = 0;
};

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

BlockPlan Scheduler::plan(const ir::BasicBlock& block) const {
  BlockPlan plan;
  plan.nodes.reserve(block.instructions().size());
  // Area accumulates in node order: operators replicate per unroll
  // instance; every multi-cycle value needs a pipeline/holding register.
  for (const auto& inst : block.instructions()) {
    if (inst->opcode() == ir::Opcode::Phi || inst->isTerminator()) continue;
    BlockPlan::Node node;
    node.inst = inst.get();
    if (inst->isMemoryAccess()) {
      node.access = static_cast<unsigned>(plan.accesses.size());
      plan.accesses.push_back(static_cast<unsigned>(plan.nodes.size()));
    } else {
      node.latency = latencyUnder(*inst, AccessIface{});
    }
    plan.nodes.push_back(node);
    plan.opAreaUm2 += tech_.opInfo(inst->opcode(), inst->type()).areaUm2;
    if (!inst->type()->isVoid()) {
      plan.regAreaUm2 += tech_.registerAreaPerBit * inst->type()->bitWidth();
    }
  }

  // Node position by instruction, for operand lookups.
  std::vector<std::pair<const ir::Instruction*, unsigned>>& index =
      t_sched.index;
  index.clear();
  for (unsigned i = 0; i < plan.nodes.size(); ++i) {
    index.emplace_back(plan.nodes[i].inst, i);
  }
  std::sort(index.begin(), index.end());
  for (unsigned i = 0; i < plan.nodes.size(); ++i) {
    BlockPlan::Node& node = plan.nodes[i];
    node.predBegin = static_cast<unsigned>(plan.operandPreds.size());
    for (const ir::Value* operand : node.inst->operands()) {
      const auto* def = ir::dynCast<ir::Instruction>(operand);
      if (def == nullptr || def->parent() != &block) continue;
      auto it = std::lower_bound(index.begin(), index.end(),
                                 std::make_pair(def, 0u));
      // Only earlier nodes: a def not yet scheduled in the current instance
      // has no finish time to wait for.
      if (it != index.end() && it->first == def && it->second < i) {
        plan.operandPreds.push_back(it->second);
      }
    }
    node.predEnd = static_cast<unsigned>(plan.operandPreds.size());
  }
  return plan;
}

std::span<const AccessIface> Scheduler::signature(
    const BlockPlan& plan, const IfaceAssignment& ifaces) {
  std::vector<AccessIface>& out = t_sched.signature;
  out.clear();
  for (unsigned k : plan.accesses) {
    AccessIface iface = ifaceFor(*plan.nodes[k].inst, ifaces);
    if (iface.promoted) {
      iface = AccessIface{};
      iface.promoted = true;
    }
    iface.footprintBytes = 0;
    out.push_back(iface);
  }
  return out;
}

BlockSchedule Scheduler::scheduleBlock(const ir::BasicBlock& block,
                                       const IfaceAssignment& ifaces,
                                       unsigned unroll,
                                       std::vector<unsigned>* starts) const {
  BlockPlan blockPlan = plan(block);
  return scheduleBlock(blockPlan, signature(blockPlan, ifaces), unroll,
                       starts);
}

BlockSchedule Scheduler::scheduleBlock(const BlockPlan& plan,
                                       std::span<const AccessIface> ifaces,
                                       unsigned unroll,
                                       std::vector<unsigned>* starts) const {
  CAYMAN_ASSERT(unroll >= 1, "unroll factor must be >= 1");
  CAYMAN_ASSERT(ifaces.size() == plan.accesses.size(),
                "one interface per planned access");
  ++blockCalls_;
  support::trace::count("sched.block_calls", 1);
  BlockSchedule result;
  result.numOps = static_cast<unsigned>(plan.nodes.size());
  result.opAreaUm2 = plan.opAreaUm2 * unroll;
  result.regAreaUm2 = plan.regAreaUm2 * unroll;

  SchedScratch& scratch = t_sched;
  std::vector<SchedNode>& nodes = scratch.nodes;
  std::vector<unsigned>& memPreds = scratch.memPreds;
  std::vector<BankGroup>& banks = scratch.banks;
  nodes.assign(plan.nodes.size(), SchedNode{});
  memPreds.clear();
  banks.clear();

  for (unsigned i = 0; i < plan.nodes.size(); ++i) {
    const BlockPlan::Node& planned = plan.nodes[i];
    SchedNode& node = nodes[i];
    node.latency = planned.latency;
    if (planned.access == BlockPlan::kNotAccess) continue;
    const AccessIface& iface = ifaces[planned.access];
    const bool store = planned.inst->opcode() == ir::Opcode::Store;
    node.latency = latencyUnder(*planned.inst, iface);
    node.ordered = !iface.promoted;
    node.kind = iface.kind;
    node.partitions = iface.partitions;
    node.occupancy = store ? timing_.coupledStoreOccupancy
                           : timing_.coupledLoadOccupancy;
    node.memBegin = static_cast<unsigned>(memPreds.size());
    if (node.ordered) {
      // Memory ordering within one instance: accesses that may conflict
      // keep program order (same array with a store involved, or any
      // unknown address). `ifaces.array` is the statically resolved base
      // where known.
      for (unsigned a = 0; a < planned.access; ++a) {
        const unsigned j = plan.accesses[a];
        if (!nodes[j].ordered) continue;
        if (!store && plan.nodes[j].inst->opcode() != ir::Opcode::Store) {
          continue;
        }
        const ir::GlobalArray* arrA = ifaces[a].array;
        const ir::GlobalArray* arrB = iface.array;
        if (arrA == nullptr || arrB == nullptr || arrA == arrB) {
          memPreds.push_back(j);
        }
      }
      if (iface.kind == IfaceKind::Scratchpad) {
        const void* key = bankKey(iface, *planned.inst);
        auto group = std::find_if(
            banks.begin(), banks.end(),
            [&](const BankGroup& g) { return g.key == key; });
        if (group == banks.end()) {
          group = banks.insert(banks.end(), BankGroup{key});
        }
        group->capacity =
            std::max(group->capacity, std::max(iface.partitions, 1u));
        node.bank = static_cast<unsigned>(group - banks.begin());
      }
    }
    node.memEnd = static_cast<unsigned>(memPreds.size());
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
    for (unsigned i = 0; i < nodes.size(); ++i) {
      const BlockPlan::Node& planned = plan.nodes[i];
      SchedNode& node = nodes[i];
      unsigned startCycle = 0;
      for (unsigned p = planned.predBegin; p < planned.predEnd; ++p) {
        startCycle = std::max(startCycle, nodes[plan.operandPreds[p]].finish);
      }
      for (unsigned p = node.memBegin; p < node.memEnd; ++p) {
        startCycle = std::max(startCycle, nodes[memPreds[p]].finish);
      }
      if (node.ordered) {
        switch (node.kind) {
          case IfaceKind::Coupled:
            startCycle = std::max(startCycle, coupledPortFree);
            coupledPortFree = startCycle + node.occupancy;
            break;
          case IfaceKind::Scratchpad: {
            BankGroup& group = banks[node.bank];
            unsigned parts = node.partitions;
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
  BlockPlan blockPlan = plan(block);
  return resMII(blockPlan, signature(blockPlan, ifaces), unroll);
}

unsigned Scheduler::resMII(const BlockPlan& plan,
                           std::span<const AccessIface> ifaces,
                           unsigned unroll) const {
  unsigned coupledDemand = 0;
  // Scratchpad demand per resource key; blocks have few keys, so a scan.
  thread_local std::vector<BankDemand> bankDemand;
  bankDemand.clear();
  for (unsigned a = 0; a < plan.accesses.size(); ++a) {
    const AccessIface& iface = ifaces[a];
    if (iface.promoted) continue;  // register-held: no port demand
    const ir::Instruction& inst = *plan.nodes[plan.accesses[a]].inst;
    switch (iface.kind) {
      case IfaceKind::Coupled:
        coupledDemand += (inst.opcode() == ir::Opcode::Load
                              ? timing_.coupledLoadOccupancy
                              : timing_.coupledStoreOccupancy) *
                         unroll;
        break;
      case IfaceKind::Scratchpad: {
        const void* key = bankKey(iface, inst);
        auto demand = std::find_if(
            bankDemand.begin(), bankDemand.end(),
            [&](const BankDemand& d) { return d.key == key; });
        if (demand == bankDemand.end()) {
          demand = bankDemand.insert(bankDemand.end(), BankDemand{key});
        }
        demand->count += unroll;
        demand->parts = std::max(demand->parts, std::max(1u, iface.partitions));
        break;
      }
      case IfaceKind::Decoupled:
        break;
    }
  }
  unsigned ii = std::max(1u, coupledDemand);
  for (const BankDemand& demand : bankDemand) {
    ii = std::max(ii, (demand.count + demand.parts - 1) / demand.parts);
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
