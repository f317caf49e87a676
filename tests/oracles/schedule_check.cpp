#include "oracles/schedule_check.h"

#include <algorithm>
#include <map>
#include <unordered_map>

namespace cayman::oracles {

namespace {

hls::AccessIface ifaceOf(const ir::Instruction& inst,
                         const hls::IfaceAssignment& ifaces) {
  if (!inst.isMemoryAccess()) return {};
  auto it = ifaces.find(&inst);
  return it == ifaces.end() ? hls::AccessIface{} : it->second;
}

/// Cycles one coupled access holds the shared port.
unsigned portCycles(const ir::Instruction& inst,
                    const hls::InterfaceTiming& timing) {
  return inst.opcode() == ir::Opcode::Load ? timing.coupledLoadOccupancy
                                           : timing.coupledStoreOccupancy;
}

/// Whose banks a scratchpad access uses: its array's, else its own.
const void* bankOwner(const ir::Instruction& inst,
                      const hls::AccessIface& iface) {
  if (iface.array != nullptr) return iface.array;
  return &inst;
}

/// One scheduled op of the block under check.
struct Op {
  const ir::Instruction* inst = nullptr;
  hls::AccessIface iface;
  unsigned latency = 0;
  /// A memory access that is not register-promoted: it uses its
  /// interface's port or banks and keeps memory order.
  bool inMemory = false;
};

std::string opName(unsigned k, const Op& op) {
  return "op " + std::to_string(k) + " (" +
         ir::opcodeSpelling(op.inst->opcode()) + ")";
}

std::string at(unsigned instance, unsigned k, const Op& op) {
  return "instance " + std::to_string(instance) + " " + opName(k, op);
}

/// The scratchpad arrays of a block: bank count (the largest partition
/// count any access asks for) per owner, in first-access order.
struct BankUse {
  const void* owner = nullptr;
  unsigned banks = 1;
  unsigned accesses = 0;  ///< per instance
};

std::vector<BankUse> bankUses(const std::vector<Op>& ops) {
  std::vector<BankUse> uses;
  for (const Op& op : ops) {
    if (!op.inMemory || op.iface.kind != hls::IfaceKind::Scratchpad) continue;
    const void* owner = bankOwner(*op.inst, op.iface);
    auto it = std::find_if(uses.begin(), uses.end(), [&](const BankUse& u) {
      return u.owner == owner;
    });
    if (it == uses.end()) it = uses.insert(uses.end(), BankUse{owner});
    it->banks = std::max({it->banks, op.iface.partitions, 1u});
    ++it->accesses;
  }
  return uses;
}

}  // namespace

unsigned ScheduleChecker::latency(const ir::Instruction& inst,
                                  const hls::AccessIface& iface) const {
  switch (inst.opcode()) {
    case ir::Opcode::Load:
      return iface.promoted ? 0 : timing_.loadLatency(iface.kind);
    case ir::Opcode::Store:
      return iface.promoted ? 0 : timing_.storeLatency(iface.kind);
    default:
      return tech_.latencyCycles(inst.opcode(), inst.type(), clockNs_);
  }
}

std::vector<ScheduleViolation> ScheduleChecker::checkBlock(
    const ir::BasicBlock& block, const hls::IfaceAssignment& ifaces,
    unsigned unroll, const hls::BlockSchedule& sched,
    std::span<const unsigned> starts) const {
  std::vector<ScheduleViolation> out;
  auto report = [&out](const char* rule, std::string detail) {
    out.push_back(ScheduleViolation{rule, std::move(detail)});
  };

  // Phis are register selects and the terminator is the FSM transition:
  // neither is scheduled.
  std::vector<Op> ops;
  std::unordered_map<const ir::Instruction*, unsigned> position;
  for (const auto& inst : block.instructions()) {
    if (inst->opcode() == ir::Opcode::Phi || inst->isTerminator()) continue;
    Op op;
    op.inst = inst.get();
    op.iface = ifaceOf(*inst, ifaces);
    op.latency = latency(*inst, op.iface);
    op.inMemory = inst->isMemoryAccess() && !op.iface.promoted;
    position.emplace(inst.get(), static_cast<unsigned>(ops.size()));
    ops.push_back(op);
  }
  const unsigned n = static_cast<unsigned>(ops.size());
  if (sched.numOps != n || starts.size() != static_cast<size_t>(unroll) * n) {
    report(rules::kShape,
           "numOps " + std::to_string(sched.numOps) + " and " +
               std::to_string(starts.size()) + " starts for " +
               std::to_string(n) + " ops x " + std::to_string(unroll) +
               " instances");
    return out;
  }
  auto start = [&](unsigned instance, unsigned k) {
    return starts[static_cast<size_t>(instance) * n + k];
  };
  auto finish = [&](unsigned instance, unsigned k) {
    return start(instance, k) + ops[k].latency;
  };
  // In-block operand definitions of op k that are themselves scheduled.
  auto eachDef = [&](unsigned k, auto&& visit) {
    for (const ir::Value* operand : ops[k].inst->operands()) {
      const auto* def = ir::dynCast<ir::Instruction>(operand);
      auto it = def == nullptr ? position.end() : position.find(def);
      if (it != position.end()) visit(it->second);
    }
  };

  for (unsigned i = 0; i < unroll; ++i) {
    for (unsigned k = 0; k < n; ++k) {
      eachDef(k, [&](unsigned d) {
        if (start(i, k) < finish(i, d)) {
          report(rules::kOperand,
                 at(i, k, ops[k]) + " starts at " +
                     std::to_string(start(i, k)) + " before its operand " +
                     opName(d, ops[d]) + " finishes at " +
                     std::to_string(finish(i, d)));
        }
      });
    }
  }

  // A store and another access to the same array, or to an unknown one,
  // may alias: within an instance the later one in program order starts
  // once the earlier one finishes.
  for (unsigned i = 0; i < unroll; ++i) {
    for (unsigned b = 0; b < n; ++b) {
      if (!ops[b].inMemory) continue;
      for (unsigned a = 0; a < b; ++a) {
        if (!ops[a].inMemory) continue;
        if (ops[a].inst->opcode() != ir::Opcode::Store &&
            ops[b].inst->opcode() != ir::Opcode::Store) {
          continue;
        }
        const ir::GlobalArray* arrayA = ops[a].iface.array;
        const ir::GlobalArray* arrayB = ops[b].iface.array;
        if (arrayA != nullptr && arrayB != nullptr && arrayA != arrayB) {
          continue;
        }
        if (start(i, b) < finish(i, a)) {
          report(rules::kMemoryOrder,
                 at(i, b, ops[b]) + " starts at " +
                     std::to_string(start(i, b)) + " before " +
                     opName(a, ops[a]) + " finishes at " +
                     std::to_string(finish(i, a)));
        }
      }
    }
  }

  // The coupled port: one shared unit over every instance, busy for each
  // access's occupancy from its start.
  struct Hold {
    unsigned from = 0;
    unsigned to = 0;
    unsigned instance = 0;
    unsigned k = 0;
  };
  std::vector<Hold> holds;
  for (unsigned i = 0; i < unroll; ++i) {
    for (unsigned k = 0; k < n; ++k) {
      if (!ops[k].inMemory || ops[k].iface.kind != hls::IfaceKind::Coupled) {
        continue;
      }
      unsigned busy = portCycles(*ops[k].inst, timing_);
      if (busy > 0) {
        holds.push_back(Hold{start(i, k), start(i, k) + busy, i, k});
      }
    }
  }
  std::stable_sort(
      holds.begin(), holds.end(),
      [](const Hold& x, const Hold& y) { return x.from < y.from; });
  for (size_t h = 1, latest = 0; h < holds.size(); ++h) {
    if (holds[h].from < holds[latest].to) {
      const Hold& prev = holds[latest];
      report(rules::kCoupledPort,
             at(holds[h].instance, holds[h].k, ops[holds[h].k]) +
                 " takes the port at " + std::to_string(holds[h].from) +
                 " while " + at(prev.instance, prev.k, ops[prev.k]) +
                 " holds it until " + std::to_string(prev.to));
    }
    if (holds[h].to > holds[latest].to) latest = h;
  }

  // Scratchpad banks: each serves one access per cycle, over every instance.
  for (const BankUse& use : bankUses(ops)) {
    std::map<unsigned, unsigned> perCycle;
    for (unsigned i = 0; i < unroll; ++i) {
      for (unsigned k = 0; k < n; ++k) {
        if (ops[k].inMemory &&
            ops[k].iface.kind == hls::IfaceKind::Scratchpad &&
            bankOwner(*ops[k].inst, ops[k].iface) == use.owner) {
          ++perCycle[start(i, k)];
        }
      }
    }
    for (const auto& [cycle, count] : perCycle) {
      if (count > use.banks) {
        report(rules::kBank,
               std::to_string(count) + " accesses in cycle " +
                   std::to_string(cycle) + " to a scratchpad of " +
                   std::to_string(use.banks) + " banks");
      }
    }
  }

  unsigned lastFinish = 0;
  for (unsigned i = 0; i < unroll; ++i) {
    for (unsigned k = 0; k < n; ++k) {
      lastFinish = std::max(lastFinish, finish(i, k));
    }
  }
  if (sched.latency != std::max(1u, lastFinish)) {
    report(rules::kLatency, "latency " + std::to_string(sched.latency) +
                                " but the last op finishes at " +
                                std::to_string(lastFinish));
  }

  // Longest operand chain, with no port, bank or memory-order waits.
  std::vector<unsigned> ready(n, 0);
  unsigned path = 0;
  for (unsigned k = 0; k < n; ++k) {
    eachDef(k, [&](unsigned d) {
      if (d < k) ready[k] = std::max(ready[k], ready[d] + ops[d].latency);
    });
    path = std::max(path, ready[k] + ops[k].latency);
  }
  if (sched.latency < path) {
    report(rules::kCriticalPath,
           "latency " + std::to_string(sched.latency) +
               " is below the dependence-only critical path " +
               std::to_string(path));
  }
  return out;
}

unsigned ScheduleChecker::resMII(const ir::BasicBlock& block,
                                 const hls::IfaceAssignment& ifaces,
                                 unsigned unroll) const {
  // One iteration issues `unroll` instances of every access.
  unsigned portBusy = 0;
  std::vector<Op> scratchpad;
  for (const auto& inst : block.instructions()) {
    if (!inst->isMemoryAccess()) continue;
    hls::AccessIface iface = ifaceOf(*inst, ifaces);
    if (iface.promoted) continue;
    if (iface.kind == hls::IfaceKind::Coupled) {
      portBusy += portCycles(*inst, timing_) * unroll;
    } else if (iface.kind == hls::IfaceKind::Scratchpad) {
      scratchpad.push_back(Op{inst.get(), iface, 0, true});
    }
  }
  std::vector<BankUse> uses = bankUses(scratchpad);
  // The smallest II whose II cycles hold every port-busy cycle and give
  // each array a bank slot per access.
  auto fits = [&](unsigned ii) {
    if (portBusy > ii) return false;
    return std::all_of(uses.begin(), uses.end(), [&](const BankUse& use) {
      return use.accesses * unroll <= ii * use.banks;
    });
  };
  unsigned ii = 1;
  while (!fits(ii)) ++ii;
  return ii;
}

unsigned ScheduleChecker::recMII(
    std::span<const analysis::LoopCarriedDep> deps,
    const hls::IfaceAssignment& ifaces) const {
  // Iteration j + distance needs the chain's result from iteration j, so
  // distance initiation intervals must cover the chain's latency.
  unsigned ii = 1;
  for (const analysis::LoopCarriedDep& dep : deps) {
    unsigned chain = 0;
    for (const ir::Instruction* inst : dep.chain) {
      chain += latency(*inst, ifaceOf(*inst, ifaces));
    }
    const unsigned distance = std::max(1u, dep.distance);
    while (ii * distance < chain) ++ii;
  }
  return ii;
}

std::vector<ScheduleViolation> ScheduleChecker::checkResMII(
    const ir::BasicBlock& block, const hls::IfaceAssignment& ifaces,
    unsigned unroll, unsigned claimed) const {
  const unsigned own = resMII(block, ifaces, unroll);
  if (claimed == own) return {};
  return {ScheduleViolation{rules::kResMII,
                            "resMII " + std::to_string(claimed) +
                                ", recomputed " + std::to_string(own)}};
}

std::vector<ScheduleViolation> ScheduleChecker::checkRecMII(
    std::span<const analysis::LoopCarriedDep> deps,
    const hls::IfaceAssignment& ifaces, unsigned claimed) const {
  const unsigned own = recMII(deps, ifaces);
  if (claimed == own) return {};
  return {ScheduleViolation{rules::kRecMII,
                            "recMII " + std::to_string(claimed) +
                                ", recomputed " + std::to_string(own)}};
}

}  // namespace cayman::oracles
