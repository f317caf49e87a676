// HLS scheduling: list scheduling of basic-block datapaths with
// interface-aware memory-port resources, plus pipelining MII bounds.
#pragma once

#include <span>
#include <vector>

#include "analysis/memdep.h"
#include "hls/interface.h"
#include "hls/tech_library.h"

namespace cayman::hls {

/// Scheduling result for one basic block (one FSM state sequence).
struct BlockSchedule {
  /// Cycles for one execution of the block (>= 1 for non-empty blocks).
  unsigned latency = 0;
  /// Datapath operator area, including unroll replication.
  double opAreaUm2 = 0.0;
  /// Pipeline registers along the schedule (approximated per scheduled op).
  double regAreaUm2 = 0.0;
  /// Number of scheduled operations (one unroll instance).
  unsigned numOps = 0;
};

/// What scheduling a block needs that no interface assignment changes,
/// built once per block by Scheduler::plan() and read by every
/// scheduleBlock() on it.
struct BlockPlan {
  static constexpr unsigned kNotAccess = ~0u;
  /// One schedulable operation: everything but phis (register selects,
  /// free) and the terminator (FSM transition).
  struct Node {
    const ir::Instruction* inst = nullptr;
    /// Latency of a non-access (an access's depends on its interface).
    unsigned latency = 0;
    /// Position in `accesses` of a memory access, else kNotAccess.
    unsigned access = kNotAccess;
    /// Earlier nodes defining an operand of this one, as a slice of
    /// `operandPreds`.
    unsigned predBegin = 0;
    unsigned predEnd = 0;
  };
  std::vector<Node> nodes;
  std::vector<unsigned> operandPreds;
  /// Node index of each memory access, in program order: the order of the
  /// per-access interfaces scheduleBlock() takes with a plan.
  std::vector<unsigned> accesses;
  /// Operator and register area of one instance, summed in node order.
  double opAreaUm2 = 0.0;
  double regAreaUm2 = 0.0;
};

/// Thread-compatible: scheduleBlock() counts its calls in a plain member, so
/// one thread uses a Scheduler at a time.
class Scheduler {
 public:
  Scheduler(const TechLibrary& tech, InterfaceTiming timing, double clockNs)
      : tech_(tech), timing_(timing), clockNs_(clockNs) {}

  const TechLibrary& tech() const { return tech_; }
  const InterfaceTiming& timing() const { return timing_; }
  double clockNs() const { return clockNs_; }

  /// Latency of one operation under its interface assignment.
  unsigned opLatency(const ir::Instruction& inst,
                     const IfaceAssignment& ifaces) const;

  /// The block's interface-independent scheduling facts.
  BlockPlan plan(const ir::BasicBlock& block) const;

  /// The plan's per-access interfaces under `ifaces` (an unassigned access
  /// gets the default), reduced to the fields a schedule and resMII() read:
  /// a promoted access is register-held (latency 0, no port, exempt from
  /// memory ordering) whatever its other fields say, and footprintBytes
  /// only prices scratchpad area. Equal signatures therefore give equal
  /// schedules. In a per-thread buffer that the next call reuses.
  static std::span<const AccessIface> signature(const BlockPlan& plan,
                                                const IfaceAssignment& ifaces);

  /// Schedules one basic block with `unroll` parallel instances (used to
  /// model unrolled loop bodies: compute replicates, memory ports contend).
  /// When `starts` is given (tests only), it receives the start cycle of
  /// every scheduled op in every instance, at [instance * numOps + k] for
  /// the block's k-th scheduled op (phis and the terminator are not).
  BlockSchedule scheduleBlock(const ir::BasicBlock& block,
                              const IfaceAssignment& ifaces,
                              unsigned unroll = 1,
                              std::vector<unsigned>* starts = nullptr) const;
  /// The same schedule from the block's plan, with `ifaces[i]` the
  /// interface of the plan's i-th access (a signature() does).
  BlockSchedule scheduleBlock(const BlockPlan& plan,
                              std::span<const AccessIface> ifaces,
                              unsigned unroll = 1,
                              std::vector<unsigned>* starts = nullptr) const;

  /// Resource-constrained minimum II for a pipelined body block.
  unsigned resMII(const ir::BasicBlock& block, const IfaceAssignment& ifaces,
                  unsigned unroll = 1) const;
  /// The same bound from the block's plan and per-access interfaces, as
  /// scheduleBlock() takes them.
  unsigned resMII(const BlockPlan& plan, std::span<const AccessIface> ifaces,
                  unsigned unroll = 1) const;

  /// Recurrence-constrained minimum II from loop-carried dependences.
  unsigned recMII(std::span<const analysis::LoopCarriedDep> deps,
                  const IfaceAssignment& ifaces) const;

  /// Steady-state cycles of a pipelined loop: depth + (iterations-1) * II.
  static uint64_t pipelinedCycles(uint64_t iterations, unsigned depth,
                                  unsigned ii);

  /// Number of scheduleBlock() invocations on this scheduler (the expensive
  /// list-scheduling core; resMII/recMII scans are not counted).
  uint64_t blockCalls() const { return blockCalls_; }

 private:
  /// opLatency() with the access's interface already looked up (ignored
  /// for non-memory operations).
  unsigned latencyUnder(const ir::Instruction& inst,
                        const AccessIface& iface) const;

  /// Resource key for scratchpad banking (per backing array).
  static const void* bankKey(const AccessIface& iface,
                             const ir::Instruction& inst);

  const TechLibrary& tech_;
  InterfaceTiming timing_;
  double clockNs_;
  mutable uint64_t blockCalls_ = 0;
};

}  // namespace cayman::hls
