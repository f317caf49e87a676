// Schedule checker: the legality oracle for hls::Scheduler. It derives what
// a block schedule must satisfy from the block, its interface assignment,
// the TechLibrary and the InterfaceTiming alone, and checks a BlockSchedule
// and its start cycles against that. It shares no code with the scheduler:
// op latencies, port and bank occupancy, memory ordering and both MII bounds
// are recomputed here, so a scheduler fault cannot hide in a shared helper.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "hls/scheduler.h"

namespace cayman::oracles {

/// One broken rule. `rule` is one of the names below; `detail` names the
/// instance, ops and cycles involved.
struct ScheduleViolation {
  std::string rule;
  std::string detail;
};

namespace rules {
/// numOps or the start vector's size does not match the block.
inline constexpr const char* kShape = "shape";
/// An op starts before an in-block operand of the same instance finishes.
inline constexpr const char* kOperand = "operand";
/// Two coupled accesses hold the shared port in the same cycle.
inline constexpr const char* kCoupledPort = "coupled-port";
/// More accesses to one scratchpad array in a cycle than it has banks.
inline constexpr const char* kBank = "bank";
/// A store and another access that may alias it left program order.
inline constexpr const char* kMemoryOrder = "memory-order";
/// `latency` is not the last finish (at least 1).
inline constexpr const char* kLatency = "latency";
/// `latency` is below the dependence-only critical path.
inline constexpr const char* kCriticalPath = "critical-path";
/// A resMII or recMII differs from the checker's own.
inline constexpr const char* kResMII = "res-mii";
inline constexpr const char* kRecMII = "rec-mii";
}  // namespace rules

class ScheduleChecker {
 public:
  ScheduleChecker(const hls::TechLibrary& tech,
                  const hls::InterfaceTiming& timing, double clockNs)
      : tech_(tech), timing_(timing), clockNs_(clockNs) {}

  /// Checks `sched`, a schedule of `unroll` instances of `block` under
  /// `ifaces`, whose `starts` hold the start cycle of every scheduled op
  /// (all but phis and the terminator) at [instance * numOps + k], k in
  /// block order. Returns every violation found; empty when legal.
  std::vector<ScheduleViolation> checkBlock(
      const ir::BasicBlock& block, const hls::IfaceAssignment& ifaces,
      unsigned unroll, const hls::BlockSchedule& sched,
      std::span<const unsigned> starts) const;

  /// The smallest II at which `unroll` instances of `block`'s accesses fit
  /// the coupled port's busy cycles and each scratchpad array's banks.
  unsigned resMII(const ir::BasicBlock& block,
                  const hls::IfaceAssignment& ifaces, unsigned unroll) const;
  /// The smallest II at which every carried chain of `deps` completes
  /// within its dependence distance.
  unsigned recMII(std::span<const analysis::LoopCarriedDep> deps,
                  const hls::IfaceAssignment& ifaces) const;

  /// A violation when `claimed` differs from resMII() / recMII().
  std::vector<ScheduleViolation> checkResMII(
      const ir::BasicBlock& block, const hls::IfaceAssignment& ifaces,
      unsigned unroll, unsigned claimed) const;
  std::vector<ScheduleViolation> checkRecMII(
      std::span<const analysis::LoopCarriedDep> deps,
      const hls::IfaceAssignment& ifaces, unsigned claimed) const;

 private:
  /// Cycles from an op's start until its result is ready.
  unsigned latency(const ir::Instruction& inst,
                   const hls::AccessIface& iface) const;

  const hls::TechLibrary& tech_;
  hls::InterfaceTiming timing_;
  double clockNs_;
};

}  // namespace cayman::oracles
