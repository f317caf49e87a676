// The block-schedule legality oracle (tests/oracles/schedule_check.h) on
// every schedule candidate generation can ask for, and on hand-corrupted
// schedules that each break one rule.
//
// Coverage: all 28 workloads, on the Cayman model and on the QsCores
// model (scan-chain interface timing); every block of every candidate
// region, under the interface assignment of every ladder point (sequential,
// then optimized at each unroll factor), scheduled at every width of the
// unroll ladder; resMII of every such (block, width) and recMII of every
// loop of the region under each assignment.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "cayman/framework.h"
#include "oracles/schedule_check.h"
#include "test_kernels.h"
#include "workloads/workloads.h"

namespace cayman {
namespace {

using hls::IfaceKind;
using oracles::ScheduleChecker;
using oracles::ScheduleViolation;
using testing::asInst;
using testing::HandBlock;

constexpr double kClock = 2.0;

/// The rule names of `violations`, in report order, one per violation.
std::vector<std::string> ruleNames(
    const std::vector<ScheduleViolation>& violations) {
  std::vector<std::string> names;
  for (const ScheduleViolation& v : violations) names.push_back(v.rule);
  return names;
}

struct Sweep {
  uint64_t schedules = 0;  ///< checkBlock calls
  uint64_t ops = 0;        ///< scheduled ops over every instance
  uint64_t miis = 0;       ///< resMII and recMII comparisons
  /// "<workload> <model> region <label> point <p> ...: <rule>: <detail>"
  std::vector<std::string> violations;
};

void sweepModel(const accel::AcceleratorModel& model,
                const std::string& context, Sweep& sweep) {
  const double clockNs = model.params().clockNs;
  hls::Scheduler scheduler(model.tech(), model.timing(), clockNs);
  ScheduleChecker checker(model.tech(), model.timing(), clockNs);
  auto record = [&](const std::vector<ScheduleViolation>& found,
                    const std::string& where) {
    for (const ScheduleViolation& v : found) {
      sweep.violations.push_back(context + " " + where + ": " + v.rule +
                                 ": " + v.detail);
    }
  };

  std::vector<unsigned> starts;
  for (const analysis::Region* region : model.wpst().allRegions()) {
    if (!region->isCandidate()) continue;
    const analysis::FunctionAnalyses& fa =
        model.analysesFor(region->function());
    std::vector<accel::AcceleratorConfig> points{
        model.ladderConfig(region, 1, /*optimize=*/false)};
    for (unsigned unroll : accel::kUnrollFactors) {
      points.push_back(model.ladderConfig(region, unroll, /*optimize=*/true));
    }
    for (size_t p = 0; p < points.size(); ++p) {
      const hls::IfaceAssignment& ifaces = points[p].ifaces;
      const std::string at =
          "region " + region->label() + " point " + std::to_string(p);
      for (const ir::BasicBlock* block : region->blocks()) {
        for (unsigned width : accel::kUnrollFactors) {
          const std::string where = at + " block " + block->name() +
                                    " width " + std::to_string(width);
          hls::BlockSchedule sched =
              scheduler.scheduleBlock(*block, ifaces, width, &starts);
          record(checker.checkBlock(*block, ifaces, width, sched, starts),
                 where);
          record(checker.checkResMII(*block, ifaces, width,
                                     scheduler.resMII(*block, ifaces, width)),
                 where);
          ++sweep.schedules;
          sweep.ops += starts.size();
          ++sweep.miis;
        }
      }
      region->walk([&](const analysis::Region& r) {
        if (r.kind() != analysis::RegionKind::Loop) return;
        const auto& deps = fa.mem.carriedDeps(r.loop());
        record(checker.checkRecMII(deps, ifaces,
                                   scheduler.recMII(deps, ifaces)),
               at + " loop " + r.label());
        ++sweep.miis;
      });
    }
  }
}

// Every schedule the model can ask for is legal. Should the scheduler ever
// produce an illegal one, list it here rather than relaxing a rule, so that
// both a fix and a new violation change the result.
TEST(ScheduleCheckTest, EveryWorkloadScheduleIsLegal) {
  Sweep sweep;
  for (const workloads::WorkloadInfo& info : workloads::all()) {
    Framework fw(info.build());
    sweepModel(fw.model(), info.name + " cayman", sweep);
    sweepModel(fw.qscores().model(), info.name + " qscores", sweep);
  }
  const std::vector<std::string> expected = {};
  EXPECT_EQ(sweep.violations, expected);
  EXPECT_GT(sweep.schedules, 0u);
  std::printf("checked %llu schedules (%llu op starts), %llu MII bounds\n",
              static_cast<unsigned long long>(sweep.schedules),
              static_cast<unsigned long long>(sweep.ops),
              static_cast<unsigned long long>(sweep.miis));
}

// --- The checker on hand-corrupted schedules --------------------------------
//
// Each case takes the scheduler's legal schedule of a small block (default
// InterfaceTiming at 2 ns: coupled load latency 3, port busy 3; fadd 3;
// coupled store latency 1, port busy 1; decoupled and scratchpad latency
// 1), checks that it passes, then breaks exactly one rule.

struct Checked {
  hls::TechLibrary tech = hls::TechLibrary::nangate45();
  hls::InterfaceTiming timing;
  hls::Scheduler scheduler{tech, timing, kClock};
  ScheduleChecker checker{tech, timing, kClock};
  hls::BlockSchedule sched;
  std::vector<unsigned> starts;

  void schedule(const HandBlock& h, const hls::IfaceAssignment& ifaces,
                unsigned unroll = 1) {
    sched = scheduler.scheduleBlock(*h.body, ifaces, unroll, &starts);
  }
  std::vector<std::string> rulesBroken(const HandBlock& h,
                                       const hls::IfaceAssignment& ifaces,
                                       unsigned unroll = 1) const {
    return ruleNames(checker.checkBlock(*h.body, ifaces, unroll, sched,
                                        starts));
  }
};

using Rules = std::vector<std::string>;

TEST(ScheduleCheckTest, OpBeforeItsOperandFinishes) {
  // ld x 0..3 -> fadd 3..6 -> st y 6..7; the fadd moved to 2.
  HandBlock h;
  ir::Value* v = h.b.load(ir::Type::f64(), h.x);
  ir::Value* s = h.b.fadd(v, h.b.f64(1.0));
  ir::Instruction* st = h.b.store(s, h.y);
  h.b.ret();
  hls::IfaceAssignment ifaces;
  ifaces[asInst(v)] = HandBlock::iface(IfaceKind::Coupled, h.x);
  ifaces[st] = HandBlock::iface(IfaceKind::Coupled, h.y);
  Checked c;
  c.schedule(h, ifaces);
  ASSERT_EQ(c.starts, (std::vector<unsigned>{0, 3, 6}));
  EXPECT_EQ(c.rulesBroken(h, ifaces), Rules{});
  c.starts[1] = 2;
  EXPECT_EQ(c.rulesBroken(h, ifaces), Rules{oracles::rules::kOperand});

  // Four instances on the one port are legal as scheduled; instance 2's
  // fadd ahead of its own load is not, though instance 1's load finished.
  c.schedule(h, ifaces, 4);
  EXPECT_EQ(c.rulesBroken(h, ifaces, 4), Rules{});
  c.starts[2 * 3 + 1] = c.starts[2 * 3] + 1;
  EXPECT_EQ(c.rulesBroken(h, ifaces, 4), Rules{oracles::rules::kOperand});
}

TEST(ScheduleCheckTest, CoupledAccessesOverlappingOnThePort) {
  // ld x 0..3 (port 0..3), ld y 3..6 (port 3..6); ld y moved to 2.
  HandBlock h;
  ir::Value* a = h.b.load(ir::Type::f64(), h.x);
  ir::Value* c2 = h.b.load(ir::Type::f64(), h.y);
  h.b.ret();
  hls::IfaceAssignment ifaces;
  ifaces[asInst(a)] = HandBlock::iface(IfaceKind::Coupled, h.x);
  ifaces[asInst(c2)] = HandBlock::iface(IfaceKind::Coupled, h.y);
  Checked c;
  c.schedule(h, ifaces);
  ASSERT_EQ(c.starts, (std::vector<unsigned>{0, 3}));
  EXPECT_EQ(c.sched.latency, 6u);
  EXPECT_EQ(c.rulesBroken(h, ifaces), Rules{});
  c.starts[1] = 2;
  c.sched.latency = 5;
  EXPECT_EQ(c.rulesBroken(h, ifaces), Rules{oracles::rules::kCoupledPort});

  // Across instances: instance 1's first load in instance 0's last slot.
  c.schedule(h, ifaces, 2);
  ASSERT_EQ(c.starts, (std::vector<unsigned>{0, 3, 6, 9}));
  c.starts[2] = 4;
  c.sched.latency = 12;
  EXPECT_EQ(c.rulesBroken(h, ifaces, 2), Rules{oracles::rules::kCoupledPort});
}

TEST(ScheduleCheckTest, OversubscribedScratchpadBank) {
  // Two scratchpad loads of x: one bank serves them at 0 and 1; both at 0
  // need two banks. With two banks the same starts are legal.
  HandBlock h;
  ir::Value* a = h.b.load(ir::Type::f64(), h.x);
  ir::Value* c2 = h.b.load(ir::Type::f64(), h.x);
  h.b.ret();
  hls::IfaceAssignment ifaces;
  ifaces[asInst(a)] = HandBlock::iface(IfaceKind::Scratchpad, h.x, 1);
  ifaces[asInst(c2)] = HandBlock::iface(IfaceKind::Scratchpad, h.x, 1);
  Checked c;
  c.schedule(h, ifaces);
  ASSERT_EQ(c.starts, (std::vector<unsigned>{0, 1}));
  EXPECT_EQ(c.rulesBroken(h, ifaces), Rules{});
  c.starts[1] = 0;
  c.sched.latency = 1;
  EXPECT_EQ(c.rulesBroken(h, ifaces), Rules{oracles::rules::kBank});
  for (auto& [inst, iface] : ifaces) iface.partitions = 2;
  EXPECT_EQ(c.rulesBroken(h, ifaces), Rules{});
}

TEST(ScheduleCheckTest, ReorderedMayAliasStoreAndLoad) {
  // st to an unknown base, then ld y (decoupled): st 0..1, ld 1..2. The
  // load hoisted above the store may read a stale value.
  HandBlock h;
  ir::Instruction* st = h.b.store(h.b.f64(2.0), h.x);
  ir::Value* v = h.b.load(ir::Type::f64(), h.y);
  h.b.ret();
  hls::IfaceAssignment ifaces;
  ifaces[st] = HandBlock::iface(IfaceKind::Decoupled, nullptr);
  ifaces[asInst(v)] = HandBlock::iface(IfaceKind::Decoupled, h.y);
  Checked c;
  c.schedule(h, ifaces);
  ASSERT_EQ(c.starts, (std::vector<unsigned>{0, 1}));
  EXPECT_EQ(c.rulesBroken(h, ifaces), Rules{});
  c.starts = {1, 0};
  EXPECT_EQ(c.rulesBroken(h, ifaces), Rules{oracles::rules::kMemoryOrder});
  // With both bases known and distinct, the pair may run in any order.
  ifaces[st].array = h.x;
  EXPECT_EQ(c.rulesBroken(h, ifaces), Rules{});
  // Promoted, the store keeps no memory order.
  ifaces[st].array = nullptr;
  ifaces[st].promoted = true;
  c.starts = {1, 0};
  c.sched.latency = 1;
  EXPECT_EQ(c.rulesBroken(h, ifaces), Rules{});
}

TEST(ScheduleCheckTest, LatencyThatIsNotTheLastFinish) {
  HandBlock h;
  ir::Value* v = h.b.load(ir::Type::f64(), h.x);
  h.b.fadd(v, h.b.f64(1.0));
  h.b.ret();
  hls::IfaceAssignment ifaces;
  ifaces[asInst(v)] = HandBlock::iface(IfaceKind::Coupled, h.x);
  Checked c;
  c.schedule(h, ifaces);
  ASSERT_EQ(c.sched.latency, 6u);
  EXPECT_EQ(c.rulesBroken(h, ifaces), Rules{});
  c.sched.latency = 7;
  EXPECT_EQ(c.rulesBroken(h, ifaces), Rules{oracles::rules::kLatency});
  // Below the ld -> fadd chain as well: two rules.
  c.sched.latency = 5;
  EXPECT_EQ(c.rulesBroken(h, ifaces),
            (Rules{oracles::rules::kLatency, oracles::rules::kCriticalPath}));
  // The start vector must cover every op of every instance.
  c.schedule(h, ifaces);
  c.starts.pop_back();
  EXPECT_EQ(c.rulesBroken(h, ifaces), Rules{oracles::rules::kShape});
}

TEST(ScheduleCheckTest, EmptyBlockTakesOneCycle) {
  HandBlock h;
  h.b.ret();
  Checked c;
  c.schedule(h, {}, 4);
  EXPECT_TRUE(c.starts.empty());
  EXPECT_EQ(c.rulesBroken(h, {}, 4), Rules{});
  c.sched.latency = 0;
  EXPECT_EQ(c.rulesBroken(h, {}, 4), Rules{oracles::rules::kLatency});
}

TEST(ScheduleCheckTest, MIIBoundsDifferingFromTheRecomputation) {
  auto module = testing::dotRowsKernel();
  const ir::Function* f = module->entryFunction();
  analysis::FunctionAnalyses fa(*f);
  analysis::ScalarEvolution scev(*f, fa);
  analysis::MemoryAnalysis mem(*f, fa, scev);
  const analysis::Loop* inner = fa.loops.topLevelLoops()[0]->subLoops()[0];
  const ir::BasicBlock* body = f->blockByName("j.body");
  ASSERT_NE(body, nullptr);
  hls::IfaceAssignment ifaces;
  for (const auto& inst : body->instructions()) {
    if (inst->isMemoryAccess()) ifaces[inst.get()] = hls::AccessIface{};
  }

  Checked c;
  const auto& deps = mem.carriedDeps(inner);
  // The z[i] recurrence at distance 1. memdep's chain lists the store
  // twice (ld, fadd, st, st), so the bound is 3 + 3 + 1 + 1 = 8 where the
  // cycle ld -> fadd -> st takes 7. Three coupled loads (3 port cycles
  // each) and a store (1) per iteration.
  ASSERT_EQ(deps.size(), 1u);
  ASSERT_EQ(deps[0].chain.size(), 4u);
  EXPECT_EQ(deps[0].chain[2], deps[0].chain[3]);
  EXPECT_EQ(c.checker.recMII(deps, ifaces), 8u);
  EXPECT_EQ(c.checker.resMII(*body, ifaces, 1), 10u);
  EXPECT_EQ(c.checker.resMII(*body, ifaces, 2), 20u);
  EXPECT_EQ(ruleNames(c.checker.checkRecMII(
                deps, ifaces, c.scheduler.recMII(deps, ifaces))),
            Rules{});
  EXPECT_EQ(ruleNames(c.checker.checkRecMII(deps, ifaces, 1)),
            Rules{oracles::rules::kRecMII});
  EXPECT_EQ(ruleNames(c.checker.checkResMII(
                *body, ifaces, 2, c.scheduler.resMII(*body, ifaces, 2))),
            Rules{});
  EXPECT_EQ(ruleNames(c.checker.checkResMII(*body, ifaces, 2, 10)),
            Rules{oracles::rules::kResMII});
}

}  // namespace
}  // namespace cayman
