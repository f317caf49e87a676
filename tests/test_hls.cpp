// Tests for the HLS substrate: technology library lookups, interface-aware
// block scheduling, and pipelining MII bounds — including the relationships
// the paper's Fig. 4 demonstrates.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "analysis/regions.h"
#include "hls/scheduler.h"
#include "test_kernels.h"

namespace cayman::hls {
namespace {

using testing::asInst;
using testing::HandBlock;

constexpr double kClock = 2.0;  // 500 MHz

const ir::BasicBlock* bodyOf(const ir::Module& m, const char* name) {
  const ir::BasicBlock* block = m.entryFunction()->blockByName(name);
  EXPECT_NE(block, nullptr);
  return block;
}

IfaceAssignment assignAll(const ir::BasicBlock& block, IfaceKind kind,
                          unsigned partitions = 1) {
  IfaceAssignment ifaces;
  for (const auto& inst : block.instructions()) {
    if (!inst->isMemoryAccess()) continue;
    AccessIface iface;
    iface.kind = kind;
    iface.partitions = partitions;
    // Resolve the backing array for scheduling conflicts / banking.
    const ir::Value* ptr = inst->pointerOperand();
    while (const auto* gep = ir::dynCast<ir::Instruction>(ptr)) {
      ptr = gep->operand(0);
    }
    iface.array = ir::dynCast<ir::GlobalArray>(ptr);
    ifaces[inst.get()] = iface;
  }
  return ifaces;
}

/// Every instruction of a kernel: distinct keys for assignment tests.
std::vector<const ir::Instruction*> someInstructions(const ir::Module& m) {
  std::vector<const ir::Instruction*> insts;
  for (const auto& block : m.entryFunction()->blocks()) {
    for (const auto& inst : block->instructions()) insts.push_back(inst.get());
  }
  return insts;
}

AccessIface ifaceWithParts(unsigned partitions) {
  AccessIface iface;
  iface.kind = IfaceKind::Scratchpad;
  iface.partitions = partitions;
  return iface;
}

TEST(IfaceAssignmentTest, InsertsInAnyOrderKeepInstructionOrder) {
  auto m = testing::linearKernel();
  std::vector<const ir::Instruction*> insts = someInstructions(*m);
  ASSERT_GE(insts.size(), 6u);
  // Odd positions backwards, then even positions forwards.
  std::vector<const ir::Instruction*> order;
  for (size_t i = insts.size(); i-- > 0;) {
    if (i % 2 == 1) order.push_back(insts[i]);
  }
  for (size_t i = 0; i < insts.size(); i += 2) order.push_back(insts[i]);
  IfaceAssignment ifaces;
  for (size_t k = 0; k < order.size(); ++k) {
    ifaces[order[k]] = ifaceWithParts(static_cast<unsigned>(k + 1));
  }
  ASSERT_EQ(ifaces.size(), insts.size());
  std::vector<const ir::Instruction*> sorted = insts;
  std::sort(sorted.begin(), sorted.end(),
            std::less<const ir::Instruction*>{});
  size_t k = 0;
  for (const auto& [inst, iface] : ifaces) {
    EXPECT_EQ(inst, sorted[k++]);
    // Each key kept the value inserted for it.
    size_t at = static_cast<size_t>(
        std::find(order.begin(), order.end(), inst) - order.begin());
    EXPECT_EQ(iface.partitions, at + 1);
  }
}

TEST(IfaceAssignmentTest, FindOfAnAbsentAccessReturnsEnd) {
  auto m = testing::linearKernel();
  std::vector<const ir::Instruction*> insts = someInstructions(*m);
  IfaceAssignment ifaces;
  EXPECT_EQ(ifaces.find(insts[0]), ifaces.end());
  for (size_t i = 0; i < insts.size(); i += 2) ifaces[insts[i]] = {};
  for (size_t i = 0; i < insts.size(); ++i) {
    const IfaceAssignment& view = ifaces;
    auto it = view.find(insts[i]);
    if (i % 2 == 0) {
      ASSERT_NE(it, view.end());
      EXPECT_EQ(it->first, insts[i]);
    } else {
      EXPECT_EQ(it, view.end());
    }
  }
}

TEST(IfaceAssignmentTest, EqualityDoesNotDependOnInsertionOrder) {
  auto m = testing::linearKernel();
  std::vector<const ir::Instruction*> insts = someInstructions(*m);
  IfaceAssignment forwards;
  IfaceAssignment backwards;
  for (size_t i = 0; i < insts.size(); ++i) {
    forwards[insts[i]] = ifaceWithParts(static_cast<unsigned>(i));
  }
  for (size_t i = insts.size(); i-- > 0;) {
    backwards.emplace_hint(backwards.begin(), insts[i],
                           ifaceWithParts(static_cast<unsigned>(i)));
  }
  EXPECT_EQ(forwards, backwards);
  backwards[insts[0]].promoted = true;
  EXPECT_NE(forwards, backwards);
}

TEST(IfaceAssignmentTest, EmplaceHintOnAnExistingKeyKeepsTheFirstValue) {
  auto m = testing::linearKernel();
  std::vector<const ir::Instruction*> insts = someInstructions(*m);
  IfaceAssignment ifaces;
  for (const ir::Instruction* inst : insts) {
    ifaces.emplace_hint(ifaces.end(), inst, ifaceWithParts(1));
  }
  // Right hint, wrong hint, end(): std::map keeps the first value and
  // returns the existing entry.
  for (int which = 0; which < 3; ++which) {
    IfaceAssignment::const_iterator hint =
        which == 0 ? IfaceAssignment::const_iterator(ifaces.find(insts[2]))
        : which == 1 ? ifaces.begin()
                     : ifaces.end();
    auto it = ifaces.emplace_hint(hint, insts[2], ifaceWithParts(9));
    EXPECT_EQ(it->first, insts[2]);
    EXPECT_EQ(it->second.partitions, 1u);
  }
  EXPECT_EQ(ifaces.size(), insts.size());
}

TEST(TechLibraryTest, DelaysAndAreasAreOrdered) {
  TechLibrary tech = TechLibrary::nangate45();
  // Multipliers dominate adders; FP dominates integer; div dominates mul.
  EXPECT_GT(tech.opInfo(ir::Opcode::Mul, ir::Type::i64()).areaUm2,
            tech.opInfo(ir::Opcode::Add, ir::Type::i64()).areaUm2);
  EXPECT_GT(tech.opInfo(ir::Opcode::FAdd, ir::Type::f64()).delayNs,
            tech.opInfo(ir::Opcode::Add, ir::Type::i64()).delayNs);
  EXPECT_GT(tech.opInfo(ir::Opcode::FDiv, ir::Type::f64()).areaUm2,
            tech.opInfo(ir::Opcode::FMul, ir::Type::f64()).areaUm2);
  // Narrow datapaths are cheaper.
  EXPECT_LT(tech.opInfo(ir::Opcode::Add, ir::Type::i32()).areaUm2,
            tech.opInfo(ir::Opcode::Add, ir::Type::i64()).areaUm2);
}

TEST(TechLibraryTest, LatencyCyclesRoundUp) {
  TechLibrary tech = TechLibrary::nangate45();
  // fadd: 5.2ns at 2ns clock -> 3 cycles.
  EXPECT_EQ(tech.latencyCycles(ir::Opcode::FAdd, ir::Type::f64(), kClock), 3u);
  // Integer add fits one cycle.
  EXPECT_EQ(tech.latencyCycles(ir::Opcode::Add, ir::Type::i64(), kClock), 1u);
  // Phis are free.
  EXPECT_EQ(tech.latencyCycles(ir::Opcode::Phi, ir::Type::i64(), kClock), 0u);
  // Slower clock reduces cycle counts.
  EXPECT_LE(tech.latencyCycles(ir::Opcode::FMul, ir::Type::f64(), 6.0),
            tech.latencyCycles(ir::Opcode::FMul, ir::Type::f64(), kClock));
}

TEST(SchedulerTest, DecoupledBeatsCoupledSequentially) {
  auto module = testing::linearKernel();
  const ir::BasicBlock* body = bodyOf(*module, "i.body");
  TechLibrary tech = TechLibrary::nangate45();
  Scheduler scheduler(tech, InterfaceTiming{}, kClock);

  BlockSchedule coupled =
      scheduler.scheduleBlock(*body, assignAll(*body, IfaceKind::Coupled));
  BlockSchedule decoupled =
      scheduler.scheduleBlock(*body, assignAll(*body, IfaceKind::Decoupled));
  // Fig. 4 sequential row: decoupled strictly shorter (6N vs 4N shape).
  EXPECT_LT(decoupled.latency, coupled.latency);
  EXPECT_GE(coupled.latency, 1u);
  // Same datapath ops either way.
  EXPECT_EQ(coupled.numOps, decoupled.numOps);
  EXPECT_DOUBLE_EQ(coupled.opAreaUm2, decoupled.opAreaUm2);
}

TEST(SchedulerTest, PipelineIIMatchesFig4Shape) {
  auto module = testing::linearKernel();
  const ir::BasicBlock* body = bodyOf(*module, "i.body");
  TechLibrary tech = TechLibrary::nangate45();
  InterfaceTiming timing;
  Scheduler scheduler(tech, timing, kClock);

  unsigned coupledII =
      scheduler.resMII(*body, assignAll(*body, IfaceKind::Coupled));
  unsigned decoupledII =
      scheduler.resMII(*body, assignAll(*body, IfaceKind::Decoupled));
  // Fig. 4 pipelined row: coupled II bound by the shared port (3 for the
  // load + 1 for the store with our constants); decoupled reaches II=1.
  EXPECT_EQ(decoupledII, 1u);
  EXPECT_EQ(coupledII,
            timing.coupledLoadOccupancy + timing.coupledStoreOccupancy);
}

TEST(SchedulerTest, UnrolledScratchpadBeatsCoupled) {
  auto module = testing::linearKernel();
  const ir::BasicBlock* body = bodyOf(*module, "i.body");
  TechLibrary tech = TechLibrary::nangate45();
  Scheduler scheduler(tech, InterfaceTiming{}, kClock);

  BlockSchedule coupledU2 =
      scheduler.scheduleBlock(*body, assignAll(*body, IfaceKind::Coupled), 2);
  BlockSchedule scratchU2 = scheduler.scheduleBlock(
      *body, assignAll(*body, IfaceKind::Scratchpad, /*partitions=*/2), 2);
  // Fig. 4 unrolled row: banked scratchpad removes the port serialization.
  EXPECT_LT(scratchU2.latency, coupledU2.latency);
  // Unrolling doubles datapath area.
  BlockSchedule coupledU1 =
      scheduler.scheduleBlock(*body, assignAll(*body, IfaceKind::Coupled), 1);
  EXPECT_DOUBLE_EQ(coupledU2.opAreaUm2, 2.0 * coupledU1.opAreaUm2);
}

TEST(SchedulerTest, ScratchpadBanksLimitParallelism) {
  auto module = testing::linearKernel();
  const ir::BasicBlock* body = bodyOf(*module, "i.body");
  TechLibrary tech = TechLibrary::nangate45();
  Scheduler scheduler(tech, InterfaceTiming{}, kClock);

  unsigned oneBank = scheduler.resMII(
      *body, assignAll(*body, IfaceKind::Scratchpad, 1), /*unroll=*/4);
  unsigned fourBanks = scheduler.resMII(
      *body, assignAll(*body, IfaceKind::Scratchpad, 4), /*unroll=*/4);
  EXPECT_GT(oneBank, fourBanks);
  EXPECT_EQ(fourBanks, 1u);
}

TEST(SchedulerTest, PromotedAccessesAreFree) {
  auto module = testing::linearKernel();
  const ir::BasicBlock* body = bodyOf(*module, "i.body");
  TechLibrary tech = TechLibrary::nangate45();
  Scheduler scheduler(tech, InterfaceTiming{}, kClock);

  IfaceAssignment promoted = assignAll(*body, IfaceKind::Coupled);
  for (auto& [inst, iface] : promoted) iface.promoted = true;
  EXPECT_EQ(scheduler.resMII(*body, promoted), 1u);
  BlockSchedule sched = scheduler.scheduleBlock(*body, promoted);
  BlockSchedule coupled =
      scheduler.scheduleBlock(*body, assignAll(*body, IfaceKind::Coupled));
  EXPECT_LT(sched.latency, coupled.latency);
}

TEST(SchedulerTest, MemoryOrderingSerializesConflictingAccesses) {
  // st z; ld z (same address) must not reorder: latency covers both.
  auto module = testing::dotRowsKernel();
  const ir::BasicBlock* body = bodyOf(*module, "j.body");
  TechLibrary tech = TechLibrary::nangate45();
  Scheduler scheduler(tech, InterfaceTiming{}, kClock);
  BlockSchedule sched =
      scheduler.scheduleBlock(*body, assignAll(*body, IfaceKind::Coupled));
  // 3 loads on one port: at least 3 * occupancy cycles of serialization.
  InterfaceTiming timing;
  EXPECT_GE(sched.latency, 3 * timing.coupledLoadOccupancy);
}

// --- Hand-scheduled blocks ---------------------------------------------------
//
// Exact latencies and start cycles (every scheduled op, in block order, one
// unroll instance after another) for small blocks on testing::HandBlock,
// worked out by hand from the default InterfaceTiming at 2 ns (fadd: 3
// cycles; coupled load: latency 3, port busy 3; coupled store: latency 1,
// port busy 1; decoupled / scratchpad: latency 1).

TEST(SchedulerTest, CoupledPortContendsAcrossUnrollInstances) {
  // ld x -> fadd -> st y, four instances on the one coupled port. Instance
  // 0: ld 0..3 (port to 3), fadd 3..6, st 6..7 (port to 7). Each later
  // instance's load waits for the port: ld 7, 14, 21; the last store
  // issues at 27 and finishes at 28.
  HandBlock h;
  ir::Value* v = h.b.load(ir::Type::f64(), h.x);
  ir::Value* s = h.b.fadd(v, h.b.f64(1.0));
  ir::Instruction* st = h.b.store(s, h.y);
  h.b.ret();
  IfaceAssignment ifaces;
  ifaces[asInst(v)] = HandBlock::iface(IfaceKind::Coupled, h.x);
  ifaces[st] = HandBlock::iface(IfaceKind::Coupled, h.y);

  TechLibrary tech = TechLibrary::nangate45();
  Scheduler scheduler(tech, InterfaceTiming{}, kClock);
  std::vector<unsigned> oneStarts;
  BlockSchedule one = scheduler.scheduleBlock(*h.body, ifaces, 1, &oneStarts);
  EXPECT_EQ(one.latency, 7u);
  std::vector<unsigned> fourStarts;
  BlockSchedule four =
      scheduler.scheduleBlock(*h.body, ifaces, 4, &fourStarts);
  EXPECT_EQ(four.latency, 28u);
  EXPECT_EQ(four.numOps, 3u);
  // ld, fadd, st per instance.
  EXPECT_EQ(oneStarts, (std::vector<unsigned>{0, 3, 6}));
  EXPECT_EQ(fourStarts,
            (std::vector<unsigned>{0, 3, 6, 7, 10, 13, 14, 17, 20, 21, 24,
                                   27}));
}

TEST(SchedulerTest, ScratchpadBanksContendAcrossUnrollInstances) {
  // Two loads of x feed an fadd stored to y; every access is a scratchpad
  // with two banks (one per array). Instance 0: both loads take one x bank
  // each at 0, fadd 1..4, st y bank 0 at 4..5. Each later instance finds
  // both x banks busy one cycle longer (loads at 1, 2, 3), and its store
  // takes the next free y bank: 5, 6, and 7..8 for the last.
  HandBlock h;
  ir::Value* a = h.b.load(ir::Type::f64(), h.x);
  ir::Value* c = h.b.load(ir::Type::f64(), h.x);
  ir::Value* s = h.b.fadd(a, c);
  ir::Instruction* st = h.b.store(s, h.y);
  h.b.ret();
  IfaceAssignment ifaces;
  ifaces[asInst(a)] = HandBlock::iface(IfaceKind::Scratchpad, h.x, 2);
  ifaces[asInst(c)] = HandBlock::iface(IfaceKind::Scratchpad, h.x, 2);
  ifaces[st] = HandBlock::iface(IfaceKind::Scratchpad, h.y, 2);

  TechLibrary tech = TechLibrary::nangate45();
  Scheduler scheduler(tech, InterfaceTiming{}, kClock);
  std::vector<unsigned> starts;
  BlockSchedule sched = scheduler.scheduleBlock(*h.body, ifaces, 4, &starts);
  EXPECT_EQ(sched.latency, 8u);
  // ld, ld, fadd, st per instance.
  EXPECT_EQ(starts, (std::vector<unsigned>{0, 0, 1, 4, 1, 1, 2, 5, 2, 2, 3,
                                           6, 3, 3, 4, 7}));

  // One bank: the two loads of each instance serialize on it, so every
  // instance needs two x cycles — the last fadd starts at 8 and its store
  // finishes at 12.
  for (auto& [inst, iface] : ifaces) iface.partitions = 1;
  EXPECT_EQ(scheduler.scheduleBlock(*h.body, ifaces, 4).latency, 12u);
}

TEST(SchedulerTest, UnknownBaseStoreAndLoadSerialize) {
  // st x; ld y; fadd. Decoupled interfaces share no port, so only memory
  // ordering can delay the load. With an unknown base the pair may alias:
  // st 0..1, ld 1..2, fadd 2..5. With both bases known and distinct the
  // load starts at 0.
  HandBlock h;
  ir::Instruction* st = h.b.store(h.b.f64(2.0), h.x);
  ir::Value* v = h.b.load(ir::Type::f64(), h.y);
  h.b.fadd(v, h.b.f64(1.0));
  h.b.ret();
  IfaceAssignment ifaces;
  ifaces[st] = HandBlock::iface(IfaceKind::Decoupled, nullptr);
  ifaces[asInst(v)] = HandBlock::iface(IfaceKind::Decoupled, h.y);

  TechLibrary tech = TechLibrary::nangate45();
  Scheduler scheduler(tech, InterfaceTiming{}, kClock);
  std::vector<unsigned> starts;
  BlockSchedule unknown = scheduler.scheduleBlock(*h.body, ifaces, 1, &starts);
  EXPECT_EQ(unknown.latency, 5u);
  EXPECT_EQ(starts, (std::vector<unsigned>{0, 1, 2}));  // st, ld, fadd

  ifaces[st].array = h.x;
  BlockSchedule known = scheduler.scheduleBlock(*h.body, ifaces, 1, &starts);
  EXPECT_EQ(known.latency, 4u);
  EXPECT_EQ(starts.at(1), 0u);
}

TEST(SchedulerTest, PhiOperandsAndPromotedAccessesImposeNoOrdering) {
  // Self-loop: p = phi; s = fadd p, 1; st s -> x (promoted); w = ld x.
  // The phi is not scheduled and its use is ready at 0; the promoted store
  // costs nothing and is exempt from memory ordering, so the coupled load
  // of the same array starts at 0 instead of after the store.
  HandBlock h;
  ir::Instruction* p = h.b.phi(ir::Type::f64());
  ir::Value* s = h.b.fadd(p, h.b.f64(1.0));
  ir::Instruction* st = h.b.store(s, h.x);
  ir::Value* w = h.b.load(ir::Type::f64(), h.x);
  h.b.br(h.body);
  p->addIncoming(s, h.body);
  IfaceAssignment ifaces;
  ifaces[st] = HandBlock::iface(IfaceKind::Coupled, h.x);
  ifaces[st].promoted = true;
  ifaces[asInst(w)] = HandBlock::iface(IfaceKind::Coupled, h.x);

  TechLibrary tech = TechLibrary::nangate45();
  Scheduler scheduler(tech, InterfaceTiming{}, kClock);
  std::vector<unsigned> starts;
  BlockSchedule sched = scheduler.scheduleBlock(*h.body, ifaces, 1, &starts);
  // fadd 0..3, st 3..3, ld 0..3.
  EXPECT_EQ(sched.latency, 3u);
  EXPECT_EQ(sched.numOps, 3u);
  EXPECT_EQ(starts, (std::vector<unsigned>{0, 3, 0}));

  // Unpromoted, the store (3..4) orders the same-array load behind it.
  ifaces[st].promoted = false;
  scheduler.scheduleBlock(*h.body, ifaces, 1, &starts);
  EXPECT_EQ(starts.at(2), 4u);
}

TEST(SchedulerTest, RecMIIFromCarriedDeps) {
  auto module = testing::dotRowsKernel();
  const ir::Function* f = module->entryFunction();
  analysis::FunctionAnalyses fa(*f);
  analysis::ScalarEvolution scev(*f, fa);
  analysis::MemoryAnalysis mem(*f, fa, scev);
  const analysis::Loop* inner = fa.loops.topLevelLoops()[0]->subLoops()[0];

  TechLibrary tech = TechLibrary::nangate45();
  Scheduler scheduler(tech, InterfaceTiming{}, kClock);
  const ir::BasicBlock* body = bodyOf(*module, "j.body");

  IfaceAssignment coupled = assignAll(*body, IfaceKind::Coupled);
  unsigned recCoupled = scheduler.recMII(mem.carriedDeps(inner), coupled);
  // Chain: ld z (3) + fadd (3) + st z (1) -> RecMII >= 7.
  EXPECT_GE(recCoupled, 7u);

  // Promoting z's load/store shrinks the recurrence to the fadd alone.
  IfaceAssignment promoted = coupled;
  for (auto& [inst, iface] : promoted) {
    analysis::AddressInfo addr = scev.addressOf(inst);
    if (addr.valid && addr.base->name() == "z") iface.promoted = true;
  }
  unsigned recPromoted = scheduler.recMII(mem.carriedDeps(inner), promoted);
  EXPECT_EQ(recPromoted,
            tech.latencyCycles(ir::Opcode::FAdd, ir::Type::f64(), kClock));
}

TEST(SchedulerTest, PipelinedCyclesFormula) {
  EXPECT_EQ(Scheduler::pipelinedCycles(1, 10, 3), 10u);
  EXPECT_EQ(Scheduler::pipelinedCycles(100, 10, 1), 109u);
  EXPECT_EQ(Scheduler::pipelinedCycles(100, 10, 3), 10u + 99u * 3u);
  EXPECT_EQ(Scheduler::pipelinedCycles(0, 10, 3), 0u);
}

TEST(SchedulerTest, EmptyBlockHasUnitLatency) {
  ir::Module m("empty");
  ir::Function* f = m.addFunction("f", ir::Type::voidTy(), {});
  ir::BasicBlock* entry = f->addBlock("entry");
  ir::IRBuilder b(&m);
  b.setInsertPoint(entry);
  b.ret();
  TechLibrary tech = TechLibrary::nangate45();
  Scheduler scheduler(tech, InterfaceTiming{}, kClock);
  BlockSchedule sched = scheduler.scheduleBlock(*entry, {});
  EXPECT_EQ(sched.latency, 1u);
  EXPECT_EQ(sched.numOps, 0u);
}

class ClockSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(ClockSweepTest, LatencyMonotoneInClockPeriod) {
  // Property: a slower clock never increases an op's cycle latency.
  TechLibrary tech = TechLibrary::nangate45();
  double clock = GetParam();
  for (ir::Opcode op : {ir::Opcode::Add, ir::Opcode::Mul, ir::Opcode::FAdd,
                        ir::Opcode::FMul, ir::Opcode::FDiv, ir::Opcode::FSqrt,
                        ir::Opcode::SDiv}) {
    EXPECT_LE(tech.latencyCycles(op, ir::Type::f64(), clock * 2.0),
              tech.latencyCycles(op, ir::Type::f64(), clock))
        << opcodeSpelling(op);
    EXPECT_GE(tech.latencyCycles(op, ir::Type::f64(), clock), 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Clocks, ClockSweepTest,
                         ::testing::Values(0.5, 1.0, 2.0, 4.0, 8.0));

class UnrollSweepTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(UnrollSweepTest, AreaScalesLinearlyLatencyMonotone) {
  unsigned unroll = GetParam();
  auto module = testing::linearKernel();
  const ir::BasicBlock* body =
      module->entryFunction()->blockByName("i.body");
  TechLibrary tech = TechLibrary::nangate45();
  Scheduler scheduler(tech, InterfaceTiming{}, kClock);
  IfaceAssignment coupled = assignAll(*body, IfaceKind::Coupled);
  BlockSchedule base = scheduler.scheduleBlock(*body, coupled, 1);
  BlockSchedule wide = scheduler.scheduleBlock(*body, coupled, unroll);
  EXPECT_DOUBLE_EQ(wide.opAreaUm2, unroll * base.opAreaUm2);
  EXPECT_GE(wide.latency, base.latency);
  // Port serialization grows with width.
  if (unroll > 1) {
    EXPECT_GT(wide.latency, base.latency);
  }
}

INSTANTIATE_TEST_SUITE_P(Unrolls, UnrollSweepTest,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u));

}  // namespace
}  // namespace cayman::hls
