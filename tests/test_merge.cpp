// Tests for accelerator merging: pairwise saving estimation, the greedy
// loop, reusable accelerator grouping, and end-to-end savings.
#include <gtest/gtest.h>

#include "accel/model.h"
#include "merge/merger.h"
#include "oracles/merge.h"
#include "select/selector.h"
#include "test_kernels.h"
#include "workloads/workloads.h"

namespace cayman::merge {
namespace {

using OpCounts = std::map<std::pair<ir::Opcode, bool>, unsigned>;

TEST(PairSavingTest, SharedExpensiveOpsSave) {
  hls::TechLibrary tech = hls::TechLibrary::nangate45();
  AcceleratorMerger merger(tech);
  OpCounts a{{{ir::Opcode::FMul, true}, 2}, {{ir::Opcode::FAdd, true}, 1}};
  OpCounts b{{{ir::Opcode::FMul, true}, 1}, {{ir::Opcode::FAdd, true}, 2}};
  double saving = merger.pairSaving(a, b);
  // One shared FMul + one shared FAdd minus mux overhead: clearly positive.
  EXPECT_GT(saving, 0.0);
  EXPECT_LT(saving,
            tech.opInfo(ir::Opcode::FMul, ir::Type::f64()).areaUm2 +
                tech.opInfo(ir::Opcode::FAdd, ir::Type::f64()).areaUm2);
}

TEST(PairSavingTest, DisjointOpsSaveNothing) {
  hls::TechLibrary tech = hls::TechLibrary::nangate45();
  AcceleratorMerger merger(tech);
  OpCounts a{{{ir::Opcode::FMul, true}, 2}};
  OpCounts b{{{ir::Opcode::SDiv, true}, 1}};
  EXPECT_DOUBLE_EQ(merger.pairSaving(a, b), 0.0);
}

TEST(PairSavingTest, CheapOpsNotWorthMuxes) {
  hls::TechLibrary tech = hls::TechLibrary::nangate45();
  AcceleratorMerger merger(tech);
  // Sharing a single AND gate costs more mux area than it saves — a merger
  // keeps separate instances, so the estimated saving clamps to zero
  // instead of going negative.
  OpCounts a{{{ir::Opcode::And, true}, 1}};
  OpCounts b{{{ir::Opcode::And, true}, 1}};
  EXPECT_DOUBLE_EQ(merger.pairSaving(a, b), 0.0);
}

TEST(PairSavingTest, CheapSharedOpsNeverReduceSaving) {
  // Regression: per-op-class contributions used to go negative, so a pair
  // dominated by narrow/cheap ops reported less saving than its expensive
  // ops alone (or a bogus negative total).
  hls::TechLibrary tech = hls::TechLibrary::nangate45();
  AcceleratorMerger merger(tech);
  OpCounts expensiveA{{{ir::Opcode::FMul, true}, 1}};
  OpCounts expensiveB{{{ir::Opcode::FMul, true}, 1}};
  double base = merger.pairSaving(expensiveA, expensiveB);
  ASSERT_GT(base, 0.0);

  OpCounts mixedA = expensiveA;
  OpCounts mixedB = expensiveB;
  mixedA[{ir::Opcode::And, true}] = 12;
  mixedB[{ir::Opcode::And, true}] = 12;
  mixedA[{ir::Opcode::Xor, true}] = 8;
  mixedB[{ir::Opcode::Xor, true}] = 8;
  EXPECT_GE(merger.pairSaving(mixedA, mixedB), base)
      << "cheap shared ops must not eat into the saving of expensive ones";

  // A pair made only of not-worth-sharing ops saves exactly nothing.
  OpCounts cheapA{{{ir::Opcode::And, true}, 12}, {{ir::Opcode::Xor, true}, 8}};
  EXPECT_DOUBLE_EQ(merger.pairSaving(cheapA, cheapA), 0.0);
}

struct MergePipeline {
  explicit MergePipeline(std::unique_ptr<ir::Module> m)
      : module(std::move(m)),
        wpst(*module),
        interp(*module),
        run(interp.run()),
        profile(wpst, run, interp.costModel()),
        tech(hls::TechLibrary::nangate45()),
        model(wpst, profile, tech, hls::InterfaceTiming{}, {}) {}

  select::Solution best(double budgetUm2) {
    select::SelectorParams params;
    params.areaBudgetUm2 = budgetUm2;
    return select::CandidateSelector(model, params).best();
  }

  std::unique_ptr<ir::Module> module;
  analysis::WPst wpst;
  sim::Interpreter interp;
  sim::Interpreter::Result run;
  sim::ProfileData profile;
  hls::TechLibrary tech;
  accel::AcceleratorModel model;
};

TEST(MergerTest, IdenticalKernelsMergeHeavily) {
  // 3mm has three identical matmul nests — the paper's showcase (74% / 70%
  // saving). Expect a large saving and one reusable accelerator covering
  // multiple kernels. (The threshold accounts for fan-in-aware mux costs:
  // chaining the third nest onto the shared datapath pays for 3:1 selects,
  // so the honest figure is a few points below the old flat-cost booking.)
  MergePipeline p(workloads::build("3mm"));
  select::Solution best = p.best(5e5);
  ASSERT_GE(best.accelerators.size(), 2u);
  AcceleratorMerger merger(p.tech);
  MergeResult result = merger.run(best);
  EXPECT_GT(result.savingPercent(), 25.0);
  EXPECT_GE(result.reusableAccelerators, 1);
  EXPECT_GE(result.avgKernelsPerReusable, 2.0);
  EXPECT_LT(result.areaAfterUm2, result.areaBeforeUm2);
}

TEST(MergerTest, SingleAcceleratorSavesLittle) {
  // One hotspot (like doitgen in the paper, 5% saving): merging can only
  // share within the single accelerator's own blocks.
  MergePipeline p(testing::linearKernel());
  select::Solution best = p.best(5e5);
  AcceleratorMerger merger(p.tech);
  MergeResult result = merger.run(best);
  EXPECT_EQ(result.reusableAccelerators, 0);
  EXPECT_LT(result.savingPercent(), 30.0);
}

/// Two same-shaped FMul loops nested in one outer loop, so the outer-loop
/// region is a single accelerator whose blocks share expensive operators.
std::unique_ptr<ir::Module> twinLoopKernel() {
  auto module = std::make_unique<ir::Module>("twins");
  auto* x = module->addGlobal("x", ir::Type::f64(), 32);
  auto* y = module->addGlobal("y", ir::Type::f64(), 32);
  auto* z = module->addGlobal("z", ir::Type::f64(), 32);
  workloads::KernelBuilder kb(module.get());
  kb.beginFunction("main");
  kb.beginLoop(0, 8, "i");
  ir::Value* j = kb.beginLoop(0, 32, "j");
  kb.storeAt(y, j, kb.ir().fmul(kb.loadAt(x, j), kb.ir().f64(2.0)));
  kb.endLoop();
  ir::Value* k = kb.beginLoop(0, 32, "k");
  kb.storeAt(z, k, kb.ir().fmul(kb.loadAt(x, k), kb.ir().f64(3.0)));
  kb.endLoop();
  kb.endLoop();
  kb.endFunction();
  ir::verifyOrThrow(*module);
  return module;
}

TEST(MergerTest, SingleAcceleratorReportsZeroMergeSteps) {
  // Regression: the greedy loop used to pair two units of the *same*
  // accelerator, booking intra-accelerator sharing as cross-kernel reuse
  // while the group accounting saw a singleton. The paper merges datapaths
  // across accelerators only.
  MergePipeline p(twinLoopKernel());
  const analysis::Region* outer = nullptr;
  for (const analysis::Region* r : p.wpst.allRegions()) {
    if (r->kind() == analysis::RegionKind::Loop &&
        r->block()->name() == "i.header") {
      outer = r;
    }
  }
  ASSERT_NE(outer, nullptr);
  const std::vector<accel::AcceleratorConfig>& configs =
      p.model.generate(outer);
  ASSERT_FALSE(configs.empty());
  // One accelerator covering both FMul loops: plenty of shareable ops
  // between its own blocks, but nothing to merge across accelerators.
  select::Solution solo = select::Solution::fromConfig(configs.back());
  AcceleratorMerger merger(p.tech);
  MergeResult result = merger.run(solo);
  EXPECT_EQ(result.mergeSteps, 0);
  EXPECT_EQ(result.reusableAccelerators, 0);
  EXPECT_DOUBLE_EQ(result.areaAfterUm2, result.areaBeforeUm2);

  // Sanity: the same two loops as *separate* accelerators do merge.
  const analysis::Region* inner1 = nullptr;
  const analysis::Region* inner2 = nullptr;
  for (const analysis::Region* r : p.wpst.allRegions()) {
    if (r->kind() != analysis::RegionKind::Loop) continue;
    if (r->block()->name() == "j.header") inner1 = r;
    if (r->block()->name() == "k.header") inner2 = r;
  }
  ASSERT_NE(inner1, nullptr);
  ASSERT_NE(inner2, nullptr);
  select::Solution pair = select::Solution::merge(
      select::Solution::fromConfig(p.model.generate(inner1).back()),
      select::Solution::fromConfig(p.model.generate(inner2).back()));
  MergeResult merged = merger.run(pair);
  EXPECT_GE(merged.mergeSteps, 1);
  EXPECT_EQ(merged.reusableAccelerators, 1);
  EXPECT_LT(merged.areaAfterUm2, merged.areaBeforeUm2);
}

TEST(PairSavingTest, ChainedMergeChargesIncrementalMux) {
  // Regression (fan-in-aware mux cost): the seed charged a flat 2:1 mux plus
  // two config bits per shared operator no matter how many kernels a unit
  // already served, so the k-th merge of a chain was booked as cheaply as
  // the first. The k-th merge needs (k+1):1 muxing — wider selects, more
  // config bits — so chained savings must shrink strictly.
  hls::TechLibrary tech = hls::TechLibrary::nangate45();
  Unit a, b, c;
  a.ops[{ir::Opcode::FMul, true}] = 1;
  b.ops = a.ops;
  c.ops = a.ops;
  b.acceleratorIndex = 1;
  c.acceleratorIndex = 2;
  double s11 = unitPairSaving(tech, a, b);
  ASSERT_GT(s11, 0.0);
  Unit merged = a;
  Unit absorbed = b;
  absorbUnit(merged, absorbed);
  ASSERT_EQ(merged.fanIn, 2u);
  double s21 = unitPairSaving(tech, merged, c);
  EXPECT_GT(s21, 0.0);
  EXPECT_LT(s21, s11) << "widening a 2:1 select to 3:1 must cost extra";
  // A 3-way chain saves strictly less than 3x one pair — and strictly less
  // than the 2x the flat-cost accounting used to book for it.
  EXPECT_LT(s11 + s21, 3.0 * s11);
  EXPECT_LT(s11 + s21, 2.0 * s11);
}

TEST(PairSavingTest, FreshPairMatchesLegacyFlatCost) {
  // At fan-in 1 + 1 the incremental model reduces exactly to the old flat
  // formula (one 2:1 mux per operand bit, two config bits), so single-pair
  // savings are unchanged by the bugfix.
  hls::TechLibrary tech = hls::TechLibrary::nangate45();
  Unit a, b;
  a.ops[{ir::Opcode::FMul, true}] = 1;
  b.ops = a.ops;
  b.acceleratorIndex = 1;
  double opArea = tech.opInfo(ir::Opcode::FMul, ir::Type::f64()).areaUm2;
  double flat = opArea - (operandCount(ir::Opcode::FMul) * 2.0 * 64.0 *
                              tech.muxAreaPerInputBit +
                          2.0 * tech.configBitArea);
  EXPECT_DOUBLE_EQ(unitPairSaving(tech, a, b), flat);
}

TEST(MergerTest, ThreeWayChainBooksIncrementalSavings) {
  // Three identical one-FMul units on three accelerators chain into one
  // reconfigurable datapath; the engine must book s(1,1) + s(2,1), not
  // 2 * s(1,1).
  hls::TechLibrary tech = hls::TechLibrary::nangate45();
  std::vector<Unit> units(3);
  for (size_t i = 0; i < units.size(); ++i) {
    units[i].ops[{ir::Opcode::FMul, true}] = 1;
    units[i].acceleratorIndex = i;
  }
  double s11 = unitPairSaving(tech, units[0], units[1]);
  Unit merged = units[0];
  Unit absorbed = units[1];
  absorbUnit(merged, absorbed);
  double s21 = unitPairSaving(tech, merged, units[2]);

  const oracles::MatchFn engines[] = {matchUnitsGraph,
                                       oracles::matchUnitsReference};
  for (size_t engine = 0; engine < std::size(engines); ++engine) {
    std::vector<Unit> copy = units;
    UnionFind groups(3);
    MatchStats stats;
    double total = engines[engine](copy, tech, groups, stats);
    EXPECT_EQ(stats.steps, 2) << engine;
    EXPECT_DOUBLE_EQ(total, s11 + s21) << engine;
    EXPECT_LT(total, 2.0 * s11) << engine;
  }
}

/// Loop A, an outer loop wrapping two FMul loops (one accelerator with two
/// expensive datapath units), and loop D — the shape that exposed the
/// raw-index dedup bug.
std::unique_ptr<ir::Module> threeAcceleratorKernel() {
  auto module = std::make_unique<ir::Module>("chain3");
  auto* w = module->addGlobal("w", ir::Type::f64(), 32);
  auto* x = module->addGlobal("x", ir::Type::f64(), 32);
  auto* y = module->addGlobal("y", ir::Type::f64(), 32);
  auto* z = module->addGlobal("z", ir::Type::f64(), 32);
  workloads::KernelBuilder kb(module.get());
  kb.beginFunction("main");
  ir::Value* a = kb.beginLoop(0, 32, "a");
  kb.storeAt(w, a, kb.ir().fmul(kb.loadAt(x, a), kb.ir().f64(1.5)));
  kb.endLoop();
  kb.beginLoop(0, 8, "i");
  ir::Value* j = kb.beginLoop(0, 32, "j");
  kb.storeAt(y, j, kb.ir().fmul(kb.loadAt(x, j), kb.ir().f64(2.0)));
  kb.endLoop();
  ir::Value* k = kb.beginLoop(0, 32, "k");
  kb.storeAt(z, k, kb.ir().fmul(kb.loadAt(x, k), kb.ir().f64(3.0)));
  kb.endLoop();
  kb.endLoop();
  ir::Value* d = kb.beginLoop(0, 32, "d");
  kb.storeAt(x, d, kb.ir().fmul(kb.loadAt(w, d), kb.ir().f64(0.5)));
  kb.endLoop();
  kb.endFunction();
  ir::verifyOrThrow(*module);
  return module;
}

TEST(MergerTest, MergeStepsBoundedByAcceleratorCount) {
  // Regression (group-aware dedup): after accelerator A merged into B, the
  // seed compared raw accelerator indices, so B's *other* units could still
  // pair with the merged unit and book intra-group sharing as fresh
  // cross-kernel saving. Every legitimate step unions two distinct groups,
  // so a 3-accelerator solution supports at most 2 steps — the pre-fix
  // greedy books 3 here.
  MergePipeline p(threeAcceleratorKernel());
  const analysis::Region* loopA = nullptr;
  const analysis::Region* outer = nullptr;
  const analysis::Region* loopD = nullptr;
  for (const analysis::Region* r : p.wpst.allRegions()) {
    if (r->kind() != analysis::RegionKind::Loop) continue;
    if (r->block()->name() == "a.header") loopA = r;
    if (r->block()->name() == "i.header") outer = r;
    if (r->block()->name() == "d.header") loopD = r;
  }
  ASSERT_NE(loopA, nullptr);
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(loopD, nullptr);
  select::Solution solution = select::Solution::merge(
      select::Solution::merge(
          select::Solution::fromConfig(p.model.generate(loopA).back()),
          select::Solution::fromConfig(p.model.generate(outer).back())),
      select::Solution::fromConfig(p.model.generate(loopD).back()));
  ASSERT_EQ(solution.accelerators.size(), 3u);

  MergeResult graph = AcceleratorMerger(p.tech).run(solution);
  MergeResult reference = oracles::mergeReference(p.tech, solution);
  EXPECT_LE(graph.mergeSteps, 2);
  EXPECT_LE(reference.mergeSteps, 2);
  EXPECT_GE(graph.mergeSteps, 1);
  EXPECT_GT(graph.savingPercent(), 0.0);
  EXPECT_EQ(graph.mergeSteps, reference.mergeSteps);
  EXPECT_DOUBLE_EQ(graph.areaAfterUm2, reference.areaAfterUm2);
  EXPECT_EQ(graph.reusableAccelerators, reference.reusableAccelerators);
}

TEST(UnionFindTest, FindAndUnite) {
  UnionFind uf(6);
  EXPECT_EQ(uf.size(), 6u);
  for (size_t i = 0; i < 6; ++i) EXPECT_EQ(uf.find(i), i);
  uf.unite(0, 1);
  EXPECT_EQ(uf.find(0), uf.find(1));
  EXPECT_NE(uf.find(0), uf.find(2));
  uf.unite(2, 3);
  uf.unite(1, 3);
  EXPECT_EQ(uf.find(0), uf.find(2));
  EXPECT_EQ(uf.find(1), uf.find(3));
  EXPECT_NE(uf.find(0), uf.find(4));
}

TEST(UnionFindTest, DeepChainDoesNotOverflowStack) {
  // Regression (stack safety): the seed used a recursive std::function find;
  // a population-scale merge chain built a linked list deep enough to blow
  // the stack. Path halving is iterative and flattens as it walks.
  constexpr size_t kN = 1u << 20;
  UnionFind uf(kN);
  for (size_t i = kN - 1; i > 0; --i) uf.unite(i, i - 1);
  EXPECT_EQ(uf.find(kN - 1), uf.find(0));
  size_t root = uf.find(0);
  for (size_t i = 0; i < kN; i += 4096) EXPECT_EQ(uf.find(i), root);
}

TEST(MergerTest, SingleAcceleratorSkipsUnitExtraction) {
  // Regression (degenerate guard): merging is strictly cross-accelerator,
  // so a single-accelerator solution must not even extract units.
  MergePipeline p(twinLoopKernel());
  const analysis::Region* outer = nullptr;
  for (const analysis::Region* r : p.wpst.allRegions()) {
    if (r->kind() == analysis::RegionKind::Loop &&
        r->block()->name() == "i.header") {
      outer = r;
    }
  }
  ASSERT_NE(outer, nullptr);
  select::Solution solo =
      select::Solution::fromConfig(p.model.generate(outer).back());
  for (const MergeResult& result :
       {AcceleratorMerger(p.tech).run(solo),
        oracles::mergeReference(p.tech, solo)}) {
    EXPECT_EQ(result.unitsExtracted, 0u);
    EXPECT_EQ(result.pairsEvaluated, 0u);
    EXPECT_EQ(result.mergeSteps, 0);
    EXPECT_DOUBLE_EQ(result.areaAfterUm2, result.areaBeforeUm2);
  }
}

TEST(MergerTest, EmptySolutionIsNoop) {
  hls::TechLibrary tech = hls::TechLibrary::nangate45();
  AcceleratorMerger merger(tech);
  MergeResult result = merger.run(select::Solution{});
  EXPECT_DOUBLE_EQ(result.areaBeforeUm2, 0.0);
  EXPECT_DOUBLE_EQ(result.areaAfterUm2, 0.0);
  EXPECT_EQ(result.mergeSteps, 0);
  EXPECT_DOUBLE_EQ(result.savingPercent(), 0.0);
}

TEST(MergerTest, MergingNeverIncreasesArea) {
  for (const char* name : {"3mm", "atax", "mvt", "jacobi-2d"}) {
    MergePipeline p(workloads::build(name));
    select::Solution best = p.best(5e5);
    AcceleratorMerger merger(p.tech);
    MergeResult result = merger.run(best);
    EXPECT_LE(result.areaAfterUm2, result.areaBeforeUm2 + 1e-6) << name;
    EXPECT_GE(result.areaAfterUm2, 0.0) << name;
  }
}

TEST(MergerTest, DeterministicAcrossRuns) {
  MergePipeline p(workloads::build("3mm"));
  select::Solution best = p.best(5e5);
  AcceleratorMerger merger(p.tech);
  MergeResult first = merger.run(best);
  MergeResult second = merger.run(best);
  EXPECT_DOUBLE_EQ(first.areaAfterUm2, second.areaAfterUm2);
  EXPECT_EQ(first.mergeSteps, second.mergeSteps);
}

}  // namespace
}  // namespace cayman::merge
