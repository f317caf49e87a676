// End-to-end integration tests of the Framework facade, including the
// qualitative capability matrix of the paper's Table I.
#include <gtest/gtest.h>

#include <cmath>
#include <type_traits>

#include "cayman/framework.h"
#include "ir/builder.h"
#include "test_kernels.h"
#include "workloads/workloads.h"

namespace cayman {
namespace {

TEST(FrameworkTest, RejectsMalformedModules) {
  auto module = std::make_unique<ir::Module>("bad");
  module->addFunction("f", ir::Type::voidTy(), {});  // block-less function
  module->functionByName("f")->addBlock("entry");    // no terminator
  EXPECT_THROW(Framework{std::move(module)}, Error);
}

TEST(FrameworkTest, IsNeitherCopyableNorMovable) {
  // The model and the baselines keep a reference to the Framework's tech
  // library member, which a copy or a move would leave pointing at the
  // source object.
  static_assert(!std::is_copy_constructible_v<Framework>);
  static_assert(!std::is_copy_assignable_v<Framework>);
  static_assert(!std::is_move_constructible_v<Framework>);
  static_assert(!std::is_move_assignable_v<Framework>);
}

TEST(FrameworkTest, EndToEndOnLinearKernel) {
  Framework fw(testing::linearKernel(256));
  EXPECT_GT(fw.totalCpuCycles(), 0.0);
  select::Solution best = fw.best(0.25);
  EXPECT_FALSE(best.empty());
  EXPECT_LE(best.areaUm2, fw.budgetUm2(0.25));
  EXPECT_GT(fw.speedupOf(best), 1.0);
}

TEST(FrameworkTest, BothModelsShareOneAnalysisPerFunction) {
  // The Cayman model and the QsCores model read the wPST's analyses; neither
  // builds its own SCEV or memory analysis.
  for (const char* name : {"atax", "cjpeg", "fft"}) {
    Framework fw(workloads::build(name));
    for (const auto& function : fw.module().functions()) {
      const analysis::FunctionAnalyses& shared =
          fw.wpst().analyses(function.get());
      EXPECT_EQ(&fw.model().analysesFor(function.get()), &shared) << name;
      EXPECT_EQ(&fw.qscores().model().analysesFor(function.get()), &shared)
          << name;
    }
  }
}

TEST(FrameworkTest, ExploreFrontiersGrowWithBudget) {
  Framework fw(workloads::build("atax"));
  select::Solution small = fw.best(0.10);
  select::Solution large = fw.best(0.65);
  EXPECT_GE(fw.speedupOf(large), fw.speedupOf(small));
  EXPECT_LE(small.areaUm2, fw.budgetUm2(0.10));
  EXPECT_LE(large.areaUm2, fw.budgetUm2(0.65));
}

TEST(FrameworkTest, EvaluateReportIsConsistent) {
  Framework fw(workloads::build("bicg"));
  EvaluationReport report = fw.evaluate(0.25);
  EXPECT_DOUBLE_EQ(report.budgetRatio, 0.25);
  EXPECT_GE(report.caymanSpeedup, 1.0);
  EXPECT_GE(report.noviaSpeedup, 1.0);
  EXPECT_GE(report.qscoresSpeedup, 1.0);
  EXPECT_NEAR(report.overNovia, report.caymanSpeedup / report.noviaSpeedup,
              1e-9);
  EXPECT_NEAR(report.overQsCores,
              report.caymanSpeedup / report.qscoresSpeedup, 1e-9);
  unsigned ifaceTotal =
      report.numCoupled + report.numDecoupled + report.numScratchpad;
  EXPECT_GT(ifaceTotal, 0u);
  EXPECT_GE(report.selectionSeconds, 0.0);
}

TEST(FrameworkTest, TrivialModuleEvaluatesToFiniteReport) {
  // Near-empty profile: nothing worth accelerating, every baseline may come
  // back with speedup <= 1 or 0 — the derived ratios must stay finite
  // (overNovia/overQsCores report 0, not inf/NaN, when a baseline found
  // nothing).
  auto module = std::make_unique<ir::Module>("trivial");
  ir::Function* f = module->addFunction("main", ir::Type::voidTy(), {});
  ir::BasicBlock* entry = f->addBlock("entry");
  ir::IRBuilder b(module.get());
  b.setInsertPoint(entry);
  b.ret();
  Framework fw(std::move(module));
  EvaluationReport report = fw.evaluate(0.25);
  for (double value :
       {report.totalCpuCycles, report.caymanSpeedup, report.noviaSpeedup,
        report.qscoresSpeedup, report.overNovia, report.overQsCores,
        report.areaSavingPercent}) {
    EXPECT_TRUE(std::isfinite(value));
  }
  EXPECT_GE(report.overNovia, 0.0);
  EXPECT_GE(report.overQsCores, 0.0);
}

TEST(FrameworkTest, TableOneCapabilityMatrix) {
  // Paper Table I: Cayman (full) supports optimized control flow and
  // specialized access; coupled-only still optimizes control flow; QsCores
  // is sequential + slow; NOVIA has no control flow or memory support.
  Framework full(workloads::build("atax"));
  EvaluationReport report = full.evaluate(0.65);
  // Cayman: control flow optimized (pipelined regions exist) and access
  // specialized (non-coupled interfaces used).
  EXPECT_GT(report.numPipelinedRegions, 0u);
  EXPECT_GT(report.numDecoupled + report.numScratchpad, 0u);
  // QsCores: control flow sequential, access slow -> strictly below Cayman.
  EXPECT_GT(report.caymanSpeedup, report.qscoresSpeedup);
  // NOVIA: no memory acceleration -> the least speedup of the three.
  EXPECT_GE(report.qscoresSpeedup, 0.8 * report.noviaSpeedup);
  EXPECT_GT(report.caymanSpeedup, report.noviaSpeedup);
}

TEST(FrameworkTest, CoupledOnlyAblationIsSlower) {
  FrameworkOptions coupledOnly;
  coupledOnly.coupledOnly = true;
  Framework full(workloads::build("mvt"));
  Framework restricted(workloads::build("mvt"), coupledOnly);
  double fullSpeedup = full.speedupOf(full.best(0.65));
  double restrictedSpeedup = restricted.speedupOf(restricted.best(0.65));
  // Fig. 6: coupled-only Cayman achieves lower speedup for most benchmarks.
  EXPECT_GT(fullSpeedup, restrictedSpeedup);
  EXPECT_GE(restrictedSpeedup, 1.0);
}

TEST(FrameworkTest, MergingPreservesPerformanceReducesArea) {
  Framework fw(workloads::build("3mm"));
  select::Solution best = fw.best(0.65);
  merge::MergeResult merged = fw.mergeSolution(best);
  EXPECT_LE(merged.areaAfterUm2, merged.areaBeforeUm2);
  // Merging does not touch the schedule: speedup is unchanged by design.
  EXPECT_DOUBLE_EQ(fw.speedupOf(best), fw.speedupOf(best));
}

TEST(FrameworkTest, DeterministicAcrossConstructions) {
  Framework a(workloads::build("trisolv"));
  Framework b(workloads::build("trisolv"));
  EXPECT_DOUBLE_EQ(a.totalCpuCycles(), b.totalCpuCycles());
  EXPECT_DOUBLE_EQ(a.speedupOf(a.best(0.25)), b.speedupOf(b.best(0.25)));
}

class BudgetSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(BudgetSweepTest, SolutionsRespectEveryBudget) {
  double budget = GetParam();
  Framework fw(workloads::build("syrk"));
  select::Solution best = fw.best(budget);
  EXPECT_LE(best.areaUm2, fw.budgetUm2(budget) + 1e-6);
  EXPECT_GE(fw.speedupOf(best), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Budgets, BudgetSweepTest,
                         ::testing::Values(0.05, 0.15, 0.25, 0.45, 0.65));

}  // namespace
}  // namespace cayman
