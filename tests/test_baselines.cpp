// Tests for the NOVIA-like and QsCores-like baselines: capability
// restrictions (paper Table I) and comparative behaviour.
#include <gtest/gtest.h>

#include "baselines/novia.h"
#include "baselines/qscores.h"
#include "test_kernels.h"
#include "workloads/workloads.h"

namespace cayman::baselines {
namespace {

struct BaselinePipeline {
  explicit BaselinePipeline(std::unique_ptr<ir::Module> m)
      : module(std::move(m)),
        wpst(*module),
        interp(*module),
        run(interp.run()),
        profile(wpst, run, interp.costModel()),
        tech(hls::TechLibrary::nangate45()) {}

  std::unique_ptr<ir::Module> module;
  analysis::WPst wpst;
  sim::Interpreter interp;
  sim::Interpreter::Result run;
  sim::ProfileData profile;
  hls::TechLibrary tech;
};

TEST(NoviaTest, ParetoPointsAreMonotone) {
  BaselinePipeline p(workloads::build("3mm"));
  NoviaFlow novia(p.wpst, p.profile, p.tech);
  std::vector<NoviaFlow::Point> points = novia.paretoFront(5e5);
  ASSERT_GE(points.size(), 1u);
  EXPECT_DOUBLE_EQ(points.front().areaUm2, 0.0);
  for (size_t i = 1; i < points.size(); ++i) {
    EXPECT_GT(points[i].areaUm2, points[i - 1].areaUm2);
    EXPECT_GE(points[i].savedCpuCycles, points[i - 1].savedCpuCycles);
    EXPECT_LE(points[i].areaUm2, 5e5);
  }
}

TEST(NoviaTest, SpeedupIsModest) {
  // NOVIA accelerates compute dataflow only; memory/control stay on the
  // CPU, so program speedups stay in the low single digits (paper Fig. 6:
  // "lower-left corner").
  BaselinePipeline p(workloads::build("3mm"));
  NoviaFlow novia(p.wpst, p.profile, p.tech);
  NoviaFlow::Point best = novia.best(5e5);
  double speedup = best.speedup(p.profile.totalCycles());
  EXPECT_GE(speedup, 1.0);
  EXPECT_LT(speedup, 3.0);
}

TEST(NoviaTest, BudgetZeroMeansNoGain) {
  BaselinePipeline p(workloads::build("3mm"));
  NoviaFlow novia(p.wpst, p.profile, p.tech);
  NoviaFlow::Point best = novia.best(0.0);
  EXPECT_DOUBLE_EQ(best.savedCpuCycles, 0.0);
  EXPECT_DOUBLE_EQ(best.speedup(p.profile.totalCycles()), 1.0);
}

TEST(QsCoresTest, RestrictionsForbidFastHardware) {
  accel::ModelParams params = QsCoresFlow::restrictedParams();
  EXPECT_FALSE(params.allowDecoupled);
  EXPECT_FALSE(params.allowScratchpad);
  EXPECT_FALSE(params.optimizeControlFlow);
  hls::InterfaceTiming timing = QsCoresFlow::scanChainTiming();
  hls::InterfaceTiming fast;
  EXPECT_GT(timing.coupledLoadLatency, fast.coupledLoadLatency);
  EXPECT_GT(timing.coupledStoreLatency, fast.coupledStoreLatency);
}

TEST(QsCoresTest, SolutionsAreSequentialCoupledOnly) {
  BaselinePipeline p(workloads::build("atax"));
  QsCoresFlow qscores(p.wpst, p.profile, p.tech);
  select::Solution best = qscores.best(5e5);
  for (const auto& config : best.accelerators) {
    EXPECT_EQ(config.numPipelinedRegions, 0u);
    EXPECT_EQ(config.numDecoupled, 0u);
    EXPECT_EQ(config.numScratchpad, 0u);
  }
}

TEST(QsCoresTest, StillBeatsPlainCpuSometimes) {
  // Even sequential accelerators with slow access can win on compute-dense
  // kernels — QsCores is a real baseline, not a strawman.
  BaselinePipeline p(workloads::build("3mm"));
  QsCoresFlow qscores(p.wpst, p.profile, p.tech);
  const double ratio = 1.25;  // 500 MHz accelerator beside a 625 MHz CVA6
  select::Solution best = qscores.best(1.3e6, ratio);
  EXPECT_GT(best.speedup(p.profile.totalCycles(), ratio), 1.0);
}

}  // namespace
}  // namespace cayman::baselines
