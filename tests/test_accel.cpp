// Tests for the accelerator model: configuration generation, the interface
// heuristics (β rule, decoupled-in-pipelines, promotion), and the
// performance/area estimator.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "accel/model.h"
#include "ir/parser.h"
#include "test_kernels.h"

namespace cayman::accel {
namespace {

struct Pipeline {
  explicit Pipeline(std::unique_ptr<ir::Module> m, ModelParams params = {})
      : module(std::move(m)),
        wpst(*module),
        interp(*module),
        run(interp.run()),
        profile(wpst, run, interp.costModel()),
        tech(hls::TechLibrary::nangate45()),
        model(wpst, profile, tech, hls::InterfaceTiming{}, params) {}

  std::unique_ptr<ir::Module> module;
  analysis::WPst wpst;
  sim::Interpreter interp;
  sim::Interpreter::Result run;
  sim::ProfileData profile;
  hls::TechLibrary tech;
  AcceleratorModel model;
};

const analysis::Region* loopRegionByHeader(const analysis::WPst& wpst,
                                           const char* header) {
  for (const analysis::Region* r : wpst.allRegions()) {
    if (r->kind() == analysis::RegionKind::Loop &&
        r->block()->name() == header) {
      return r;
    }
  }
  return nullptr;
}

TEST(ModelTest, GeneratesAreaOrderedConfigsWithTradeoff) {
  Pipeline p(testing::linearKernel());
  const analysis::Region* loop = loopRegionByHeader(p.wpst, "i.header");
  ASSERT_NE(loop, nullptr);
  std::vector<AcceleratorConfig> configs = p.model.generate(loop);
  ASSERT_GE(configs.size(), 2u);
  for (size_t i = 1; i < configs.size(); ++i) {
    EXPECT_GE(configs[i].areaUm2, configs[i - 1].areaUm2);
  }
  // The most expensive config must be the fastest (otherwise it would have
  // been pruned as a duplicate of a cheaper one).
  EXPECT_LT(configs.back().cycles, configs.front().cycles);
  // cpuCycles is the profiled region time, identical across configs.
  for (const auto& config : configs) {
    EXPECT_DOUBLE_EQ(config.cpuCycles, p.profile.cycles(loop));
  }
}

TEST(ModelTest, PipelinedConfigUsesDecoupledStreams) {
  Pipeline p(testing::linearKernel());
  const analysis::Region* loop = loopRegionByHeader(p.wpst, "i.header");
  std::vector<AcceleratorConfig> configs = p.model.generate(loop);
  const AcceleratorConfig& fastest = configs.back();
  EXPECT_EQ(fastest.numPipelinedRegions, 1u);
  // x[i] and y[i] are streams in a pipelined loop -> decoupled or faster.
  EXPECT_EQ(fastest.numCoupled, 0u);
  EXPECT_GT(fastest.numDecoupled + fastest.numScratchpad, 0u);
}

TEST(ModelTest, NonCandidateRegionsGenerateNothing) {
  Pipeline p(testing::linearKernel());
  EXPECT_TRUE(p.model.generate(p.wpst.root()).empty());
  // Function vertices cannot be selected either (Algorithm 1's "otherwise").
  EXPECT_TRUE(p.model.generate(p.wpst.root()->children()[0].get()).empty());
}

TEST(ModelTest, ChainLoopNeverUnrolls) {
  Pipeline p(testing::chainKernel());
  const analysis::Region* loop = loopRegionByHeader(p.wpst, "i.header");
  ASSERT_NE(loop, nullptr);
  for (const AcceleratorConfig& config : p.model.generate(loop)) {
    for (const LoopConfig& lc : config.loops) {
      EXPECT_EQ(lc.unroll, 1u) << "cross-iteration dependence must block "
                                  "unrolling";
    }
  }
}

TEST(ModelTest, ReductionLoopUnrollsWithPartialSums) {
  Pipeline p(testing::dotRowsKernel());
  const analysis::Region* inner = loopRegionByHeader(p.wpst, "j.header");
  ASSERT_NE(inner, nullptr);
  bool sawUnrolled = false;
  for (const AcceleratorConfig& config : p.model.generate(inner)) {
    for (const LoopConfig& lc : config.loops) {
      if (lc.unroll > 1) sawUnrolled = true;
    }
  }
  EXPECT_TRUE(sawUnrolled)
      << "z[i] accumulation should unroll via partial sums";
}

TEST(ModelTest, InvariantAccessGetsPromoted) {
  Pipeline p(testing::dotRowsKernel());
  const analysis::Region* inner = loopRegionByHeader(p.wpst, "j.header");
  std::vector<AcceleratorConfig> configs = p.model.generate(inner);
  const AcceleratorConfig& fastest = configs.back();
  const analysis::FunctionAnalyses& ka =
      p.model.analysesFor(inner->function());
  int promoted = 0;
  for (const auto& [inst, iface] : fastest.ifaces) {
    if (!iface.promoted) continue;
    ++promoted;
    // Only the z accesses are loop-invariant in j.
    analysis::AddressInfo addr = ka.scev.addressOf(inst);
    ASSERT_TRUE(addr.valid);
    EXPECT_EQ(addr.base->name(), "z");
  }
  EXPECT_EQ(promoted, 2);  // ld z and st z
}

TEST(ModelTest, BetaRuleSelectsScratchpad) {
  // Access x[j] inside an outer repetition loop: per-entry count >> footprint.
  auto module = std::make_unique<ir::Module>("reuse");
  auto* x = module->addGlobal("x", ir::Type::f64(), 16);
  auto* y = module->addGlobal("y", ir::Type::f64(), 64 * 16);
  workloads::KernelBuilder kb(module.get());
  kb.beginFunction("main");
  ir::Value* r = kb.beginLoop(0, 64, "rep");
  ir::Value* j = kb.beginLoop(0, 16, "j");
  kb.storeAt(y, kb.idx2(r, j, 16), kb.ir().fmul(kb.loadAt(x, j),
                                                kb.ir().f64(2.0)));
  kb.endLoop();
  kb.endLoop();
  kb.endFunction();
  ir::verifyOrThrow(*module);

  Pipeline p(std::move(module));
  const analysis::Region* outer = loopRegionByHeader(p.wpst, "rep.header");
  ASSERT_NE(outer, nullptr);
  std::vector<AcceleratorConfig> configs = p.model.generate(outer);
  const analysis::FunctionAnalyses& ka =
      p.model.analysesFor(outer->function());
  bool xScratch = false;
  for (const auto& [inst, iface] : configs.back().ifaces) {
    analysis::AddressInfo addr = ka.scev.addressOf(inst);
    if (addr.valid && addr.base->name() == "x" &&
        iface.kind == hls::IfaceKind::Scratchpad) {
      xScratch = true;
      EXPECT_EQ(iface.footprintBytes, 16u * 8u);
    }
  }
  EXPECT_TRUE(xScratch) << "x is re-read 64x per entry; beta rule must cache";
}

TEST(ModelTest, CoupledOnlyAblationForbidsFastInterfaces) {
  ModelParams params;
  params.allowDecoupled = false;
  params.allowScratchpad = false;
  Pipeline p(testing::linearKernel(), params);
  const analysis::Region* loop = loopRegionByHeader(p.wpst, "i.header");
  for (const AcceleratorConfig& config : p.model.generate(loop)) {
    EXPECT_EQ(config.numDecoupled, 0u);
    EXPECT_EQ(config.numScratchpad, 0u);
  }
}

TEST(ModelTest, CoupledOnlyIsSlowerThanFull) {
  ModelParams coupledOnly;
  coupledOnly.allowDecoupled = false;
  coupledOnly.allowScratchpad = false;
  Pipeline full(testing::linearKernel());
  Pipeline restricted(testing::linearKernel(), coupledOnly);
  const analysis::Region* fullLoop =
      loopRegionByHeader(full.wpst, "i.header");
  const analysis::Region* restrictedLoop =
      loopRegionByHeader(restricted.wpst, "i.header");
  double fullBest = full.model.generate(fullLoop).back().cycles;
  double restrictedBest =
      restricted.model.generate(restrictedLoop).back().cycles;
  EXPECT_LT(fullBest, restrictedBest);
}

TEST(ModelTest, SequentialRestrictionMatchesQsCoresShape) {
  ModelParams params;
  params.allowPipelining = false;
  params.allowUnrolling = false;
  Pipeline p(testing::linearKernel(), params);
  const analysis::Region* loop = loopRegionByHeader(p.wpst, "i.header");
  for (const AcceleratorConfig& config : p.model.generate(loop)) {
    EXPECT_EQ(config.numPipelinedRegions, 0u);
  }
}

TEST(ModelTest, TripCountsFallBackToProfile) {
  Pipeline p(testing::dotRowsKernel(12, 6));
  const analysis::FunctionAnalyses& fa =
      p.wpst.analyses(p.module->entryFunction());
  const analysis::Loop* outer = fa.loops.topLevelLoops()[0];
  const analysis::Loop* inner = outer->subLoops()[0];
  EXPECT_NEAR(p.model.tripCount(outer), 12.0, 1e-9);
  EXPECT_NEAR(p.model.tripCount(inner), 6.0, 1e-9);
}

TEST(ModelTest, EstimateIsDeterministic) {
  Pipeline p(testing::dotRowsKernel());
  const analysis::Region* inner = loopRegionByHeader(p.wpst, "j.header");
  std::vector<AcceleratorConfig> once = p.model.generate(inner);
  std::vector<AcceleratorConfig> twice = p.model.generate(inner);
  ASSERT_EQ(once.size(), twice.size());
  for (size_t i = 0; i < once.size(); ++i) {
    EXPECT_DOUBLE_EQ(once[i].cycles, twice[i].cycles);
    EXPECT_DOUBLE_EQ(once[i].areaUm2, twice[i].areaUm2);
  }
}

// h -> b -> {l1, l2} -> h: two back edges into one header. Like LLVM, the
// loop analysis builds one loop holding both bodies, with no single latch;
// everything that needs one latch treats it as non-canonical.
constexpr const char* kMultiLatch = R"(module "multilatch" {
global @out : i64[1]

func @main() -> i64 {
entry:
  br h
h:
  %i = phi i64 [ 0, entry ], [ %i.a, l1 ], [ %i.b, l2 ]
  %s = phi i64 [ 0, entry ], [ %s.a, l1 ], [ %s.b, l2 ]
  %c = icmp lt i64 %i, 100
  condbr %c, b, exit
b:
  %bit = and i64 %i, 1
  %odd = icmp eq i64 %bit, 1
  condbr %odd, l1, l2
l1:
  %i.a = add i64 %i, 1
  %s.a = add i64 %s, %i
  br h
l2:
  %i.b = add i64 %i, 3
  %s.b = add i64 %s, 2
  br h
exit:
  %p = gep @out, 0, elem 8
  store i64 %s, %p
  ret i64 %s
}
}
)";

TEST(ModelTest, MultiLatchLoopIsOneNonCanonicalLoop) {
  Pipeline p(ir::parseModule(kMultiLatch));
  const ir::Function& f = *p.module->entryFunction();
  const analysis::FunctionAnalyses& fa = p.model.analysesFor(&f);
  ASSERT_EQ(fa.loops.loops().size(), 1u);
  const analysis::Loop& loop = *fa.loops.loops().front();
  EXPECT_EQ(loop.header(), f.blockByName("h"));
  EXPECT_EQ(loop.latch(), nullptr);
  std::vector<std::string> latches;
  for (const ir::BasicBlock* latch : loop.latches()) {
    latches.push_back(latch->name());
  }
  std::sort(latches.begin(), latches.end());
  EXPECT_EQ(latches, (std::vector<std::string>{"l1", "l2"}));

  // One loop region holding h b l1 l2.
  const analysis::Region* region = loopRegionByHeader(p.wpst, "h");
  ASSERT_NE(region, nullptr);
  EXPECT_EQ(region->loop(), &loop);
  std::vector<std::string> blocks;
  for (const ir::BasicBlock* block : region->blocks()) {
    blocks.push_back(block->name());
  }
  std::sort(blocks.begin(), blocks.end());
  EXPECT_EQ(blocks, (std::vector<std::string>{"b", "h", "l1", "l2"}));
  int loopRegions = 0;
  p.wpst.root()->walk([&](const analysis::Region& r) {
    loopRegions += r.kind() == analysis::RegionKind::Loop;
  });
  EXPECT_EQ(loopRegions, 1);

  // No canonical IV, so no static trip count, and no scalar recurrence
  // through a latch; the profile counts both back edges (25 + 25).
  EXPECT_FALSE(fa.scev.tripCount(&loop).known);
  for (const analysis::LoopCarriedDep& dep : fa.mem.carriedDeps(&loop)) {
    EXPECT_NE(dep.kind, analysis::LoopCarriedDep::Kind::Scalar);
  }
  EXPECT_DOUBLE_EQ(p.profile.avgTripCount(&loop), 50.0);
  EXPECT_FALSE(p.model.isPipelineable(region));
  for (const AcceleratorConfig& config : p.model.generate(region)) {
    EXPECT_EQ(config.numPipelinedRegions, 0u);
  }
}

class BetaSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(BetaSweepTest, ScratchpadCountMonotoneInBeta) {
  // Property: raising beta can only reduce the number of scratchpad
  // interfaces (the rule becomes stricter).
  double beta = GetParam();
  ModelParams loose;
  loose.beta = beta;
  ModelParams strict;
  strict.beta = beta * 4.0;
  Pipeline pLoose(testing::dotRowsKernel(), loose);
  Pipeline pStrict(testing::dotRowsKernel(), strict);
  const analysis::Region* a = loopRegionByHeader(pLoose.wpst, "i.header");
  const analysis::Region* b = loopRegionByHeader(pStrict.wpst, "i.header");
  unsigned looseCount = pLoose.model.generate(a).back().numScratchpad;
  unsigned strictCount = pStrict.model.generate(b).back().numScratchpad;
  EXPECT_GE(looseCount, strictCount);
}

INSTANTIATE_TEST_SUITE_P(Betas, BetaSweepTest,
                         ::testing::Values(1.0, 2.0, 4.0, 8.0));

}  // namespace
}  // namespace cayman::accel
