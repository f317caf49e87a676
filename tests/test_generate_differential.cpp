// Differential tests pinning the model's roofline-guided generate() to the
// exhaustive enumeration oracle (tests/oracles/generate.h): bit-exact
// selected fronts over all 28 registered workloads across budgets, on the
// Cayman model and on the QsCores baseline's restricted model, a
// pruning-ratio guardrail on the estimate()/scheduleBlock() counts, and a
// seeded randomized test that the guided walk never keeps a config the
// enumeration scores strictly better at equal-or-smaller area. Guided is only
// allowed to be cheaper — never different where it counts.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "cayman/framework.h"
#include "oracles/generate.h"
#include "oracles/select.h"
#include "test_kernels.h"
#include "workloads/workloads.h"

namespace cayman {
namespace {

/// The oracle's selected front: the reference DP over the enumeration's
/// candidate lists. The reference DP reproduces the frontier DP bit for bit
/// on equal lists (test_select_differential), so any difference against
/// the production front is the generator's.
std::vector<select::Solution> referenceFront(
    const accel::AcceleratorModel& model, const select::SelectorParams& params,
    oracles::ReferenceGenerator& generator) {
  oracles::ReferenceSelector selector(
      model, params,
      [&generator](const analysis::Region* region)
          -> const std::vector<accel::AcceleratorConfig>& {
        return generator.generate(region);
      });
  select::SelectStats stats;
  return selector.select(stats);
}

void expectSameFront(const std::vector<select::Solution>& guided,
                     const std::vector<select::Solution>& reference,
                     const std::string& context) {
  ASSERT_EQ(guided.size(), reference.size()) << context;
  for (size_t i = 0; i < guided.size(); ++i) {
    const std::string where = context + " index " + std::to_string(i);
    EXPECT_EQ(guided[i].areaUm2, reference[i].areaUm2) << where;
    EXPECT_EQ(guided[i].accelCycles, reference[i].accelCycles) << where;
    EXPECT_EQ(guided[i].cpuCycles, reference[i].cpuCycles) << where;
    EXPECT_TRUE(guided[i].accelerators == reference[i].accelerators) << where;
  }
}

// Every workload, both models, several budgets: the selected fronts must
// agree bit for bit while guided generation spends measurably fewer model
// calls than the enumeration.
TEST(GenerateDifferentialTest, GuidedReproducesReferenceFrontsOnAllWorkloads) {
  uint64_t guidedWork = 0;
  uint64_t referenceWork = 0;
  uint64_t guidedSched = 0;
  uint64_t referenceSched = 0;
  for (const workloads::WorkloadInfo& info : workloads::all()) {
    Framework fw(info.build());
    oracles::ReferenceGenerator cayman(fw.model());
    oracles::ReferenceGenerator qscores(fw.qscores().model());
    const double ratio = fw.options().clockRatio();

    for (double budgetRatio : {0.05, 0.25, 0.65}) {
      const std::string context =
          info.name + " budget " + std::to_string(budgetRatio);
      select::SelectorParams params;
      params.areaBudgetUm2 = fw.budgetUm2(budgetRatio);
      params.alpha = fw.options().alpha;
      params.pruneHotFraction = fw.options().pruneHotFraction;
      params.clockRatio = ratio;
      expectSameFront(fw.explore(budgetRatio),
                      referenceFront(fw.model(), params, cayman),
                      context + " cayman");

      select::SelectorParams qsParams;
      qsParams.areaBudgetUm2 = params.areaBudgetUm2;
      qsParams.clockRatio = ratio;
      expectSameFront(
          fw.qscores().paretoFront(qsParams.areaBudgetUm2, ratio),
          referenceFront(fw.qscores().model(), qsParams, qscores),
          context + " qscores");
    }

    guidedWork +=
        fw.model().estimateCalls() + fw.model().scheduleBlockCalls();
    referenceWork += cayman.estimateCalls() + cayman.scheduleBlockCalls();
    guidedSched += fw.model().scheduleBlockCalls();
    referenceSched += cayman.scheduleBlockCalls();
  }

  // Pruning guardrail over the Cayman model's sweep. estimate() has a
  // structural floor — every per-region Pareto member (baselines included)
  // is scored exactly once by both — so the enforced bounds sit on the
  // combined call count and on the scheduler specifically, where the guided
  // schedule cache collapses repeated (block, width, interface-signature)
  // requests. See DESIGN.md §12 for the measured ratios these thresholds
  // guard.
  EXPECT_GT(referenceWork, 0u);
  EXPECT_LE(guidedWork * 100, referenceWork * 50)
      << "guided " << guidedWork << " vs reference " << referenceWork;
  EXPECT_LE(guidedSched * 100, referenceSched * 35)
      << "guided " << guidedSched << " vs reference " << referenceSched;
  std::printf("pruning: combined %llu / %llu = %.3f, scheduler %llu / %llu "
              "= %.3f\n",
              static_cast<unsigned long long>(guidedWork),
              static_cast<unsigned long long>(referenceWork),
              static_cast<double>(guidedWork) / referenceWork,
              static_cast<unsigned long long>(guidedSched),
              static_cast<unsigned long long>(referenceSched),
              static_cast<double>(guidedSched) / referenceSched);
}

// ---------------------------------------------------------------------------
// Seeded randomized guardrail property: across random kernels and model
// parameter draws, guided generate() never keeps a config the enumeration
// oracle scores strictly better at equal-or-smaller area — i.e. the
// admission filter and branch-and-bound walk only ever discard dominated
// points, and the kept list is Pareto-complete w.r.t. the full enumeration.
// ---------------------------------------------------------------------------

struct Lcg {
  uint64_t state;
  explicit Lcg(uint64_t seed) : state(seed) {}
  uint64_t next() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  }
};

struct Pipeline {
  Pipeline(std::unique_ptr<ir::Module> m, accel::ModelParams params)
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
  accel::AcceleratorModel model;
};

/// Deterministic kernel recipe, drawn once per trial.
struct KernelRecipe {
  unsigned kind = 0;
  int64_t n = 0;
  int64_t m = 0;

  static KernelRecipe draw(Lcg& rng) {
    KernelRecipe recipe;
    recipe.kind = static_cast<unsigned>(rng.next() % 3);
    recipe.n = static_cast<int64_t>(rng.next() % 96 + 4);
    recipe.m = static_cast<int64_t>(rng.next() % 24 + 2);
    return recipe;
  }

  std::unique_ptr<ir::Module> build() const {
    switch (kind) {
      case 0: return testing::linearKernel(n);
      case 1: return testing::dotRowsKernel(n % 12 + 2, m);
      default: return testing::chainKernel(n);
    }
  }
};

TEST(GenerateDifferentialTest, GuidedNeverKeepsStrictlyDominatedConfigs) {
  Lcg rng(0xCA17A5u);
  for (int trial = 0; trial < 24; ++trial) {
    accel::ModelParams params;
    params.beta = static_cast<double>(rng.next() % 8 + 1);
    params.clockNs = (rng.next() % 2 == 0) ? 2.0 : 4.0;
    params.allowDecoupled = rng.next() % 4 != 0;
    params.allowScratchpad = rng.next() % 4 != 0;
    params.unknownTripFallback = rng.next() % 32 + 2;
    KernelRecipe recipe = KernelRecipe::draw(rng);

    Pipeline p(recipe.build(), params);
    oracles::ReferenceGenerator reference(p.model);

    for (size_t i = 0; i < p.wpst.allRegions().size(); ++i) {
      const analysis::Region* region = p.wpst.allRegions()[i];
      const std::vector<accel::AcceleratorConfig>& gc =
          p.model.generate(region);
      const std::vector<accel::AcceleratorConfig>& rc =
          reference.generate(region);
      std::string context = "trial " + std::to_string(trial) + " region " +
                            std::to_string(i);
      // Guided only ever produces a subset of the enumeration's scores, so
      // it can never be cheaper than the oracle's Pareto floor.
      EXPECT_LE(gc.size(), rc.size()) << context;
      for (const accel::AcceleratorConfig& g : gc) {
        for (const accel::AcceleratorConfig& r : rc) {
          EXPECT_FALSE(r.areaUm2 <= g.areaUm2 && r.cycles < g.cycles)
              << context << ": reference config (area " << r.areaUm2
              << ", cycles " << r.cycles << ") strictly beats kept guided"
              << " config (area " << g.areaUm2 << ", cycles " << g.cycles
              << ")";
        }
      }
      // And the converse completeness: every reference config is matched or
      // beaten by some kept guided config at equal-or-smaller area.
      for (const accel::AcceleratorConfig& r : rc) {
        bool covered = false;
        for (const accel::AcceleratorConfig& g : gc) {
          covered |= g.areaUm2 <= r.areaUm2 && g.cycles <= r.cycles;
        }
        EXPECT_TRUE(covered)
            << context << ": reference config (area " << r.areaUm2
            << ", cycles " << r.cycles << ") not covered by guided list";
      }
    }
  }
}

// The ablation that unrolls without pipelining skips the roofline walk and
// estimates every ladder point, so generate() keeps exactly the
// enumeration's configs that no other config strictly dominates.
TEST(GenerateDifferentialTest, UnrollingWithoutPipeliningKeepsTheLadder) {
  accel::ModelParams params;
  params.allowPipelining = false;
  using Build = std::unique_ptr<ir::Module> (*)();
  size_t ladders = 0;  // regions with more than one distinct config
  for (Build build : {Build{[] { return testing::linearKernel(); }},
                      Build{[] { return testing::dotRowsKernel(8, 12); }},
                      Build{[] { return testing::chainKernel(); }}}) {
    Pipeline p(build(), params);
    oracles::ReferenceGenerator reference(p.model);
    for (const analysis::Region* region : p.wpst.allRegions()) {
      const std::vector<accel::AcceleratorConfig>& all =
          reference.generate(region);
      std::vector<accel::AcceleratorConfig> kept;
      for (const accel::AcceleratorConfig& c : all) {
        bool dominated = false;
        for (const accel::AcceleratorConfig& d : all) {
          dominated |= d.areaUm2 <= c.areaUm2 && d.cycles < c.cycles;
        }
        if (!dominated) kept.push_back(c);
      }
      EXPECT_TRUE(p.model.generate(region) == kept) << region->label();
      ladders += all.size() > 1;
    }
  }
  EXPECT_GT(ladders, 0u);
}

// ---------------------------------------------------------------------------
// Cooperative cancellation inside the model: an expired token aborts both
// the lazy generate() path and the eager cache warm-up instead of letting a
// pathological region run past its deadline.
// ---------------------------------------------------------------------------

TEST(GenerateCancellationTest, ExpiredTokenAbortsGeneration) {
  support::CancelToken token;
  accel::ModelParams params;
  params.cancel = &token;
  Pipeline p(testing::linearKernel(), params);

  token.cancel();
  ASSERT_FALSE(p.wpst.allRegions().empty());
  EXPECT_THROW(p.model.generate(p.wpst.allRegions().front()),
               support::CancelledError);
  EXPECT_THROW(p.model.warmGenerateCache(), support::CancelledError);
}

TEST(GenerateCancellationTest, CancelledGenerationIsRetried) {
  // A cancelled generation must not be cached: once the token is disarmed,
  // the same region generates in full, exactly as on a fresh model.
  Pipeline fresh(testing::linearKernel(), accel::ModelParams{});
  size_t index = 0;  // the first region with candidates
  while (index < fresh.wpst.allRegions().size() &&
         fresh.model.generate(fresh.wpst.allRegions()[index]).empty()) {
    ++index;
  }
  ASSERT_LT(index, fresh.wpst.allRegions().size());
  const std::vector<accel::AcceleratorConfig>& expected =
      fresh.model.generate(fresh.wpst.allRegions()[index]);

  support::CancelToken token;
  token.setTimeout(1e-9);
  while (!token.expired()) {
  }
  accel::ModelParams params;
  params.cancel = &token;
  Pipeline p(testing::linearKernel(), params);
  const analysis::Region* region = p.wpst.allRegions()[index];
  EXPECT_THROW(p.model.generate(region), support::CancelledError);

  token.setTimeout(0);
  const std::vector<accel::AcceleratorConfig>& retried =
      p.model.generate(region);
  ASSERT_EQ(retried.size(), expected.size());
  for (size_t i = 0; i < retried.size(); ++i) {
    EXPECT_EQ(retried[i].cycles, expected[i].cycles) << "config " << i;
    EXPECT_EQ(retried[i].areaUm2, expected[i].areaUm2) << "config " << i;
  }
  EXPECT_EQ(p.model.candidatesTotal(), fresh.model.candidatesTotal());
}

}  // namespace
}  // namespace cayman
