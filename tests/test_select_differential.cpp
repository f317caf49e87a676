// Differential tests pinning the frontier DP (CandidateSelector) to the
// Solution-vector reference oracle (tests/oracles/select.h): bit-exact
// front equivalence over all 28 registered workloads across budgets and
// alphas, plus seeded randomized-front combine equivalence. The frontier DP
// is only allowed to be faster — never different.
#include <gtest/gtest.h>

#include "cayman/framework.h"
#include "oracles/select.h"
#include "workloads/workloads.h"

namespace cayman::select {
namespace {

using oracles::ReferenceSelector;

constexpr double kRatio = 1.25;

void expectBitExact(const Solution& a, const Solution& b,
                    const std::string& context) {
  EXPECT_EQ(a.areaUm2, b.areaUm2) << context;
  EXPECT_EQ(a.accelCycles, b.accelCycles) << context;
  EXPECT_EQ(a.cpuCycles, b.cpuCycles) << context;
  ASSERT_EQ(a.accelerators.size(), b.accelerators.size()) << context;
  for (size_t k = 0; k < a.accelerators.size(); ++k) {
    EXPECT_TRUE(a.accelerators[k] == b.accelerators[k])
        << context << " accelerator " << k;
  }
}

void expectSameStats(const SelectStats& a,
                     const SelectStats& b,
                     const std::string& context) {
  EXPECT_EQ(a.regionsVisited, b.regionsVisited) << context;
  EXPECT_EQ(a.regionsPruned, b.regionsPruned) << context;
  EXPECT_EQ(a.configsGenerated, b.configsGenerated) << context;
  EXPECT_EQ(a.combinePairs, b.combinePairs) << context;
  EXPECT_EQ(a.singleConfigSolutions, b.singleConfigSolutions) << context;
  EXPECT_EQ(a.frontPeak, b.frontPeak) << context;
  EXPECT_EQ(a.budgetBound, b.budgetBound) << context;
  EXPECT_EQ(a.maxAdmittedAreaUm2, b.maxAdmittedAreaUm2) << context;
}

// Every workload, several budgets, several alphas: the full Algorithm 1
// output (front, solution contents, stats) must agree bit for bit.
TEST(SelectDifferentialTest, FrontierMatchesReferenceOnAllWorkloads) {
  for (const workloads::WorkloadInfo& info : workloads::all()) {
    Framework fw(info.build());
    for (double budgetRatio : {0.05, 0.25, 0.65}) {
      for (double alpha : {1.02, 1.12, 1.5}) {
        SelectorParams params;
        params.areaBudgetUm2 = fw.budgetUm2(budgetRatio);
        params.alpha = alpha;
        params.clockRatio = fw.options().clockRatio();
        std::string context = info.name + " budget " +
                              std::to_string(budgetRatio) + " alpha " +
                              std::to_string(alpha);

        CandidateSelector frontier(fw.model(), params);
        SelectStats frontierStats;
        std::vector<Solution> frontierFront = frontier.select(frontierStats);

        ReferenceSelector reference(fw.model(), params);
        SelectStats referenceStats;
        std::vector<Solution> referenceFront =
            reference.select(referenceStats);

        ASSERT_EQ(frontierFront.size(), referenceFront.size()) << context;
        for (size_t i = 0; i < frontierFront.size(); ++i) {
          expectBitExact(frontierFront[i], referenceFront[i],
                         context + " index " + std::to_string(i));
        }
        expectSameStats(frontierStats, referenceStats, context);

        Solution frontierBest = frontier.best(frontierStats);
        Solution referenceBest = reference.best(referenceStats);
        expectBitExact(frontierBest, referenceBest, context + " best");
      }
    }
  }
}

/// Runs select() and best() in the frontier DP and the oracle on `model` and
/// demands the fronts, the winners and every Stats field agree bit for bit.
/// A run the
/// budget does not bind must also equal the run at an unbounded budget, in
/// winner and largest admitted area: the selection memo serves it there.
/// Such runs are counted into `rejectionFree`.
void expectEnginesAgree(const accel::AcceleratorModel& model,
                        SelectorParams params, const std::string& context,
                        int& rejectionFree) {
  CandidateSelector frontier(model, params);
  ReferenceSelector reference(model, params);

  SelectStats frontierStats;
  SelectStats referenceStats;
  std::vector<Solution> frontierFront = frontier.select(frontierStats);
  std::vector<Solution> referenceFront = reference.select(referenceStats);
  ASSERT_EQ(frontierFront.size(), referenceFront.size()) << context;
  for (size_t i = 0; i < frontierFront.size(); ++i) {
    expectBitExact(frontierFront[i], referenceFront[i],
                   context + " index " + std::to_string(i));
  }
  expectSameStats(frontierStats, referenceStats, context);

  Solution frontierBest = frontier.best(frontierStats);
  Solution referenceBest = reference.best(referenceStats);
  expectBitExact(frontierBest, referenceBest, context + " best");
  expectSameStats(frontierStats, referenceStats, context + " best");

  if (frontierStats.budgetBound) return;
  ++rejectionFree;
  EXPECT_LE(frontierStats.maxAdmittedAreaUm2, params.areaBudgetUm2) << context;
  SelectorParams unbounded = params;
  unbounded.areaBudgetUm2 = 1e30;
  auto expectUnbounded = [&](const auto& selector, const std::string& where) {
    SelectStats unboundedStats;
    Solution unboundedBest = selector.best(unboundedStats);
    expectBitExact(unboundedBest, frontierBest, where);
    EXPECT_FALSE(unboundedStats.budgetBound) << where;
    EXPECT_EQ(unboundedStats.maxAdmittedAreaUm2,
              frontierStats.maxAdmittedAreaUm2)
        << where;
  };
  expectUnbounded(CandidateSelector(model, unbounded),
                  context + " unbounded frontier");
  expectUnbounded(ReferenceSelector(model, unbounded),
                  context + " unbounded reference");
}

// A design-space explorer's budget grid — twelve points over [0.02, 1.0],
// where the small budgets prune hardest and most ⊗ operands collapse to the
// one-entry {∅} front — for the Cayman model and the QsCores baseline's
// restricted model, which runs the same selector.
TEST(SelectDifferentialTest, FrontierMatchesReferenceOnBudgetGrid) {
  int caymanRejectionFree = 0;
  int qscoresRejectionFree = 0;
  for (const workloads::WorkloadInfo& info : workloads::all()) {
    Framework fw(info.build());
    for (int step = 0; step < 12; ++step) {
      const double budgetRatio = 0.02 + 0.98 * step / 11.0;
      SelectorParams params;
      params.areaBudgetUm2 = fw.budgetUm2(budgetRatio);
      params.alpha = 1.12;
      params.clockRatio = fw.options().clockRatio();
      const std::string context =
          info.name + " budget " + std::to_string(budgetRatio);
      expectEnginesAgree(fw.model(), params, context + " cayman",
                         caymanRejectionFree);
      expectEnginesAgree(fw.qscores().model(), params, context + " qscores",
                         qscoresRejectionFree);
    }
  }
  // The grid exercises the unbounded comparison on both models.
  EXPECT_GT(caymanRejectionFree, 0);
  EXPECT_GT(qscoresRejectionFree, 0);
}

/// best()'s contract spelled out over select()'s front: the first element
/// whose savedCycles is a strict maximum above 0, else the empty solution.
Solution bestOfFront(const std::vector<Solution>& front, double clockRatio) {
  Solution best;
  double bestSaved = 0.0;
  for (const Solution& s : front) {
    double saved = s.savedCycles(clockRatio);
    if (saved > bestSaved) {
      bestSaved = saved;
      best = s;
    }
  }
  return best;
}

// best() picks its winner before materializing anything; it must still be
// value-equal to the best element of the fully materialized select() front,
// with the same DP stats, for the Cayman selector and for the QsCores
// baseline's best() vs paretoFront(). (The oracle's best() is defined as
// that pick.)
TEST(SelectDifferentialTest, BestIsBestOfSelectOnAllWorkloads) {
  for (const workloads::WorkloadInfo& info : workloads::all()) {
    Framework fw(info.build());
    const double ratio = fw.options().clockRatio();
    for (double budgetRatio : {0.05, 0.25, 0.65}) {
      std::string context =
          info.name + " budget " + std::to_string(budgetRatio);
      SelectorParams params;
      params.areaBudgetUm2 = fw.budgetUm2(budgetRatio);
      params.clockRatio = ratio;
      CandidateSelector selector(fw.model(), params);
      SelectStats selectStats;
      SelectStats bestStats;
      Solution expected = bestOfFront(selector.select(selectStats), ratio);
      Solution best = selector.best(bestStats);
      expectBitExact(best, expected, context);
      expectSameStats(bestStats, selectStats, context);

      const double budgetUm2 = fw.budgetUm2(budgetRatio);
      expectBitExact(
          fw.qscores().best(budgetUm2, ratio),
          bestOfFront(fw.qscores().paretoFront(budgetUm2, ratio), ratio),
          context + " qscores");
    }
  }
}

// A budget nothing fits under leaves only the empty solution, which saves
// no cycles: best() returns the empty solution rather than any front entry.
TEST(SelectDifferentialTest, BestIsEmptyWhenNothingSavesCycles) {
  Framework fw(workloads::build("atax"));
  const double ratio = fw.options().clockRatio();
  SelectorParams params;
  params.areaBudgetUm2 = 1.0;  // um^2: below any accelerator's area
  params.clockRatio = ratio;
  auto expectEmptyBest = [&](const auto& selector) {
    SelectStats stats;
    std::vector<Solution> front = selector.select(stats);
    ASSERT_FALSE(front.empty());
    for (const Solution& s : front) EXPECT_LE(s.savedCycles(ratio), 0.0);
    Solution best = selector.best(stats);
    EXPECT_TRUE(best.empty());
    expectBitExact(best, Solution{}, "empty best");
  };
  expectEmptyBest(CandidateSelector(fw.model(), params));
  expectEmptyBest(ReferenceSelector(fw.model(), params));
  Solution qsBest = fw.qscores().best(1.0, ratio);
  EXPECT_TRUE(qsBest.empty());
}

// --------------------------------------------------------------------------
// Randomized-front ⊗ equivalence (seeded LCG, no wall-clock or libc rand).
// --------------------------------------------------------------------------

struct Lcg {
  uint64_t state;
  explicit Lcg(uint64_t seed) : state(seed) {}
  uint64_t next() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  }
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(next() % 100000) / 100000.0;
  }
};

std::vector<accel::AcceleratorConfig> randomConfigs(Lcg& rng, size_t count) {
  std::vector<accel::AcceleratorConfig> configs(count);
  for (accel::AcceleratorConfig& config : configs) {
    config.areaUm2 = rng.uniform(1.0, 500.0);
    config.cpuCycles = rng.uniform(0.0, 2000.0);
    config.cycles = rng.uniform(0.0, 1500.0);
  }
  return configs;
}

/// Builds the two representations of the same front from shared configs:
/// pareto over single-config solutions, with some adjacent pairs pre-merged
/// so multi-config solutions flow through the combine too.
struct TwinFronts {
  TwinFronts(const std::vector<accel::AcceleratorConfig>& configs,
             SolutionArena& arena) {
    std::vector<Solution> rawSolutions{Solution{}};
    std::vector<FrontierEntry> rawEntries{FrontierEntry{}};
    for (size_t i = 0; i < configs.size(); ++i) {
      Solution s = Solution::fromConfig(configs[i]);
      FrontierEntry e = entryFromConfig(configs[i], kRatio, arena);
      if (i + 1 < configs.size() && i % 3 == 0) {
        s = Solution::merge(s, Solution::fromConfig(configs[i + 1]));
        e = mergeEntries(e, entryFromConfig(configs[i + 1], kRatio, arena),
                         kRatio, arena);
        ++i;
      }
      rawSolutions.push_back(std::move(s));
      rawEntries.push_back(e);
    }
    solutions = oracles::pareto(std::move(rawSolutions), kRatio);
    entries = pareto(std::move(rawEntries));
  }

  std::vector<Solution> solutions;
  std::vector<FrontierEntry> entries;
};

TEST(SelectDifferentialTest, RandomizedCombineEquivalence) {
  for (uint64_t seed : {2ULL, 13ULL, 101ULL, 7777ULL, 123456ULL}) {
    Lcg rng(seed);
    std::vector<accel::AcceleratorConfig> configsA = randomConfigs(rng, 60);
    std::vector<accel::AcceleratorConfig> configsB = randomConfigs(rng, 60);
    SolutionArena arena;
    TwinFronts a(configsA, arena);
    TwinFronts b(configsB, arena);
    ASSERT_EQ(a.solutions.size(), a.entries.size());
    ASSERT_EQ(b.solutions.size(), b.entries.size());

    for (double budget : {150.0, 600.0, 1e9}) {
      SelectStats solutionPairs;
      SelectStats entryPairs;
      std::vector<Solution> sCombined = oracles::combine(
          a.solutions, b.solutions, budget, kRatio, &solutionPairs);
      std::vector<FrontierEntry> eCombined = combine(
          a.entries, b.entries, budget, kRatio, arena, &entryPairs);
      std::string context = "seed " + std::to_string(seed) + " budget " +
                            std::to_string(budget);
      // The early budget break-out must admit exactly the pairs the
      // reference's per-pair filter admits, and see the same rejections.
      EXPECT_EQ(solutionPairs.combinePairs, entryPairs.combinePairs)
          << context;
      EXPECT_EQ(solutionPairs.budgetBound, entryPairs.budgetBound) << context;
      EXPECT_EQ(solutionPairs.maxAdmittedAreaUm2,
                entryPairs.maxAdmittedAreaUm2)
          << context;
      ASSERT_EQ(sCombined.size(), eCombined.size()) << context;
      for (size_t i = 0; i < sCombined.size(); ++i) {
        Solution materialized = materialize(eCombined[i], arena);
        EXPECT_EQ(sCombined[i].areaUm2, eCombined[i].areaUm2) << context;
        EXPECT_EQ(sCombined[i].savedCycles(kRatio), eCombined[i].savedCycles)
            << context;
        expectBitExact(sCombined[i], materialized,
                       context + " index " + std::to_string(i));
      }
    }
  }
}

}  // namespace
}  // namespace cayman::select
