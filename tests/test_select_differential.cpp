// Differential tests pinning SelectMode::Frontier to the
// SelectMode::Reference oracle: bit-exact front equivalence over all 28
// registered workloads across budgets and alphas, plus seeded
// randomized-front combine equivalence. The frontier DP is only allowed to
// be faster — never different.
#include <gtest/gtest.h>

#include "cayman/framework.h"
#include "workloads/workloads.h"

namespace cayman::select {
namespace {

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

void expectSameStats(const CandidateSelector::Stats& a,
                     const CandidateSelector::Stats& b,
                     const std::string& context) {
  EXPECT_EQ(a.regionsVisited, b.regionsVisited) << context;
  EXPECT_EQ(a.regionsPruned, b.regionsPruned) << context;
  EXPECT_EQ(a.configsGenerated, b.configsGenerated) << context;
  EXPECT_EQ(a.combinePairs, b.combinePairs) << context;
  EXPECT_EQ(a.singleConfigSolutions, b.singleConfigSolutions) << context;
  EXPECT_EQ(a.frontPeak, b.frontPeak) << context;
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

        params.mode = SelectMode::Frontier;
        CandidateSelector frontier(fw.model(), params);
        CandidateSelector::Stats frontierStats;
        std::vector<Solution> frontierFront = frontier.select(frontierStats);

        params.mode = SelectMode::Reference;
        CandidateSelector reference(fw.model(), params);
        CandidateSelector::Stats referenceStats;
        std::vector<Solution> referenceFront =
            reference.select(referenceStats);

        ASSERT_EQ(frontierFront.size(), referenceFront.size()) << context;
        for (size_t i = 0; i < frontierFront.size(); ++i) {
          expectBitExact(frontierFront[i], referenceFront[i],
                         context + " index " + std::to_string(i));
        }
        expectSameStats(frontierStats, referenceStats, context);

        params.mode = SelectMode::Frontier;
        Solution frontierBest =
            CandidateSelector(fw.model(), params).best(frontierStats);
        params.mode = SelectMode::Reference;
        Solution referenceBest =
            CandidateSelector(fw.model(), params).best(referenceStats);
        expectBitExact(frontierBest, referenceBest, context + " best");
      }
    }
  }
}

/// Runs select() and best() in both DP engines on `model` and demands the
/// fronts, the winners and every Stats field agree bit for bit.
void expectEnginesAgree(const accel::AcceleratorModel& model,
                        SelectorParams params, const std::string& context) {
  params.mode = SelectMode::Frontier;
  CandidateSelector frontier(model, params);
  params.mode = SelectMode::Reference;
  CandidateSelector reference(model, params);

  CandidateSelector::Stats frontierStats;
  CandidateSelector::Stats referenceStats;
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
}

// A design-space explorer's budget grid — twelve points over [0.02, 1.0],
// where the small budgets prune hardest and most ⊗ operands collapse to the
// one-entry {∅} front — for the Cayman model and the QsCores baseline's
// restricted model, which runs the same selector.
TEST(SelectDifferentialTest, FrontierMatchesReferenceOnBudgetGrid) {
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
      expectEnginesAgree(fw.model(), params, context + " cayman");
      expectEnginesAgree(fw.qscores().model(), params, context + " qscores");
    }
  }
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
// with the same DP stats, for the Cayman selector in both DP engines and for
// the QsCores baseline's best() vs paretoFront().
TEST(SelectDifferentialTest, BestIsBestOfSelectOnAllWorkloads) {
  for (const workloads::WorkloadInfo& info : workloads::all()) {
    Framework fw(info.build());
    const double ratio = fw.options().clockRatio();
    for (double budgetRatio : {0.05, 0.25, 0.65}) {
      std::string context =
          info.name + " budget " + std::to_string(budgetRatio);
      for (SelectMode mode : {SelectMode::Frontier, SelectMode::Reference}) {
        SelectorParams params;
        params.areaBudgetUm2 = fw.budgetUm2(budgetRatio);
        params.clockRatio = ratio;
        params.mode = mode;
        CandidateSelector selector(fw.model(), params);
        CandidateSelector::Stats selectStats;
        CandidateSelector::Stats bestStats;
        Solution expected = bestOfFront(selector.select(selectStats), ratio);
        Solution best = selector.best(bestStats);
        std::string where = context + (mode == SelectMode::Frontier
                                           ? " frontier"
                                           : " reference");
        expectBitExact(best, expected, where);
        expectSameStats(bestStats, selectStats, where);
      }

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
  for (SelectMode mode : {SelectMode::Frontier, SelectMode::Reference}) {
    SelectorParams params;
    params.areaBudgetUm2 = 1.0;  // um^2: below any accelerator's area
    params.clockRatio = ratio;
    params.mode = mode;
    CandidateSelector selector(fw.model(), params);
    CandidateSelector::Stats stats;
    std::vector<Solution> front = selector.select(stats);
    ASSERT_FALSE(front.empty());
    for (const Solution& s : front) EXPECT_LE(s.savedCycles(ratio), 0.0);
    Solution best = selector.best(stats);
    EXPECT_TRUE(best.empty());
    expectBitExact(best, Solution{}, "empty best");
  }
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
    solutions = pareto(std::move(rawSolutions), kRatio);
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
      uint64_t solutionPairs = 0;
      uint64_t entryPairs = 0;
      std::vector<Solution> sCombined = combine(
          a.solutions, b.solutions, budget, kRatio, &solutionPairs);
      std::vector<FrontierEntry> eCombined = combine(
          a.entries, b.entries, budget, kRatio, arena, &entryPairs);
      std::string context = "seed " + std::to_string(seed) + " budget " +
                            std::to_string(budget);
      // The early budget break-out must admit exactly the pairs the
      // reference's per-pair filter admits.
      EXPECT_EQ(solutionPairs, entryPairs) << context;
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
