// Tests for candidate selection: Pareto fronts, the α-filter, the ⊗
// combine, and Algorithm 1's DP over the wPST. The Solution-vector
// primitives are the reference oracle's (tests/oracles/select.h); the
// frontier DP's flat-front twins are checked against them.
#include <gtest/gtest.h>

#include <thread>

#include "oracles/select.h"
#include "select/selector.h"
#include "test_kernels.h"

namespace cayman::select {
namespace {

using oracles::combine;
using oracles::filterByAlpha;
using oracles::pareto;

constexpr double kRatio = 2.0;

Solution makeSolution(double area, double cpuCycles, double accelCycles) {
  Solution s;
  accel::AcceleratorConfig config;
  config.areaUm2 = area;
  config.cpuCycles = cpuCycles;
  config.cycles = accelCycles;
  s.accelerators.push_back(config);
  s.areaUm2 = area;
  s.cpuCycles = cpuCycles;
  s.accelCycles = accelCycles;
  return s;
}

TEST(SolutionTest, SpeedupMatchesEquationOne) {
  Solution s = makeSolution(100.0, 800.0, 100.0);
  // T_all=1000, T_cand=800, Cycle_cand/F in CPU cycles = 200.
  // Speedup = 1000 / (1000 - 800 + 200) = 2.5.
  EXPECT_DOUBLE_EQ(s.speedup(1000.0, kRatio), 2.5);
  EXPECT_DOUBLE_EQ(s.savedCycles(kRatio), 600.0);
  // Empty solution: no change.
  EXPECT_DOUBLE_EQ(Solution{}.speedup(1000.0, kRatio), 1.0);
}

TEST(SolutionTest, MergeAccumulates) {
  Solution a = makeSolution(10.0, 100.0, 20.0);
  Solution b = makeSolution(5.0, 50.0, 10.0);
  Solution m = Solution::merge(a, b);
  EXPECT_DOUBLE_EQ(m.areaUm2, 15.0);
  EXPECT_DOUBLE_EQ(m.cpuCycles, 150.0);
  EXPECT_DOUBLE_EQ(m.accelCycles, 30.0);
  EXPECT_EQ(m.accelerators.size(), 2u);
}

TEST(ParetoTest, DominatedSolutionsDropped) {
  std::vector<Solution> input;
  input.push_back(Solution{});                       // (0, 0)
  input.push_back(makeSolution(10, 100, 10));        // saved 80
  input.push_back(makeSolution(20, 100, 30));        // saved 40, dominated
  input.push_back(makeSolution(30, 300, 50));        // saved 200
  std::vector<Solution> front = pareto(input, kRatio);
  ASSERT_EQ(front.size(), 3u);
  EXPECT_TRUE(front[0].empty());
  EXPECT_DOUBLE_EQ(front[1].areaUm2, 10.0);
  EXPECT_DOUBLE_EQ(front[2].areaUm2, 30.0);
}

TEST(ParetoTest, NegativeGainSolutionsDropped) {
  std::vector<Solution> input;
  input.push_back(Solution{});
  input.push_back(makeSolution(10, 100, 200));  // accelerator slower than CPU
  std::vector<Solution> front = pareto(input, kRatio);
  ASSERT_EQ(front.size(), 1u);
  EXPECT_TRUE(front[0].empty());
}

TEST(ParetoTest, AreaTiesKeepBest) {
  std::vector<Solution> input;
  input.push_back(Solution{});
  input.push_back(makeSolution(10, 100, 40));  // saved 20
  input.push_back(makeSolution(10, 100, 10));  // saved 80 — same area, better
  std::vector<Solution> front = pareto(input, kRatio);
  ASSERT_EQ(front.size(), 2u);
  EXPECT_DOUBLE_EQ(front[1].savedCycles(kRatio), 80.0);
}

TEST(FilterTest, EnforcesAlphaSpacing) {
  // Areas 0, 10, 11, 12, 30, 100 with increasing saved cycles.
  std::vector<Solution> front;
  front.push_back(Solution{});
  double saved = 10.0;
  for (double area : {10.0, 11.0, 12.0, 30.0, 100.0}) {
    front.push_back(makeSolution(area, saved * 3, saved));
    saved *= 2.0;
  }
  std::vector<Solution> filtered = filterByAlpha(front, 1.5);
  // 0 kept; 10 kept (first after empty since 10 > 1.5*max(0,1)); 11,12
  // dropped (within 1.5x of 10); 30 kept; 100 kept (last always kept).
  ASSERT_EQ(filtered.size(), 4u);
  EXPECT_DOUBLE_EQ(filtered[1].areaUm2, 10.0);
  EXPECT_DOUBLE_EQ(filtered[2].areaUm2, 30.0);
  EXPECT_DOUBLE_EQ(filtered[3].areaUm2, 100.0);
}

TEST(FilterTest, KeepsEndpointsAlways) {
  std::vector<Solution> front;
  front.push_back(Solution{});
  front.push_back(makeSolution(1.0, 10, 1));
  front.push_back(makeSolution(1.01, 20, 1));
  std::vector<Solution> filtered = filterByAlpha(front, 4.0);
  ASSERT_GE(filtered.size(), 2u);
  EXPECT_TRUE(filtered.front().empty());
  EXPECT_DOUBLE_EQ(filtered.back().areaUm2, 1.01);
}

TEST(FilterTest, AlphaOneIsIdentity) {
  std::vector<Solution> front;
  front.push_back(Solution{});
  front.push_back(makeSolution(1.0, 10, 1));
  front.push_back(makeSolution(1.5, 20, 1));
  EXPECT_EQ(filterByAlpha(front, 1.0).size(), front.size());
}

TEST(FilterTest, SizeTwoOrFewerIsIdentity) {
  // The α-filter always keeps both endpoints, so fronts of size <= 2 pass
  // through untouched regardless of how aggressive the filter is.
  std::vector<Solution> empty;
  EXPECT_TRUE(filterByAlpha(empty, 8.0).empty());
  std::vector<Solution> one{makeSolution(5.0, 100, 10)};
  EXPECT_EQ(filterByAlpha(one, 8.0).size(), 1u);
  std::vector<Solution> two{Solution{}, makeSolution(5.0, 100, 10)};
  std::vector<Solution> kept = filterByAlpha(two, 8.0);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_TRUE(kept[0].empty());
  EXPECT_DOUBLE_EQ(kept[1].areaUm2, 5.0);
}

TEST(FilterTest, AlphaBelowOneIsIdentity) {
  std::vector<Solution> front;
  front.push_back(Solution{});
  front.push_back(makeSolution(1.0, 10, 1));
  front.push_back(makeSolution(1.5, 20, 1));
  front.push_back(makeSolution(2.0, 30, 1));
  EXPECT_EQ(filterByAlpha(front, 0.5).size(), front.size());
  EXPECT_EQ(filterByAlpha(front, 1.0).size(), front.size());
}

TEST(FilterTest, EqualAreaRunsCollapseToEndpoints) {
  // A run of equal-area interior solutions can never exceed α times the
  // previously kept area, so only the endpoints survive.
  std::vector<Solution> front;
  front.push_back(Solution{});
  for (int i = 0; i < 5; ++i) {
    front.push_back(makeSolution(10.0, 100 + 10 * i, 10));
  }
  std::vector<Solution> kept = filterByAlpha(front, 1.12);
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_TRUE(kept[0].empty());
  EXPECT_DOUBLE_EQ(kept[1].areaUm2, 10.0);  // first of the run
  EXPECT_DOUBLE_EQ(kept[2].areaUm2, 10.0);  // last always retained
  EXPECT_DOUBLE_EQ(kept[2].cpuCycles, 140.0);
}

TEST(FilterTest, FirstAndLastAlwaysRetained) {
  std::vector<Solution> front;
  front.push_back(makeSolution(2.0, 10, 1));
  front.push_back(makeSolution(2.1, 20, 1));
  front.push_back(makeSolution(2.2, 30, 1));
  front.push_back(makeSolution(2.3, 40, 1));
  std::vector<Solution> kept = filterByAlpha(front, 100.0);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_DOUBLE_EQ(kept.front().areaUm2, 2.0);
  EXPECT_DOUBLE_EQ(kept.back().areaUm2, 2.3);
}

TEST(CombineTest, CrossProductsRespectBudget) {
  std::vector<Solution> a{Solution{}, makeSolution(60, 500, 50)};
  std::vector<Solution> b{Solution{}, makeSolution(70, 600, 60)};
  // Budget 100: the 60+70 union exceeds it.
  std::vector<Solution> combined = combine(a, b, 100.0, kRatio);
  for (const Solution& s : combined) {
    EXPECT_LE(s.areaUm2, 100.0);
  }
  // Both singles survive: they are mutually non-dominated.
  ASSERT_EQ(combined.size(), 3u);
  // Budget 200: the union appears and dominates nothing out.
  combined = combine(a, b, 200.0, kRatio);
  ASSERT_EQ(combined.size(), 4u);
  EXPECT_DOUBLE_EQ(combined.back().areaUm2, 130.0);
  EXPECT_EQ(combined.back().accelerators.size(), 2u);
}

// --------------------------------------------------------------------------
// Property tests over pseudo-random solution sets (deterministic LCG).
// --------------------------------------------------------------------------

/// Minimal deterministic generator — keeps the property inputs identical on
/// every run and platform.
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

std::vector<Solution> randomSolutions(Lcg& rng, size_t count) {
  std::vector<Solution> solutions;
  solutions.push_back(Solution{});
  for (size_t i = 1; i < count; ++i) {
    double area = rng.uniform(1.0, 500.0);
    double cpu = rng.uniform(0.0, 2000.0);
    double accel = rng.uniform(0.0, 1500.0);
    solutions.push_back(makeSolution(area, cpu, accel));
  }
  return solutions;
}

bool dominates(const Solution& a, const Solution& b, double ratio) {
  return a.areaUm2 <= b.areaUm2 && a.savedCycles(ratio) >= b.savedCycles(ratio);
}

TEST(ParetoPropertyTest, OutputIsMutuallyNonDominated) {
  for (uint64_t seed : {1ULL, 7ULL, 42ULL, 1234ULL, 99999ULL}) {
    Lcg rng(seed);
    std::vector<Solution> front =
        pareto(randomSolutions(rng, 120), kRatio);
    for (size_t i = 0; i < front.size(); ++i) {
      for (size_t j = 0; j < front.size(); ++j) {
        if (i == j) continue;
        EXPECT_FALSE(dominates(front[i], front[j], kRatio))
            << "seed " << seed << ": solution " << i << " (area "
            << front[i].areaUm2 << ") dominates " << j << " (area "
            << front[j].areaUm2 << ")";
      }
    }
  }
}

TEST(ParetoPropertyTest, CombineNeverExceedsBudget) {
  for (uint64_t seed : {3ULL, 17ULL, 256ULL, 4096ULL}) {
    Lcg rng(seed);
    std::vector<Solution> a = pareto(randomSolutions(rng, 40), kRatio);
    std::vector<Solution> b = pareto(randomSolutions(rng, 40), kRatio);
    for (double budget : {50.0, 200.0, 700.0}) {
      for (const Solution& s : combine(a, b, budget, kRatio)) {
        EXPECT_LE(s.areaUm2, budget)
            << "seed " << seed << " budget " << budget;
      }
    }
  }
}

TEST(ParetoPropertyTest, CombineOutputAlsoNonDominated) {
  Lcg rng(77);
  std::vector<Solution> a = pareto(randomSolutions(rng, 30), kRatio);
  std::vector<Solution> b = pareto(randomSolutions(rng, 30), kRatio);
  std::vector<Solution> combined = combine(a, b, 600.0, kRatio);
  for (size_t i = 0; i < combined.size(); ++i) {
    for (size_t j = 0; j < combined.size(); ++j) {
      if (i == j) continue;
      EXPECT_FALSE(dominates(combined[i], combined[j], kRatio));
    }
  }
}

TEST(ParetoPropertyTest, OutputIsStrictlyMonotone) {
  // The postcondition combine()'s early budget break-out depends on (also
  // assert()ed inside pareto() in debug builds): strictly ascending area
  // with strictly increasing saved cycles.
  for (uint64_t seed : {1ULL, 7ULL, 42ULL, 1234ULL, 99999ULL}) {
    Lcg rng(seed);
    std::vector<Solution> front = pareto(randomSolutions(rng, 120), kRatio);
    for (size_t i = 1; i < front.size(); ++i) {
      EXPECT_LT(front[i - 1].areaUm2, front[i].areaUm2) << "seed " << seed;
      EXPECT_LT(front[i - 1].savedCycles(kRatio),
                front[i].savedCycles(kRatio))
          << "seed " << seed;
    }
  }
}

// --------------------------------------------------------------------------
// Frontier representation: pareto / α-filter mirror the Solution overloads
// exactly (the combine and full-DP equivalences live in
// test_select_differential.cpp).
// --------------------------------------------------------------------------

std::vector<accel::AcceleratorConfig> randomConfigs(Lcg& rng, size_t count) {
  std::vector<accel::AcceleratorConfig> configs(count);
  for (accel::AcceleratorConfig& config : configs) {
    config.areaUm2 = rng.uniform(1.0, 500.0);
    config.cpuCycles = rng.uniform(0.0, 2000.0);
    config.cycles = rng.uniform(0.0, 1500.0);
  }
  return configs;
}

std::vector<Solution> solutionsFrom(
    const std::vector<accel::AcceleratorConfig>& configs) {
  std::vector<Solution> solutions{Solution{}};
  for (const accel::AcceleratorConfig& config : configs) {
    solutions.push_back(Solution::fromConfig(config));
  }
  return solutions;
}

std::vector<FrontierEntry> entriesFrom(
    const std::vector<accel::AcceleratorConfig>& configs,
    SolutionArena& arena) {
  std::vector<FrontierEntry> entries{FrontierEntry{}};
  for (const accel::AcceleratorConfig& config : configs) {
    entries.push_back(entryFromConfig(config, kRatio, arena));
  }
  return entries;
}

void expectSameFront(const std::vector<Solution>& solutions,
                     const std::vector<FrontierEntry>& entries,
                     const SolutionArena& arena) {
  ASSERT_EQ(solutions.size(), entries.size());
  for (size_t i = 0; i < solutions.size(); ++i) {
    // Bit-exact scalar agreement, not approximate.
    EXPECT_EQ(solutions[i].areaUm2, entries[i].areaUm2) << "index " << i;
    EXPECT_EQ(solutions[i].accelCycles, entries[i].accelCycles)
        << "index " << i;
    EXPECT_EQ(solutions[i].cpuCycles, entries[i].cpuCycles) << "index " << i;
    EXPECT_EQ(solutions[i].savedCycles(kRatio), entries[i].savedCycles)
        << "index " << i;
    Solution materialized = materialize(entries[i], arena);
    ASSERT_EQ(solutions[i].accelerators.size(),
              materialized.accelerators.size())
        << "index " << i;
    for (size_t k = 0; k < materialized.accelerators.size(); ++k) {
      EXPECT_TRUE(solutions[i].accelerators[k] == materialized.accelerators[k])
          << "index " << i << " accelerator " << k;
    }
  }
}

TEST(FrontierTest, ParetoMatchesSolutionOverloadAndIsStrict) {
  for (uint64_t seed : {5ULL, 21ULL, 77ULL, 31337ULL}) {
    Lcg rng(seed);
    std::vector<accel::AcceleratorConfig> configs = randomConfigs(rng, 120);
    SolutionArena arena;
    std::vector<Solution> sFront = pareto(solutionsFrom(configs), kRatio);
    std::vector<FrontierEntry> eFront = pareto(entriesFrom(configs, arena));
    expectSameFront(sFront, eFront, arena);
    for (size_t i = 1; i < eFront.size(); ++i) {
      EXPECT_LT(eFront[i - 1].areaUm2, eFront[i].areaUm2) << "seed " << seed;
      EXPECT_LT(eFront[i - 1].savedCycles, eFront[i].savedCycles)
          << "seed " << seed;
    }
  }
}

TEST(FrontierTest, FilterMatchesSolutionOverload) {
  for (double alpha : {1.02, 1.12, 1.5, 4.0}) {
    Lcg rng(99);
    std::vector<accel::AcceleratorConfig> configs = randomConfigs(rng, 80);
    SolutionArena arena;
    std::vector<Solution> sKept =
        filterByAlpha(pareto(solutionsFrom(configs), kRatio), alpha);
    std::vector<FrontierEntry> eKept =
        filterByAlpha(pareto(entriesFrom(configs, arena)), alpha);
    expectSameFront(sKept, eKept, arena);
  }
}

TEST(FrontierTest, MergeEntriesMatchesSolutionMerge) {
  Lcg rng(12);
  std::vector<accel::AcceleratorConfig> configs = randomConfigs(rng, 6);
  SolutionArena arena;
  Solution sa = Solution::fromConfig(configs[0]);
  Solution sb = Solution::merge(Solution::fromConfig(configs[1]),
                                Solution::fromConfig(configs[2]));
  FrontierEntry ea = entryFromConfig(configs[0], kRatio, arena);
  FrontierEntry eb = mergeEntries(entryFromConfig(configs[1], kRatio, arena),
                                  entryFromConfig(configs[2], kRatio, arena),
                                  kRatio, arena);
  Solution sm = Solution::merge(sa, sb);
  FrontierEntry em = mergeEntries(ea, eb, kRatio, arena);
  EXPECT_EQ(sm.areaUm2, em.areaUm2);
  EXPECT_EQ(sm.accelCycles, em.accelCycles);
  EXPECT_EQ(sm.cpuCycles, em.cpuCycles);
  EXPECT_EQ(sm.savedCycles(kRatio), em.savedCycles);
  // Materialization walks left-before-right: Solution::merge's
  // concatenation order.
  Solution materialized = materialize(em, arena);
  ASSERT_EQ(materialized.accelerators.size(), 3u);
  for (size_t k = 0; k < 3; ++k) {
    EXPECT_TRUE(sm.accelerators[k] == materialized.accelerators[k]);
  }
  // Merging with the empty entry is the identity on scalars and configs.
  FrontierEntry withEmpty = mergeEntries(em, FrontierEntry{}, kRatio, arena);
  EXPECT_EQ(withEmpty.areaUm2, em.areaUm2);
  EXPECT_EQ(materialize(withEmpty, arena).accelerators.size(), 3u);
}

/// A strict, α-filtered front over random configs: every DP front's shape.
std::vector<FrontierEntry> filteredFront(
    const std::vector<accel::AcceleratorConfig>& configs, double alpha,
    SolutionArena& arena) {
  return filterByAlpha(pareto(entriesFrom(configs, arena)), alpha);
}

void expectSameEntries(const std::vector<FrontierEntry>& expected,
                       const std::vector<FrontierEntry>& actual,
                       const SolutionArena& arena) {
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].areaUm2, actual[i].areaUm2) << "index " << i;
    EXPECT_EQ(expected[i].accelCycles, actual[i].accelCycles) << "index " << i;
    EXPECT_EQ(expected[i].cpuCycles, actual[i].cpuCycles) << "index " << i;
    EXPECT_EQ(expected[i].savedCycles, actual[i].savedCycles) << "index " << i;
    Solution want = materialize(expected[i], arena);
    Solution got = materialize(actual[i], arena);
    ASSERT_EQ(want.accelerators.size(), got.accelerators.size())
        << "index " << i;
    for (size_t k = 0; k < want.accelerators.size(); ++k) {
      EXPECT_TRUE(want.accelerators[k] == got.accelerators[k])
          << "index " << i << " accelerator " << k;
    }
  }
}

// ⊗ with the one-entry front {∅} on either side takes the identity fast
// path: the result is the other front, scalar for scalar and config for
// config, and every pair still counts toward select.combine_pairs.
TEST(FrontierTest, CombineWithEmptyFrontIsIdentity) {
  constexpr double kAlpha = 1.12;
  for (uint64_t seed : {4ULL, 58ULL, 2024ULL}) {
    Lcg rng(seed);
    std::vector<accel::AcceleratorConfig> configs = randomConfigs(rng, 60);
    SolutionArena arena;
    const std::vector<FrontierEntry> front =
        filteredFront(configs, kAlpha, arena);
    ASSERT_GT(front.size(), 2u) << "seed " << seed;
    const std::vector<Solution> solutionFront =
        filterByAlpha(pareto(solutionsFrom(configs), kRatio), kAlpha);
    for (bool emptyOnLeft : {true, false}) {
      std::vector<FrontierEntry> buffer;
      if (emptyOnLeft) buffer.emplace_back();
      buffer.insert(buffer.end(), front.begin(), front.end());
      if (!emptyOnLeft) buffer.emplace_back();
      const size_t split = emptyOnLeft ? 1 : front.size();
      SelectStats pairs;
      combine(buffer, 0, split, 1e9, kRatio, kAlpha, arena, &pairs);
      SCOPED_TRACE(std::string("seed ") + std::to_string(seed) +
                   (emptyOnLeft ? " {∅} ⊗ F" : " F ⊗ {∅}"));
      EXPECT_EQ(pairs.combinePairs, front.size());
      expectSameEntries(front, buffer, arena);
      // ...which is also what the reference ⊗ + α-filter produce.
      const std::vector<Solution> emptyFront{Solution{}};
      SelectStats referencePairs;
      std::vector<Solution> reference = filterByAlpha(
          emptyOnLeft ? combine(emptyFront, solutionFront, 1e9, kRatio,
                                &referencePairs)
                      : combine(solutionFront, emptyFront, 1e9, kRatio,
                                &referencePairs),
          kAlpha);
      EXPECT_EQ(pairs.combinePairs, referencePairs.combinePairs);
      expectSameFront(reference, buffer, arena);
      // Every pair is a new arena node, so no survivor is flagged empty().
      for (const FrontierEntry& entry : buffer) EXPECT_FALSE(entry.empty());
    }
  }
}

TEST(FrontierTest, FilterIsIdempotentOnFilteredFronts) {
  for (double alpha : {1.02, 1.12, 1.5}) {
    for (uint64_t seed : {8ULL, 64ULL, 512ULL}) {
      Lcg rng(seed);
      std::vector<accel::AcceleratorConfig> configs = randomConfigs(rng, 120);
      SolutionArena arena;
      std::vector<FrontierEntry> once = filteredFront(configs, alpha, arena);
      std::vector<FrontierEntry> twice = filterByAlpha(once, alpha);
      SCOPED_TRACE("alpha " + std::to_string(alpha) + " seed " +
                   std::to_string(seed));
      expectSameEntries(once, twice, arena);
    }
  }
}

// An exact (area, saved) tie between the empty entry and a zero-cost
// accelerator: std::sort's order decides which one survives, and both
// engines must keep the same one — in either input order, and inside a
// larger input where introsort partitions instead of insertion-sorting.
TEST(FrontierTest, ExactTieWithEmptyKeepsReferenceSurvivor) {
  accel::AcceleratorConfig zero;  // area 0, saves 0: ties with ∅
  zero.numSeqBlocks = 7;
  std::vector<accel::AcceleratorConfig> tiny{zero};
  SolutionArena arena;
  std::vector<Solution> sForward = pareto(solutionsFrom(tiny), kRatio);
  std::vector<FrontierEntry> eForward = pareto(entriesFrom(tiny, arena));
  expectSameFront(sForward, eForward, arena);
  EXPECT_EQ(sForward.front().empty(), eForward.front().empty());

  std::vector<Solution> sReversed = solutionsFrom(tiny);
  std::vector<FrontierEntry> eReversed = entriesFrom(tiny, arena);
  std::swap(sReversed[0], sReversed[1]);
  std::swap(eReversed[0], eReversed[1]);
  sReversed = pareto(std::move(sReversed), kRatio);
  eReversed = pareto(std::move(eReversed));
  expectSameFront(sReversed, eReversed, arena);
  EXPECT_EQ(sReversed.front().empty(), eReversed.front().empty());

  for (uint64_t seed : {6ULL, 60ULL, 600ULL}) {
    Lcg rng(seed);
    std::vector<accel::AcceleratorConfig> configs = randomConfigs(rng, 40);
    for (size_t i = 0; i < configs.size(); i += 5) {
      configs[i] = zero;
      configs[i].numSeqBlocks = static_cast<unsigned>(i);
    }
    // Exact duplicates of non-empty points too, told apart by numSeqBlocks.
    for (size_t i = 1; i + 1 < configs.size(); i += 7) {
      configs[i + 1] = configs[i];
      configs[i + 1].numSeqBlocks = 100 + static_cast<unsigned>(i);
    }
    std::vector<Solution> solutions = solutionsFrom(configs);
    std::vector<FrontierEntry> entries = entriesFrom(configs, arena);
    std::swap(solutions[0], solutions[20]);
    std::swap(entries[0], entries[20]);
    SCOPED_TRACE("seed " + std::to_string(seed));
    expectSameFront(pareto(std::move(solutions), kRatio),
                    pareto(std::move(entries)), arena);
  }
}

// --------------------------------------------------------------------------
// Algorithm 1 end-to-end over real kernels.
// --------------------------------------------------------------------------

struct SelectPipeline {
  explicit SelectPipeline(std::unique_ptr<ir::Module> m,
                          double budgetUm2 = 5e5)
      : module(std::move(m)),
        wpst(*module),
        interp(*module),
        run(interp.run()),
        profile(wpst, run, interp.costModel()),
        tech(hls::TechLibrary::nangate45()),
        model(wpst, profile, tech, hls::InterfaceTiming{}, {}) {
    params.areaBudgetUm2 = budgetUm2;
  }

  std::unique_ptr<ir::Module> module;
  analysis::WPst wpst;
  sim::Interpreter interp;
  sim::Interpreter::Result run;
  sim::ProfileData profile;
  hls::TechLibrary tech;
  accel::AcceleratorModel model;
  SelectorParams params;
};

TEST(SelectorTest, FrontIsMonotone) {
  SelectPipeline p(testing::dotRowsKernel(24, 12));
  CandidateSelector selector(p.model, p.params);
  SelectStats stats;
  std::vector<Solution> front = selector.select(stats);
  ASSERT_GE(front.size(), 2u);
  for (size_t i = 1; i < front.size(); ++i) {
    EXPECT_GT(front[i].areaUm2, front[i - 1].areaUm2);
    EXPECT_GT(front[i].savedCycles(p.params.clockRatio),
              front[i - 1].savedCycles(p.params.clockRatio));
  }
}

TEST(SelectorTest, SelectionsNeverOverlap) {
  SelectPipeline p(testing::dotRowsKernel(24, 12));
  CandidateSelector selector(p.model, p.params);
  SelectStats stats;
  for (const Solution& s : selector.select(stats)) {
    // No accelerator's region may be an ancestor of another's.
    for (const auto& a : s.accelerators) {
      for (const auto& b : s.accelerators) {
        if (&a == &b) continue;
        for (const analysis::Region* up = b.region->parent(); up != nullptr;
             up = up->parent()) {
          EXPECT_NE(up, a.region)
              << "selected region nested inside another selection";
        }
      }
    }
  }
}

TEST(SelectorTest, BudgetIsRespected) {
  SelectPipeline tight(testing::dotRowsKernel(24, 12), 3e4);
  CandidateSelector selector(tight.model, tight.params);
  SelectStats stats;
  for (const Solution& s : selector.select(stats)) {
    EXPECT_LE(s.areaUm2, tight.params.areaBudgetUm2);
  }
}

TEST(SelectorTest, LargerBudgetNeverWorse) {
  SelectPipeline p(testing::dotRowsKernel(24, 12));
  SelectorParams small = p.params;
  small.areaBudgetUm2 = 5e4;
  SelectorParams large = p.params;
  large.areaBudgetUm2 = 1e6;
  SelectStats stats;
  double savedSmall =
      CandidateSelector(p.model, small).best(stats).savedCycles(2.0);
  double savedLarge =
      CandidateSelector(p.model, large).best(stats).savedCycles(2.0);
  EXPECT_GE(savedLarge, savedSmall);
}

TEST(SelectorTest, PruningSkipsColdRegions) {
  SelectPipeline p(testing::dotRowsKernel(24, 12));
  SelectorParams aggressive = p.params;
  aggressive.pruneHotFraction = 0.2;
  SelectStats prunedStats;
  CandidateSelector(p.model, aggressive).select(prunedStats);
  SelectorParams lax = p.params;
  lax.pruneHotFraction = 0.0;
  SelectStats unprunedStats;
  CandidateSelector(p.model, lax).select(unprunedStats);
  EXPECT_GT(prunedStats.regionsPruned, 0);
  EXPECT_LT(prunedStats.configsGenerated, unprunedStats.configsGenerated);
}

TEST(SelectorTest, BestPicksMaximumSaving) {
  SelectPipeline p(testing::dotRowsKernel(24, 12));
  CandidateSelector selector(p.model, p.params);
  SelectStats stats;
  std::vector<Solution> front = selector.select(stats);
  Solution best = selector.best(stats);
  for (const Solution& s : front) {
    EXPECT_GE(best.savedCycles(p.params.clockRatio),
              s.savedCycles(p.params.clockRatio));
  }
}

/// Binary tree of loops `depth` levels deep: every loop updates its own
/// slots of `a` and holds two child loops, so the wPST is deep and every
/// level combines several non-trivial fronts.
void loopTree(workloads::KernelBuilder& kb, ir::GlobalArray* a, int depth,
              ir::Value* slot) {
  ir::Value* i = kb.beginLoop(0, 2, "l" + std::to_string(depth));
  ir::Value* index = kb.ir().add(kb.ir().mul(slot, kb.ir().i64(2)), i);
  kb.storeAt(a, index,
             kb.ir().fadd(kb.loadAt(a, index), kb.ir().f64(1.0)));
  if (depth > 0) {
    loopTree(kb, a, depth - 1, index);
    loopTree(kb, a, depth - 1, index);
  }
  kb.endLoop();
}

std::unique_ptr<ir::Module> loopTreeKernel(int depth) {
  auto module = std::make_unique<ir::Module>("looptree");
  auto* a = module->addGlobal("a", ir::Type::f64(), uint64_t{4} << depth);
  workloads::KernelBuilder kb(module.get());
  kb.beginFunction("main");
  loopTree(kb, a, depth, kb.ir().i64(0));
  kb.endFunction();
  ir::verifyOrThrow(*module);
  return module;
}

// The frontier DP's scratch stack starts empty on a new thread, so on a
// deep wPST it reallocates while parent fronts still sit below the child
// being combined. Offsets, not references, must carry across every growth
// (ASan builds turn a dangling read into a failure); the result must still
// equal the reference DP.
TEST(SelectorTest, DeepTreeStackGrowthMatchesReference) {
  SelectPipeline p(loopTreeKernel(6), 2e5);
  p.params.pruneHotFraction = 0.0;
  std::vector<Solution> frontier;
  SelectStats frontierStats;
  std::thread([&] {
    frontier = CandidateSelector(p.model, p.params).select(frontierStats);
  }).join();
  SelectStats referenceStats;
  std::vector<Solution> expected =
      oracles::ReferenceSelector(p.model, p.params).select(referenceStats);

  EXPECT_GT(frontierStats.regionsVisited, 500);
  EXPECT_GT(frontierStats.frontPeak, 16u);
  EXPECT_EQ(frontierStats.combinePairs, referenceStats.combinePairs);
  EXPECT_EQ(frontierStats.frontPeak, referenceStats.frontPeak);
  ASSERT_EQ(frontier.size(), expected.size());
  for (size_t i = 0; i < frontier.size(); ++i) {
    EXPECT_EQ(frontier[i].areaUm2, expected[i].areaUm2) << "index " << i;
    EXPECT_EQ(frontier[i].accelCycles, expected[i].accelCycles);
    EXPECT_EQ(frontier[i].cpuCycles, expected[i].cpuCycles);
    EXPECT_TRUE(frontier[i].accelerators == expected[i].accelerators);
  }
}

class AlphaSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(AlphaSweepTest, LargerAlphaNeverEnlargesFrontOrBeatsBest) {
  SelectPipeline p(testing::dotRowsKernel(24, 12));
  SelectorParams fine = p.params;
  fine.alpha = GetParam();
  SelectorParams coarse = p.params;
  coarse.alpha = GetParam() * 1.5;
  CandidateSelector fineSel(p.model, fine);
  CandidateSelector coarseSel(p.model, coarse);
  SelectStats stats;
  std::vector<Solution> fineFront = fineSel.select(stats);
  std::vector<Solution> coarseFront = coarseSel.select(stats);
  EXPECT_GE(fineFront.size(), coarseFront.size());
  // The filter trades solution density for runtime; the best solution of a
  // coarser filter cannot beat the finer one's.
  EXPECT_GE(fineSel.best(stats).savedCycles(2.0) + 1e-9,
            coarseSel.best(stats).savedCycles(2.0));
}

INSTANTIATE_TEST_SUITE_P(Alphas, AlphaSweepTest,
                         ::testing::Values(1.02, 1.05, 1.12, 1.3, 1.6));

}  // namespace
}  // namespace cayman::select
