// Differential tests pinning the edge-heap merge engine to the rescanning
// greedy oracle (tests/oracles/merge.h): value-identical MergeResults over
// all 28 registered workloads
// across budgets, plus engine-level property tests (non-negative saving, a
// shared-operator-area upper bound, and invariance under unit-extraction
// order). The edge-heap matching is only allowed to be faster — never
// different.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "cayman/framework.h"
#include "oracles/merge.h"
#include "workloads/workloads.h"

namespace cayman::merge {
namespace {

using oracles::matchUnitsReference;

/// The production engine first, then the oracle.
const oracles::MatchFn kEngines[] = {matchUnitsGraph, matchUnitsReference};

void expectSameResult(const MergeResult& graph, const MergeResult& reference,
                      const std::string& context) {
  EXPECT_DOUBLE_EQ(graph.areaBeforeUm2, reference.areaBeforeUm2) << context;
  EXPECT_DOUBLE_EQ(graph.areaAfterUm2, reference.areaAfterUm2) << context;
  EXPECT_EQ(graph.mergeSteps, reference.mergeSteps) << context;
  EXPECT_EQ(graph.reusableAccelerators, reference.reusableAccelerators)
      << context;
  EXPECT_DOUBLE_EQ(graph.avgKernelsPerReusable,
                   reference.avgKernelsPerReusable)
      << context;
  EXPECT_EQ(graph.unitsExtracted, reference.unitsExtracted) << context;
  EXPECT_EQ(graph.pairsEvaluated, reference.pairsEvaluated) << context;
}

// Every workload, several budgets: the merger and the oracle must agree on
// every value of the MergeResult, and the merger must never report less
// saving than the greedy.
TEST(MergeDifferentialTest, GraphMatchesReferenceOnAllWorkloads) {
  for (const workloads::WorkloadInfo& info : workloads::all()) {
    Framework fw(info.build());
    for (double budgetRatio : {0.05, 0.25, 0.65}) {
      std::string context =
          info.name + " budget " + std::to_string(budgetRatio);
      select::Solution best = fw.best(budgetRatio);

      MergeResult graph = AcceleratorMerger(fw.tech()).run(best);
      MergeResult reference = oracles::mergeReference(fw.tech(), best);
      expectSameResult(graph, reference, context);
      EXPECT_GE(graph.savingPercent(), reference.savingPercent() - 1e-9)
          << context;

      // Bound sanity shared by both engines.
      EXPECT_GE(graph.areaAfterUm2, 0.0) << context;
      EXPECT_LE(graph.areaAfterUm2, graph.areaBeforeUm2 + 1e-6) << context;
      if (!best.accelerators.empty()) {
        EXPECT_LE(graph.mergeSteps,
                  static_cast<int>(best.accelerators.size()) - 1)
            << context << ": each step must union two distinct groups";
      }
    }
  }
}

// --------------------------------------------------------------------------
// Engine-level property tests on synthetic units (no pipeline, no clock).
// --------------------------------------------------------------------------

/// Units engineered so every pair saving is distinct: unit i carries i+1
/// wide FMuls and n-i wide FDivs, giving a strictly varying shared-op mix.
std::vector<Unit> distinctSyntheticUnits(size_t n) {
  std::vector<Unit> units(n);
  for (size_t i = 0; i < n; ++i) {
    units[i].ops[{ir::Opcode::FMul, true}] = static_cast<unsigned>(i + 1);
    units[i].ops[{ir::Opcode::FDiv, true}] = static_cast<unsigned>(n - i);
    units[i].acceleratorIndex = i;
  }
  return units;
}

double totalSharedOpArea(const std::vector<Unit>& units,
                         const hls::TechLibrary& tech) {
  double total = 0.0;
  for (const Unit& unit : units) {
    for (const auto& [opClass, count] : unit.ops) {
      const ir::Type* type =
          opClass.second ? ir::Type::i64() : ir::Type::i32();
      total += count * tech.opInfo(opClass.first, type).areaUm2;
    }
  }
  return total;
}

TEST(MergePropertyTest, SavingNonNegativeAndBounded) {
  // The matched saving is a sum of positive edges, and no edge can save more
  // than the duplicate operator area it eliminates — so the total is
  // bounded by the units' combined operator area.
  hls::TechLibrary tech = hls::TechLibrary::nangate45();
  for (size_t n : {2u, 5u, 9u, 16u}) {
    std::vector<Unit> units = distinctSyntheticUnits(n);
    double bound = totalSharedOpArea(units, tech);
    for (oracles::MatchFn match : kEngines) {
      std::vector<Unit> copy = units;
      UnionFind groups(n);
      MatchStats stats;
      double saving = match(copy, tech, groups, stats);
      EXPECT_GE(saving, 0.0) << n;
      EXPECT_LE(saving, bound) << n;
      EXPECT_LE(stats.steps, static_cast<int>(n) - 1) << n;
    }
  }
}

TEST(MergePropertyTest, ResultInvariantUnderUnitOrder) {
  // Tie-breaks are by unit index, so order invariance only holds when edge
  // weights are distinct — the synthetic units guarantee that, and the
  // guard below fails loudly if the construction ever stops doing so.
  hls::TechLibrary tech = hls::TechLibrary::nangate45();
  constexpr size_t kN = 7;
  std::vector<Unit> base = distinctSyntheticUnits(kN);
  std::set<double> initialSavings;
  for (size_t i = 0; i < kN; ++i) {
    for (size_t j = i + 1; j < kN; ++j) {
      initialSavings.insert(unitPairSaving(tech, base[i], base[j]));
    }
  }
  ASSERT_EQ(initialSavings.size(), kN * (kN - 1) / 2)
      << "synthetic units must have pairwise-distinct savings";

  UnionFind baseGroups(kN);
  MatchStats baseStats;
  std::vector<Unit> baseCopy = base;
  double baseSaving = matchUnitsGraph(baseCopy, tech, baseGroups, baseStats);

  // A handful of deterministic permutations, including full reversal.
  std::vector<std::vector<size_t>> orders;
  std::vector<size_t> identity(kN);
  for (size_t i = 0; i < kN; ++i) identity[i] = i;
  std::vector<size_t> reversed(identity.rbegin(), identity.rend());
  orders.push_back(reversed);
  std::vector<size_t> rotated = identity;
  std::rotate(rotated.begin(), rotated.begin() + 3, rotated.end());
  orders.push_back(rotated);
  std::vector<size_t> swapped = identity;
  std::swap(swapped[0], swapped[kN - 1]);
  std::swap(swapped[2], swapped[4]);
  orders.push_back(swapped);

  for (const std::vector<size_t>& order : orders) {
    std::vector<Unit> permuted;
    for (size_t index : order) permuted.push_back(base[index]);
    for (oracles::MatchFn match : kEngines) {
      std::vector<Unit> copy = permuted;
      UnionFind groups(kN);
      MatchStats stats;
      double saving = match(copy, tech, groups, stats);
      EXPECT_DOUBLE_EQ(saving, baseSaving);
      EXPECT_EQ(stats.steps, baseStats.steps);
    }
  }
}

TEST(MergePropertyTest, EnginesAgreeOnSyntheticPopulations) {
  // Larger synthetic populations with several units per accelerator, seeded
  // LCG op mixes: the lazy heap and the full-rescoring greedy must stay
  // value-identical step for step.
  hls::TechLibrary tech = hls::TechLibrary::nangate45();
  uint64_t state = 12345;
  auto next = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  for (size_t accels : {6u, 12u, 24u}) {
    std::vector<Unit> units;
    for (size_t a = 0; a < accels; ++a) {
      size_t perAccel = 1 + next() % 3;
      for (size_t u = 0; u < perAccel; ++u) {
        Unit unit;
        unit.acceleratorIndex = a;
        unit.ops[{ir::Opcode::FMul, true}] = 1 + next() % 4;
        if (next() % 2) unit.ops[{ir::Opcode::FAdd, true}] = 1 + next() % 3;
        if (next() % 3 == 0) unit.ops[{ir::Opcode::FDiv, true}] = 1;
        units.push_back(std::move(unit));
      }
    }
    std::vector<Unit> graphUnits = units;
    std::vector<Unit> referenceUnits = units;
    UnionFind graphGroups(accels), referenceGroups(accels);
    MatchStats graphStats, referenceStats;
    double graphSaving =
        matchUnitsGraph(graphUnits, tech, graphGroups, graphStats);
    double referenceSaving = matchUnitsReference(referenceUnits, tech,
                                                 referenceGroups,
                                                 referenceStats);
    EXPECT_DOUBLE_EQ(graphSaving, referenceSaving) << accels;
    EXPECT_EQ(graphStats.steps, referenceStats.steps) << accels;
    for (size_t a = 0; a < accels; ++a) {
      EXPECT_EQ(graphGroups.find(a) == graphGroups.find(0),
                referenceGroups.find(a) == referenceGroups.find(0))
          << accels << " accel " << a;
    }
    // The heap engine never scores more pairs than the quadratic rescan.
    EXPECT_LE(graphStats.pairsScored, referenceStats.pairsScored) << accels;
  }
}

}  // namespace
}  // namespace cayman::merge
