#include "merge/merger.h"

#include <map>

#include "support/trace.h"

namespace cayman::merge {

double AcceleratorMerger::pairSaving(const OpCounts& a,
                                     const OpCounts& b) const {
  Unit unitA;
  unitA.ops = a;
  Unit unitB;
  unitB.ops = b;
  unitB.acceleratorIndex = 1;
  return unitPairSaving(tech_, unitA, unitB);
}

MergeResult AcceleratorMerger::run(const select::Solution& solution) const {
  MergeResult result;
  result.areaBeforeUm2 = solution.areaUm2;
  result.areaAfterUm2 = solution.areaUm2;
  // Merging is strictly cross-accelerator: a single-accelerator solution
  // has nobody to share with, so skip unit extraction entirely.
  if (solution.accelerators.size() < 2) return result;

  support::trace::Span span("merge.pairing", "merge");
  std::vector<Unit> units = extractUnits(solution);
  result.unitsExtracted = units.size();
  support::trace::count("merge.units", units.size());

  for (size_t i = 0; i < units.size(); ++i) {
    for (size_t j = i + 1; j < units.size(); ++j) {
      if (units[i].acceleratorIndex != units[j].acceleratorIndex) {
        ++result.pairsEvaluated;
      }
    }
  }
  support::trace::count("merge.pairs_evaluated", result.pairsEvaluated);

  UnionFind groups(solution.accelerators.size());
  MatchStats stats;
  double totalSaving = matchUnitsGraph(units, tech_, groups, stats);
  result.mergeSteps = stats.steps;
  result.pairsScored = stats.pairsScored;
  support::trace::count("merge.steps",
                        static_cast<uint64_t>(stats.steps));
  result.areaAfterUm2 = solution.areaUm2 - totalSaving;

  // A merged group additionally pays for one global Ctrl unit (paper Fig. 5)
  // but drops the per-accelerator wrapper of all but one member.
  std::map<size_t, int> groupSizes;
  for (size_t a = 0; a < solution.accelerators.size(); ++a) {
    ++groupSizes[groups.find(a)];
  }
  int reusable = 0;
  int kernelsInReusable = 0;
  for (const auto& [root, size] : groupSizes) {
    (void)root;
    if (size >= 2) {
      ++reusable;
      kernelsInReusable += size;
      result.areaAfterUm2 += tech_.mergeCtrlArea;
      result.areaAfterUm2 -= tech_.acceleratorWrapperArea * (size - 1);
    }
  }
  support::trace::count("merge.groups", static_cast<uint64_t>(reusable));
  result.reusableAccelerators = reusable;
  result.avgKernelsPerReusable =
      reusable == 0 ? 0.0
                    : static_cast<double>(kernelsInReusable) / reusable;
  result.areaAfterUm2 = std::max(result.areaAfterUm2, 0.0);
  return result;
}

}  // namespace cayman::merge
