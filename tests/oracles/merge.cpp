#include "oracles/merge.h"

#include <algorithm>
#include <map>

namespace cayman::oracles {

double matchUnitsReference(std::vector<merge::Unit>& units,
                           const hls::TechLibrary& tech,
                           merge::UnionFind& groups, merge::MatchStats& stats) {
  double total = 0.0;
  while (true) {
    double bestSaving = 0.0;
    size_t bestI = 0, bestJ = 0;
    for (size_t i = 0; i < units.size(); ++i) {
      if (!units[i].alive) continue;
      for (size_t j = i + 1; j < units.size(); ++j) {
        if (!units[j].alive) continue;
        // Merging shares datapaths across accelerator *groups* (paper
        // §III-E): once A merged into B, surviving units of A and B are one
        // reconfigurable datapath already, and pairing them would book
        // intra-group sharing as fresh cross-kernel saving (the seed
        // compared raw accelerator indices and did exactly that).
        if (groups.find(units[i].acceleratorIndex) ==
            groups.find(units[j].acceleratorIndex)) {
          continue;
        }
        ++stats.pairsScored;
        double saving = merge::unitPairSaving(tech, units[i], units[j]);
        if (saving > bestSaving) {
          bestSaving = saving;
          bestI = i;
          bestJ = j;
        }
      }
    }
    if (bestSaving <= 0.0) break;
    merge::absorbUnit(units[bestI], units[bestJ]);
    groups.unite(units[bestJ].acceleratorIndex,
                 units[bestI].acceleratorIndex);
    total += bestSaving;
    ++stats.steps;
  }
  return total;
}

merge::MergeResult mergeReference(const hls::TechLibrary& tech,
                                  const select::Solution& solution) {
  merge::MergeResult result;
  result.areaBeforeUm2 = solution.areaUm2;
  result.areaAfterUm2 = solution.areaUm2;
  if (solution.accelerators.size() < 2) return result;

  std::vector<merge::Unit> units = merge::extractUnits(solution);
  result.unitsExtracted = units.size();
  for (size_t i = 0; i < units.size(); ++i) {
    for (size_t j = i + 1; j < units.size(); ++j) {
      if (units[i].acceleratorIndex != units[j].acceleratorIndex) {
        ++result.pairsEvaluated;
      }
    }
  }

  merge::UnionFind groups(solution.accelerators.size());
  merge::MatchStats stats;
  double totalSaving = matchUnitsReference(units, tech, groups, stats);
  result.mergeSteps = stats.steps;
  result.pairsScored = stats.pairsScored;
  result.areaAfterUm2 = solution.areaUm2 - totalSaving;

  // Each reusable group pays one global Ctrl unit and keeps one wrapper.
  std::map<size_t, int> groupSizes;
  for (size_t a = 0; a < solution.accelerators.size(); ++a) {
    ++groupSizes[groups.find(a)];
  }
  int reusable = 0;
  int kernelsInReusable = 0;
  for (const auto& [root, size] : groupSizes) {
    (void)root;
    if (size < 2) continue;
    ++reusable;
    kernelsInReusable += size;
    result.areaAfterUm2 += tech.mergeCtrlArea;
    result.areaAfterUm2 -= tech.acceleratorWrapperArea * (size - 1);
  }
  result.reusableAccelerators = reusable;
  result.avgKernelsPerReusable =
      reusable == 0 ? 0.0
                    : static_cast<double>(kernelsInReusable) / reusable;
  result.areaAfterUm2 = std::max(result.areaAfterUm2, 0.0);
  return result;
}

}  // namespace cayman::oracles
