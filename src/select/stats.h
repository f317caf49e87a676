// Work and budget bookkeeping of one Algorithm 1 run, shared by the DP and
// the ⊗ primitives it calls.
#pragma once

#include <cstddef>
#include <cstdint>

namespace cayman::select {

struct SelectStats {
  int regionsVisited = 0;
  int regionsPruned = 0;
  int configsGenerated = 0;
  /// ⊗ pairs admitted under the area budget across all combines.
  uint64_t combinePairs = 0;
  /// Single-config solutions created (arena leaves).
  uint64_t singleConfigSolutions = 0;
  /// Largest post-filter front the DP carried.
  size_t frontPeak = 0;
  /// True when the area budget rejected at least one config or ⊗ pair. A
  /// run that rejected nothing returns the same result at every budget
  /// >= maxAdmittedAreaUm2 (see select/selection_memo.h).
  bool budgetBound = false;
  /// Largest area of any config or ⊗ pair the budget admitted (0 when it
  /// admitted none). Taken over admitted, not tested, areas: the frontier ⊗
  /// stops a row at its first rejection, so the pairs it tests depend on
  /// the front order, while the admitted set does not.
  double maxAdmittedAreaUm2 = 0.0;

  /// Reconstruction-arena size the run implies: one node per leaf plus
  /// one per admitted merge (the select.arena_nodes counter).
  uint64_t arenaNodes() const { return singleConfigSolutions + combinePairs; }

  /// The DP's one budget test, `areaUm2 > budget` rejects, recorded into
  /// budgetBound / maxAdmittedAreaUm2. True when the area is admitted.
  bool admits(double areaUm2, double budget) {
    if (areaUm2 > budget) {
      budgetBound = true;
      return false;
    }
    if (areaUm2 > maxAdmittedAreaUm2) maxAdmittedAreaUm2 = areaUm2;
    return true;
  }
};

}  // namespace cayman::select
