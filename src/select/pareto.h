// Pareto sequences and the α-filter of Algorithm 1.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "select/solution.h"
#include "select/stats.h"

namespace cayman::select {

/// combine() reserves at most this many merged slots up front. α-filtered
/// fronts are short, but a full a.size()*b.size() cross product can run to
/// tens of thousands of slots of which the budget filter admits a fraction —
/// the old unconditional reserve made peak memory scale with the product
/// instead of the admitted count.
constexpr size_t kCombineReserveCap = 256;

/// Area-ascending Pareto front over (area, saved cycles): keeps solutions
/// where more area strictly buys more saved time. The empty solution (area
/// 0) always survives.
///
/// Postcondition (checked in debug builds): the returned front is strictly
/// ascending in area AND in saved cycles — the invariant the α-filter and
/// the sorted-front combine early break rely on.
std::vector<Solution> pareto(std::vector<Solution> solutions,
                             double clockRatio);

/// Paper's `filter`: walking the Pareto sequence in ascending area, drop
/// solutions until the next kept one has area > alpha * previous kept area.
/// Bounds the sequence length to log_alpha(A).
std::vector<Solution> filterByAlpha(std::vector<Solution> solutions,
                                    double alpha);

/// The ⊗ operation: pairwise unions of solutions from two disjoint subtrees,
/// Pareto-reduced, and truncated to the area budget. `stats`, when non-null,
/// accumulates the within-budget pairs merged (combinePairs, the
/// select.combine_pairs counter) and every pair's budget test (budgetBound,
/// maxAdmittedAreaUm2).
std::vector<Solution> combine(const std::vector<Solution>& a,
                              const std::vector<Solution>& b,
                              double areaBudget, double clockRatio,
                              SelectStats* stats = nullptr);

}  // namespace cayman::select
