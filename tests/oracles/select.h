// Reference selector: Algorithm 1 as first written, over vectors of
// materialized Solutions — every ⊗ copies both operands' configs, every
// Pareto step sorts whole Solutions. The oracle for select::CandidateSelector
// (the frontier DP), which must reproduce its fronts, best() pick and every
// SelectStats field bit for bit.
#pragma once

#include <functional>

#include "select/selector.h"

namespace cayman::oracles {

/// Area-ascending Pareto front over (area, saved cycles): keeps solutions
/// where more area strictly buys more saved time. The empty solution (area
/// 0) always survives. The result is strictly ascending in area and in
/// saved cycles (asserted in debug builds).
std::vector<select::Solution> pareto(std::vector<select::Solution> solutions,
                                     double clockRatio);

/// Paper's `filter`: walking the Pareto sequence in ascending area, drop
/// solutions until the next kept one has area > alpha * previous kept area.
/// The first and the last (best-performing) solution always survive.
std::vector<select::Solution> filterByAlpha(
    std::vector<select::Solution> solutions, double alpha);

/// The ⊗ operation: pairwise unions of solutions from two disjoint subtrees,
/// Pareto-reduced, and truncated to the area budget. Every pair is tested
/// against the budget; `stats`, when non-null, records the tests
/// (budgetBound, maxAdmittedAreaUm2) and the admitted pairs (combinePairs).
std::vector<select::Solution> combine(const std::vector<select::Solution>& a,
                                      const std::vector<select::Solution>& b,
                                      double areaBudget, double clockRatio,
                                      select::SelectStats* stats = nullptr);

class ReferenceSelector {
 public:
  /// Candidate list of one region; the default asks the model's generate().
  using Candidates = std::function<const std::vector<accel::AcceleratorConfig>&(
      const analysis::Region*)>;

  ReferenceSelector(const accel::AcceleratorModel& model,
                    select::SelectorParams params, Candidates candidates = {});

  /// F[root] under the budget, ascending in area (CandidateSelector::select).
  std::vector<select::Solution> select(select::SelectStats& stats) const;
  /// The first strict maximum of savedCycles above 0 in select()'s front,
  /// else the empty solution (CandidateSelector::best).
  select::Solution best(select::SelectStats& stats) const;

 private:
  std::vector<select::Solution> dp(const analysis::Region* region,
                                   select::SelectStats& stats) const;
  /// Admits `region`'s candidates under the budget into `front` as
  /// single-config solutions, then Pareto- and α-reduces it.
  void addCandidates(const analysis::Region* region,
                     std::vector<select::Solution>& front,
                     select::SelectStats& stats) const;

  const accel::AcceleratorModel& model_;
  select::SelectorParams params_;
  Candidates candidates_;
};

}  // namespace cayman::oracles
