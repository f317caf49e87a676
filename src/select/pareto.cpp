#include "select/pareto.h"

#include <algorithm>
#include <cassert>

#include "support/trace.h"

namespace cayman::select {

namespace {

#ifndef NDEBUG
/// Debug postcondition of pareto(): strictly area-ascending with strictly
/// increasing saved cycles (see pareto.h).
bool isStrictFront(const std::vector<Solution>& front, double clockRatio) {
  for (size_t i = 1; i < front.size(); ++i) {
    if (!(front[i - 1].areaUm2 < front[i].areaUm2)) return false;
    if (!(front[i - 1].savedCycles(clockRatio) <
          front[i].savedCycles(clockRatio))) {
      return false;
    }
  }
  return true;
}
#endif

}  // namespace

std::vector<Solution> pareto(std::vector<Solution> solutions,
                             double clockRatio) {
  std::sort(solutions.begin(), solutions.end(),
            [clockRatio](const Solution& a, const Solution& b) {
              if (a.areaUm2 != b.areaUm2) return a.areaUm2 < b.areaUm2;
              return a.savedCycles(clockRatio) > b.savedCycles(clockRatio);
            });
  std::vector<Solution> front;
  double bestSaved = -1e300;
  for (Solution& s : solutions) {
    double saved = s.savedCycles(clockRatio);
    bool keep = s.empty() ? front.empty() : saved > bestSaved;
    if (!keep) continue;
    bestSaved = std::max(bestSaved, saved);
    front.push_back(std::move(s));
  }
  if (support::trace::on() && front.size() < solutions.size()) {
    support::trace::count("select.pareto_dropped",
                          solutions.size() - front.size());
  }
  assert(isStrictFront(front, clockRatio) &&
         "pareto() front not strictly monotone");
  return front;
}

std::vector<Solution> filterByAlpha(std::vector<Solution> solutions,
                                    double alpha) {
  if (solutions.size() <= 2 || alpha <= 1.0) return solutions;
  std::vector<Solution> kept;
  kept.push_back(std::move(solutions.front()));
  // Always retain the final (best-performing) solution.
  for (size_t i = 1; i + 1 < solutions.size(); ++i) {
    double previousArea = kept.back().areaUm2;
    if (solutions[i].areaUm2 > alpha * std::max(previousArea, 1.0)) {
      kept.push_back(std::move(solutions[i]));
    }
  }
  kept.push_back(std::move(solutions.back()));
  if (support::trace::on() && kept.size() < solutions.size()) {
    support::trace::count("select.alpha_dropped",
                          solutions.size() - kept.size());
  }
  return kept;
}

std::vector<Solution> combine(const std::vector<Solution>& a,
                              const std::vector<Solution>& b,
                              double areaBudget, double clockRatio,
                              SelectStats* stats) {
  std::vector<Solution> merged;
  merged.reserve(std::min(a.size() * b.size(), kCombineReserveCap));
  SelectStats unused;
  SelectStats& s = stats != nullptr ? *stats : unused;
  for (const Solution& x : a) {
    for (const Solution& y : b) {
      if (!s.admits(x.areaUm2 + y.areaUm2, areaBudget)) continue;
      merged.push_back(Solution::merge(x, y));
    }
  }
  s.combinePairs += merged.size();
  return pareto(std::move(merged), clockRatio);
}

}  // namespace cayman::select
