#include "oracles/select.h"

#include <algorithm>
#include <cassert>

namespace cayman::oracles {

using analysis::Region;
using analysis::RegionKind;
using select::SelectStats;
using select::Solution;

namespace {

/// combine() reserves at most this many merged slots up front (a full
/// a.size() * b.size() reserve made peak memory scale with the product).
constexpr size_t kCombineReserveCap = 256;

#ifndef NDEBUG
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

/// Peak-front bookkeeping after every α-filter, at the same program points
/// as the frontier DP.
void notePeak(SelectStats& stats, size_t frontSize) {
  if (frontSize > stats.frontPeak) stats.frontPeak = frontSize;
}

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
  assert(isStrictFront(front, clockRatio) &&
         "pareto() front not strictly monotone");
  return front;
}

std::vector<Solution> filterByAlpha(std::vector<Solution> solutions,
                                    double alpha) {
  if (solutions.size() <= 2 || alpha <= 1.0) return solutions;
  std::vector<Solution> kept;
  kept.push_back(std::move(solutions.front()));
  for (size_t i = 1; i + 1 < solutions.size(); ++i) {
    double previousArea = kept.back().areaUm2;
    if (solutions[i].areaUm2 > alpha * std::max(previousArea, 1.0)) {
      kept.push_back(std::move(solutions[i]));
    }
  }
  kept.push_back(std::move(solutions.back()));
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

ReferenceSelector::ReferenceSelector(const accel::AcceleratorModel& model,
                                     select::SelectorParams params,
                                     Candidates candidates)
    : model_(model), params_(params), candidates_(std::move(candidates)) {
  if (!candidates_) {
    candidates_ = [&model](const Region* region)
        -> const std::vector<accel::AcceleratorConfig>& {
      return model.generate(region);
    };
  }
}

std::vector<Solution> ReferenceSelector::select(SelectStats& stats) const {
  stats = SelectStats{};
  return dp(model_.wpst().root(), stats);
}

Solution ReferenceSelector::best(SelectStats& stats) const {
  Solution best;
  double bestSaved = 0.0;
  for (Solution& s : select(stats)) {
    double saved = s.savedCycles(params_.clockRatio);
    if (saved > bestSaved) {
      bestSaved = saved;
      best = std::move(s);
    }
  }
  return best;
}

void ReferenceSelector::addCandidates(const Region* region,
                                      std::vector<Solution>& front,
                                      SelectStats& stats) const {
  for (const accel::AcceleratorConfig& config : candidates_(region)) {
    ++stats.configsGenerated;
    if (!stats.admits(config.areaUm2, params_.areaBudgetUm2)) continue;
    ++stats.singleConfigSolutions;
    front.push_back(Solution::fromConfig(config));
  }
  front = filterByAlpha(pareto(std::move(front), params_.clockRatio),
                        params_.alpha);
  notePeak(stats, front.size());
}

std::vector<Solution> ReferenceSelector::dp(const Region* region,
                                            SelectStats& stats) const {
  ++stats.regionsVisited;
  // prune(v, R): Bb and ctrl-flow regions below the hotness threshold.
  if ((region->isBb() || region->isCtrlFlow()) &&
      model_.profile().hotFraction(region) < params_.pruneHotFraction) {
    ++stats.regionsPruned;
    return {Solution{}};
  }

  std::vector<Solution> front{Solution{}};
  if (region->kind() == RegionKind::Bb) {
    addCandidates(region, front, stats);
    return front;
  }
  // Combine children subtrees (⊗ over siblings).
  for (const auto& child : region->children()) {
    std::vector<Solution> childFront = dp(child.get(), stats);
    front = filterByAlpha(combine(front, childFront, params_.areaBudgetUm2,
                                  params_.clockRatio, &stats),
                          params_.alpha);
    notePeak(stats, front.size());
  }
  // ctrl-flow regions may alternatively be selected whole.
  if (region->isCtrlFlow()) addCandidates(region, front, stats);
  return front;
}

}  // namespace cayman::oracles
