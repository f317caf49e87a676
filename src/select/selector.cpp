#include "select/selector.h"

#include <cassert>
#include <span>

#include "support/error.h"
#include "support/trace.h"

namespace cayman::select {

using analysis::Region;
using analysis::RegionKind;

namespace {

/// The calling thread's frontier-DP workspace: the front stack and the
/// reconstruction arena. Both keep their capacity between runs, so a warm
/// thread's DP allocates nothing.
struct Scratch {
  std::vector<FrontierEntry> buffer;
  SolutionArena arena;
};
Scratch& threadScratch() {
  thread_local Scratch scratch;
  return scratch;
}

/// Empties the workspace when a run ends, also when a cancellation check
/// throws out of the DP.
struct ScratchRelease {
  Scratch& scratch;
  ~ScratchRelease() { scratch.buffer.clear(); scratch.arena.clear(); }
};

/// Peak-front bookkeeping, fired after every α-filter.
void notePeak(SelectStats& stats, size_t frontSize) {
  if (frontSize > stats.frontPeak) stats.frontPeak = frontSize;
}

}  // namespace

const std::vector<accel::AcceleratorConfig>& CandidateSelector::candidatesFor(
    const CandidateLists& lists, const Region* region) {
  const std::vector<accel::AcceleratorConfig>* list =
      lists[static_cast<size_t>(region->id())];
  CAYMAN_ASSERT(list != nullptr,
                "selector pre-pass missed a region the DP queries");
  return *list;
}

bool CandidateSelector::prunes(const Region* region) const {
  // prune(v, R): regions that are not hotspots cannot pay for themselves —
  // skip the whole subtree (their descendants are at most as hot). Root and
  // Function vertices are structural and never pruned.
  return (region->isBb() || region->isCtrlFlow()) &&
         model_.profile().hotFraction(region) < params_.pruneHotFraction;
}

void CandidateSelector::collectCandidates(const Region* region,
                                          CandidateLists& lists) const {
  if (params_.cancel != nullptr) {
    params_.cancel->check(support::Stage::Select, region->label());
  }
  if (prunes(region)) return;
  const size_t id = static_cast<size_t>(region->id());
  if (region->kind() == RegionKind::Bb) {
    lists[id] = &model_.generate(region);
    return;
  }
  for (const auto& child : region->children()) {
    collectCandidates(child.get(), lists);
  }
  if (region->isCtrlFlow()) lists[id] = &model_.generate(region);
}

size_t CandidateSelector::dpFrontier(const Region* region,
                                     const CandidateLists& lists,
                                     SelectStats& stats,
                                     SolutionArena& arena,
                                     std::vector<FrontierEntry>& buffer) const {
  ++stats.regionsVisited;
  if (params_.cancel != nullptr) {
    params_.cancel->check(support::Stage::Select, region->label());
  }

  // F[region] starts as {∅} at the top of the stack; every step below
  // rewrites [begin, buffer.size()) in place.
  const size_t begin = buffer.size();
  buffer.emplace_back();
  if (prunes(region)) {
    ++stats.regionsPruned;
    return begin;
  }

  if (region->kind() == RegionKind::Bb) {
    for (const accel::AcceleratorConfig& config :
         candidatesFor(lists, region)) {
      ++stats.configsGenerated;
      if (!stats.admits(config.areaUm2, params_.areaBudgetUm2)) continue;
      ++stats.singleConfigSolutions;
      buffer.push_back(entryFromConfig(config, params_.clockRatio, arena));
    }
    pareto(buffer, begin);
    filterByAlpha(buffer, begin, params_.alpha);
    notePeak(stats, buffer.size() - begin);
    return begin;
  }

  for (const auto& child : region->children()) {
    size_t childBegin = dpFrontier(child.get(), lists, stats, arena, buffer);
    combine(buffer, begin, childBegin, params_.areaBudgetUm2,
            params_.clockRatio, params_.alpha, arena, &stats);
    notePeak(stats, buffer.size() - begin);
  }

  if (region->isCtrlFlow()) {
    for (const accel::AcceleratorConfig& config :
         candidatesFor(lists, region)) {
      ++stats.configsGenerated;
      if (!stats.admits(config.areaUm2, params_.areaBudgetUm2)) continue;
      ++stats.singleConfigSolutions;
      buffer.push_back(entryFromConfig(config, params_.clockRatio, arena));
    }
    pareto(buffer, begin);
    filterByAlpha(buffer, begin, params_.alpha);
    notePeak(stats, buffer.size() - begin);
  }
  return begin;
}

std::vector<Solution> CandidateSelector::select(SelectStats& stats) const {
  return run(stats, /*winnerOnly=*/false);
}

Solution CandidateSelector::best(SelectStats& stats) const {
  std::vector<Solution> winner = run(stats, /*winnerOnly=*/true);
  return winner.empty() ? Solution{} : std::move(winner.front());
}

std::vector<Solution> CandidateSelector::run(SelectStats& stats,
                                             bool winnerOnly) const {
  stats = SelectStats{};
  // Candidate generation first, outside the span: it is memoized model work
  // shared by every budget sweep, and folding its cold
  // first computation into select.dp made the DP look ~5x more expensive
  // than it is. No new span is opened for it, so the deterministic trace
  // event stream is unchanged.
  CandidateLists lists(model_.wpst().allRegions().size(), nullptr);
  collectCandidates(model_.wpst().root(), lists);
  support::trace::Span span("select.dp", "select");
  const double ratio = params_.clockRatio;
  std::vector<Solution> front;
  Scratch& scratch = threadScratch();
  std::vector<FrontierEntry>& buffer = scratch.buffer;
  SolutionArena& arena = scratch.arena;
  assert(buffer.empty() && "selector runs never nest on one thread");
  ScratchRelease release{scratch};
  // The stack starts empty, so the root front is all of it.
  dpFrontier(model_.wpst().root(), lists, stats, arena, buffer);
  std::span<const FrontierEntry> entries(buffer);
  assert(arena.nodeCount() == stats.arenaNodes() &&
         "arena grew out of step with the leaf/pair counters");
  if (winnerOnly) {
    // Pick the first strict maximum of saved cycles above 0 on the cost
    // triple (the same expression Solution::savedCycles evaluates on the
    // materialized sums), then materialize only the winner instead of
    // copying every config of the front.
    ptrdiff_t winner = -1;
    double bestSaved = 0.0;
    for (size_t i = 0; i < entries.size(); ++i) {
      double saved = entries[i].cpuCycles - entries[i].accelCycles * ratio;
      if (saved > bestSaved) {
        bestSaved = saved;
        winner = static_cast<ptrdiff_t>(i);
      }
    }
    if (winner >= 0) front.push_back(materialize(entries[winner], arena));
  } else {
    front.reserve(entries.size());
    for (const FrontierEntry& entry : entries) {
      front.push_back(materialize(entry, arena));
    }
  }
  if (support::trace::on()) {
    support::trace::count("select.regions_visited",
                          static_cast<uint64_t>(stats.regionsVisited));
    support::trace::count("select.regions_pruned",
                          static_cast<uint64_t>(stats.regionsPruned));
    support::trace::count("select.configs_generated",
                          static_cast<uint64_t>(stats.configsGenerated));
    support::trace::count("select.combine_pairs", stats.combinePairs);
    support::trace::count("select.front_peak",
                          static_cast<uint64_t>(stats.frontPeak));
    support::trace::count("select.arena_nodes", stats.arenaNodes());
  }
  return front;
}

}  // namespace cayman::select
