#include "select/frontier.h"

#include <algorithm>
#include <cassert>

#include "support/trace.h"

namespace cayman::select {

namespace {

#ifndef NDEBUG
/// Debug postcondition of pareto(): buffer[first, last) is strictly
/// area-ascending with strictly increasing saved cycles. combine()'s early
/// budget break-out and the α-filter's spacing rule both depend on it.
bool isStrictFront(const std::vector<FrontierEntry>& buffer, size_t first,
                   size_t last) {
  for (size_t i = first + 1; i < last; ++i) {
    if (!(buffer[i - 1].areaUm2 < buffer[i].areaUm2)) return false;
    if (!(buffer[i - 1].savedCycles < buffer[i].savedCycles)) return false;
  }
  return true;
}

/// True when filterByAlpha(alpha) keeps every entry of buffer[first, last):
/// each interior entry clears the spacing rule against its predecessor.
bool isAlphaFiltered(const std::vector<FrontierEntry>& buffer, size_t first,
                     size_t last, double alpha) {
  if (alpha <= 1.0) return true;
  for (size_t i = first + 1; i + 1 < last; ++i) {
    if (!(buffer[i].areaUm2 > alpha * std::max(buffer[i - 1].areaUm2, 1.0))) {
      return false;
    }
  }
  return true;
}
#endif

/// The one-entry front {∅}: a pruned subtree, a region where nothing fits
/// the budget, or a parent's front before its first child.
bool isEmptyFront(const std::vector<FrontierEntry>& buffer, size_t first,
                  size_t last) {
  return last - first == 1 && buffer[first].empty();
}

}  // namespace

int32_t SolutionArena::leaf(const accel::AcceleratorConfig* config) {
  int32_t id = static_cast<int32_t>(nodes_.size());
  Node node;
  node.configId = static_cast<int32_t>(configs_.size());
  configs_.push_back(config);
  nodes_.push_back(node);
  return id;
}

int32_t SolutionArena::merge(int32_t left, int32_t right) {
  int32_t id = static_cast<int32_t>(nodes_.size());
  Node node;
  node.left = left;
  node.right = right;
  nodes_.push_back(node);
  return id;
}

void SolutionArena::appendConfigs(
    int32_t node, std::vector<accel::AcceleratorConfig>& out) const {
  // Iterative in-order walk (left pushed last so it pops first): leaves
  // stream out in exactly Solution::merge's concatenation order.
  std::vector<int32_t> stack;
  stack.push_back(node);
  while (!stack.empty()) {
    int32_t current = stack.back();
    stack.pop_back();
    if (current == kEmptyNode) continue;
    const Node& n = nodes_[static_cast<size_t>(current)];
    if (n.configId >= 0) {
      out.push_back(*configs_[static_cast<size_t>(n.configId)]);
      continue;
    }
    stack.push_back(n.right);
    stack.push_back(n.left);
  }
}

FrontierEntry entryFromConfig(const accel::AcceleratorConfig& config,
                              double clockRatio, SolutionArena& arena) {
  FrontierEntry entry;
  entry.areaUm2 = config.areaUm2;
  entry.accelCycles = config.cycles;
  entry.cpuCycles = config.cpuCycles;
  entry.savedCycles = entry.cpuCycles - entry.accelCycles * clockRatio;
  entry.node = arena.leaf(&config);
  return entry;
}

FrontierEntry mergeEntries(const FrontierEntry& x, const FrontierEntry& y,
                           double clockRatio, SolutionArena& arena) {
  FrontierEntry merged;
  merged.areaUm2 = x.areaUm2 + y.areaUm2;
  merged.accelCycles = x.accelCycles + y.accelCycles;
  merged.cpuCycles = x.cpuCycles + y.cpuCycles;
  // Recomputed from the sums — never x.savedCycles + y.savedCycles, whose
  // rounding could differ from what the reference comparator sees.
  merged.savedCycles = merged.cpuCycles - merged.accelCycles * clockRatio;
  merged.node = arena.merge(x.node, y.node);
  return merged;
}

void pareto(std::vector<FrontierEntry>& buffer, size_t first) {
  const auto begin = buffer.begin() + static_cast<ptrdiff_t>(first);
  std::sort(begin, buffer.end(),
            [](const FrontierEntry& a, const FrontierEntry& b) {
              if (a.areaUm2 != b.areaUm2) return a.areaUm2 < b.areaUm2;
              return a.savedCycles > b.savedCycles;
            });
  size_t kept = first;
  double bestSaved = -1e300;
  for (size_t i = first; i < buffer.size(); ++i) {
    const FrontierEntry entry = buffer[i];
    bool keep = entry.empty() ? kept == first : entry.savedCycles > bestSaved;
    if (!keep) continue;
    bestSaved = std::max(bestSaved, entry.savedCycles);
    buffer[kept++] = entry;
  }
  if (support::trace::on() && kept < buffer.size()) {
    support::trace::count("select.pareto_dropped", buffer.size() - kept);
  }
  buffer.resize(kept);
  assert(isStrictFront(buffer, first, kept) &&
         "pareto() front not strictly monotone");
}

void filterByAlpha(std::vector<FrontierEntry>& buffer, size_t first,
                   double alpha) {
  const size_t last = buffer.size();
  if (last - first <= 2 || alpha <= 1.0) return;
  size_t kept = first + 1;
  for (size_t i = first + 1; i + 1 < last; ++i) {
    double previousArea = buffer[kept - 1].areaUm2;
    if (buffer[i].areaUm2 > alpha * std::max(previousArea, 1.0)) {
      buffer[kept++] = buffer[i];
    }
  }
  buffer[kept++] = buffer[last - 1];
  if (support::trace::on() && kept < last) {
    support::trace::count("select.alpha_dropped", last - kept);
  }
  buffer.resize(kept);
}

void combine(std::vector<FrontierEntry>& buffer, size_t a, size_t b,
             double areaBudget, double clockRatio, double alpha,
             SolutionArena& arena, uint64_t* pairsAdmitted) {
  const size_t end = buffer.size();
  assert(isStrictFront(buffer, a, b) && isStrictFront(buffer, b, end) &&
         "combine() requires area-sorted fronts for the early break");
  assert(isAlphaFiltered(buffer, a, b, alpha) &&
         isAlphaFiltered(buffer, b, end, alpha) &&
         "combine() requires alpha-filtered operands");
  for (size_t x = a; x < b; ++x) {
    for (size_t y = b; y < end; ++y) {
      // B ascends in area, so every later y is at least as large: the whole
      // remaining row is over budget (floating-point addition is monotone).
      if (buffer[x].areaUm2 + buffer[y].areaUm2 > areaBudget) break;
      const FrontierEntry merged =
          mergeEntries(buffer[x], buffer[y], clockRatio, arena);
      buffer.push_back(merged);
    }
  }
  const size_t admitted = buffer.size() - end;
  if (pairsAdmitted != nullptr) *pairsAdmitted += admitted;
  // Identity: when either operand is {∅}, the admitted pairs are a prefix
  // of the other front with every scalar unchanged (x + 0.0 == x), and only
  // the arena nodes are new. That prefix is already a strict front, which
  // std::sort leaves as it is (no two entries compare equivalent), and
  // which passed filterByAlpha, which is idempotent on its own output. So
  // pareto() and the α-filter would return it unchanged and drop nothing.
  if (!isEmptyFront(buffer, a, b) && !isEmptyFront(buffer, b, end)) {
    pareto(buffer, end);
    filterByAlpha(buffer, end, alpha);
  }
  assert(isStrictFront(buffer, end, buffer.size()));
  // The result replaces both operands (the copy moves downwards, so the
  // overlap is safe).
  const size_t kept = buffer.size() - end;
  std::copy(buffer.begin() + static_cast<ptrdiff_t>(end), buffer.end(),
            buffer.begin() + static_cast<ptrdiff_t>(a));
  buffer.resize(a + kept);
}

std::vector<FrontierEntry> combine(const std::vector<FrontierEntry>& a,
                                   const std::vector<FrontierEntry>& b,
                                   double areaBudget, double clockRatio,
                                   SolutionArena& arena,
                                   uint64_t* pairsAdmitted) {
  std::vector<FrontierEntry> buffer = a;
  buffer.insert(buffer.end(), b.begin(), b.end());
  combine(buffer, 0, a.size(), areaBudget, clockRatio, /*alpha=*/1.0, arena,
          pairsAdmitted);
  return buffer;
}

Solution materialize(const FrontierEntry& entry, const SolutionArena& arena) {
  Solution solution;
  arena.appendConfigs(entry.node, solution.accelerators);
  solution.areaUm2 = entry.areaUm2;
  solution.accelCycles = entry.accelCycles;
  solution.cpuCycles = entry.cpuCycles;
  return solution;
}

}  // namespace cayman::select
