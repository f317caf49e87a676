// Frontier-compressed DP representation: the fast path of Algorithm 1.
//
// A Solution-vector DP carries full Solution objects through every ⊗ combine:
// each admitted pair deep-copies two AcceleratorConfig vectors (each config
// itself owning a LoopConfig vector and an interface map) only for pareto()
// to throw most of the merged results away, so allocation churn dominates
// select.dp. The frontier path replaces the in-flight representation with a
// trivially-copyable scalar record — (area, accelerator cycles, CPU cycles)
// plus the cached saved-cycles value — and a node reference into a
// per-selection arena. Merging two records is O(1): sum the scalars and
// allocate one 12-byte arena node pointing at the operands' nodes. Full
// AcceleratorConfig lists are materialized only for the final surviving
// front by an in-order walk of the arena (left subtree before right), which
// reproduces exactly Solution::merge's concatenation order. Reconstruction
// iterates arena nodes in allocation order — never pointer-keyed maps — so
// it is deterministic across runs and jobs counts.
//
// The fronts themselves are flat: one scratch vector per thread holds every
// live front as a stack, and pareto / α-filter / ⊗ rewrite the top of it in
// place (see "Flat fronts" below), so a DP run allocates nothing per region.
//
// Bit-exactness contract with the Solution-vector reference DP (the test
// oracle in tests/oracles/select.h): every scalar is accumulated through the
// same additions in the same order as Solution::merge, and savedCycles is
// always recomputed from the summed cycle counts (never summed
// incrementally), so fronts, filters and final solutions are bit-identical
// to the reference DP.
#pragma once

#include <cstdint>
#include <vector>

#include "select/solution.h"
#include "select/stats.h"

namespace cayman::select {

/// Arena node id of the empty solution (no accelerators).
constexpr int32_t kEmptyNode = -1;

/// One in-flight DP solution: the cost triple plus its reconstruction
/// handle. Trivially copyable; no allocation on copy or merge.
struct FrontierEntry {
  double areaUm2 = 0.0;
  double accelCycles = 0.0;
  double cpuCycles = 0.0;
  /// Cached Solution::savedCycles(clockRatio) of the sums above, refreshed
  /// after every accumulation so comparators stop recomputing it.
  double savedCycles = 0.0;
  int32_t node = kEmptyNode;

  bool empty() const { return node == kEmptyNode; }
};

/// Per-selection reconstruction arena: a DAG of cons cells. A leaf names
/// one AcceleratorConfig; a merge node concatenates its left operand's
/// configs before its right operand's. Nodes are append-only, so entries
/// can share subtrees freely (persistence) and dropped Pareto points cost
/// nothing beyond their node.
class SolutionArena {
 public:
  /// Registers a single-config solution. The pointer must stay valid for
  /// the arena's lifetime; configs handed out by AcceleratorModel::generate
  /// live as long as the model, which outlives any selection.
  int32_t leaf(const accel::AcceleratorConfig* config);

  /// O(1) concatenation: left's configs materialize before right's (the
  /// order Solution::merge produces). Either side may be kEmptyNode.
  int32_t merge(int32_t left, int32_t right);

  size_t nodeCount() const { return nodes_.size(); }
  /// Drops every node, keeping the capacity.
  void clear() { nodes_.clear(); configs_.clear(); }

  /// Appends the configs reachable from `node` in program order.
  void appendConfigs(int32_t node,
                     std::vector<accel::AcceleratorConfig>& out) const;

 private:
  struct Node {
    int32_t configId = -1;  ///< >= 0: leaf; children unused
    int32_t left = kEmptyNode;
    int32_t right = kEmptyNode;
  };
  std::vector<Node> nodes_;
  std::vector<const accel::AcceleratorConfig*> configs_;
};

/// Solution::fromConfig, frontier flavor: one leaf node plus the config's
/// cost triple.
FrontierEntry entryFromConfig(const accel::AcceleratorConfig& config,
                              double clockRatio, SolutionArena& arena);

/// Solution::merge, frontier flavor: O(1), allocates exactly one node.
FrontierEntry mergeEntries(const FrontierEntry& x, const FrontierEntry& y,
                           double clockRatio, SolutionArena& arena);

// ---------------------------------------------------------------------------
// Flat fronts. The frontier DP keeps every live front in one scratch vector
// used as a stack: a front is the range [first, buffer.size()) at the top,
// and the primitives below rewrite that range in place, shrinking the
// buffer to the survivors. They take offsets, never references or
// iterators, because combine() appends to the same vector it reads.
// ---------------------------------------------------------------------------

/// pareto() over buffer[first, end) — same std::sort, comparator, survivor
/// rule and trace counter as the Solution overload, minus the
/// per-comparison savedCycles recomputation (it is cached in the entry).
/// Leaves the strict front at [first, end).
void pareto(std::vector<FrontierEntry>& buffer, size_t first);

/// filterByAlpha() over buffer[first, end) — same algorithm and trace
/// counter as the Solution overload.
void filterByAlpha(std::vector<FrontierEntry>& buffer, size_t first,
                   double alpha);

/// The ⊗ operation plus Algorithm 1's pareto and α-filter over two adjacent
/// fronts, A = buffer[a, b) and B = buffer[b, end): the filtered result
/// replaces both, starting at `a`. Pairs are merged x-major (x from A, y
/// from B) with an early budget break-out: B ascends in area, so once
/// x.area + y.area exceeds the budget no later y fits. That admits exactly
/// the pairs the reference combine admits, in the same order.
/// `stats`, when non-null, accumulates the merged pairs created
/// (combinePairs, the select.combine_pairs counter) and what the budget
/// tests saw (budgetBound, maxAdmittedAreaUm2), as the reference combine's.
///
/// Preconditions (checked in debug builds): A and B are strictly ascending
/// in area and saved cycles — the pareto() postcondition — and each already
/// passes filterByAlpha at `alpha` unchanged. Every DP front meets both.
void combine(std::vector<FrontierEntry>& buffer, size_t a, size_t b,
             double areaBudget, double clockRatio, double alpha,
             SolutionArena& arena, SelectStats* stats = nullptr);

/// Vector conveniences over the range forms, for tests and benchmarks.
inline std::vector<FrontierEntry> pareto(std::vector<FrontierEntry> entries) {
  pareto(entries, 0); return entries;
}
inline std::vector<FrontierEntry> filterByAlpha(
    std::vector<FrontierEntry> entries, double alpha) {
  filterByAlpha(entries, 0, alpha); return entries;
}
/// ⊗ plus pareto, without the α-filter (alpha = 1 keeps every entry).
std::vector<FrontierEntry> combine(const std::vector<FrontierEntry>& a,
                                   const std::vector<FrontierEntry>& b,
                                   double areaBudget, double clockRatio,
                                   SolutionArena& arena,
                                   SelectStats* stats = nullptr);

/// Expands one surviving entry into a full Solution: configs from the arena
/// walk, cost triple from the entry's (bit-identical) accumulated sums.
Solution materialize(const FrontierEntry& entry, const SolutionArena& arena);

}  // namespace cayman::select
