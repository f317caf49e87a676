// Op-class compatibility graph for accelerator merging (paper §III-E):
// datapath units are nodes carrying per-unit fan-in state, edges carry the
// fan-in-aware net area saving of multiplexing two units onto one datapath,
// and merging is greedy maximum-weight matching over union-find *groups* —
// clustering rounds that contract the best positive edge until none remains.
//
// matchUnitsGraph contracts the graph with a lazy-deletion max-heap over
// scored edges. Only the edges incident to a surviving merged unit are
// rescored; everything else keeps its exact cached weight: O(U^2) initial
// scoring plus O(U log U) per merge step. Edges contract in the order
// (saving desc, then lowest unit index pair), the order the seed-era greedy
// rescan picks them in; that greedy lives on as a test-only oracle
// (tests/oracles/merge.h) pinned value-identical to this engine.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "hls/tech_library.h"
#include "select/solution.h"

namespace cayman::merge {

/// Operator class shared between datapaths: opcode plus wide (>= 64 bit).
using OpClass = std::pair<ir::Opcode, bool>;
using OpCounts = std::map<OpClass, unsigned>;

/// A mergeable datapath unit: the operator multiset of one basic block
/// (times its unroll replication), tagged with its owning accelerator and
/// the number of kernels already multiplexed onto it.
struct Unit {
  OpCounts ops;
  size_t acceleratorIndex = 0;
  /// Kernels this datapath serves. The k-th absorbed kernel widens every
  /// shared operator's operand muxes from k:1 to (k+1):1 — chained merges
  /// pay incrementally more, never a flat 2:1 (the seed-era accounting bug).
  unsigned fanIn = 1;
  bool alive = true;
};

/// Extracts the datapath units of a solution's accelerators: one unit per
/// basic block with at least one non-phi, non-terminator operation, operator
/// counts replicated by the block's configured unroll factor.
std::vector<Unit> extractUnits(const select::Solution& solution);

/// Datapath operand count of an opcode (mux-guarded inputs per operator).
unsigned operandCount(ir::Opcode op);

/// ceil(log2(k)) for k >= 1 (select-line width of a k-way choice).
unsigned selectBits(unsigned k);

/// Input bits of the operand-select network of one shared operator serving
/// `fanIn` kernels: k input words gated by a decoded select term whose cost
/// grows with the select width, i.e. k * ceil(log2 k) gated bits per operand
/// bit — so the k-th merge costs more than the first, not a flat 2:1 slice.
/// 0 for an unshared operator (no mux at all).
double muxInputBits(unsigned fanIn);

/// Reconfiguration-register bits per shared operator of a `fanIn`-kernel
/// unit: two bits per select line (select + enable), 0 when unshared.
double configBits(unsigned fanIn);

/// Fan-in-aware net area saving of merging units `a` and `b`: per shared
/// operator class, the eliminated duplicate operator area minus the
/// *incremental* mux-input and config-bit area of widening the combined
/// unit's select network from (fanIn_a, fanIn_b) to fanIn_a + fanIn_b.
/// Not-worth-sharing classes clamp at zero (kept as separate instances).
/// Symmetric in a and b.
double unitPairSaving(const hls::TechLibrary& tech, const Unit& a,
                      const Unit& b);

/// Folds `from` into `into`: the reconfigurable unit carries the op-class
/// maximum, accumulates fan-in, and `from` dies.
void absorbUnit(Unit& into, Unit& from);

/// Union-find over accelerator indices with *iterative path-halving* find —
/// no recursion, so population-scale merge chains cannot overflow the stack
/// (the seed used a recursive std::function).
class UnionFind {
 public:
  explicit UnionFind(size_t n);
  size_t find(size_t x);
  /// Attaches `from`'s root under `into`'s root.
  void unite(size_t from, size_t into);
  size_t size() const { return parent_.size(); }

 private:
  std::vector<size_t> parent_;
};

/// Matching statistics. `pairsScored` measures engine *work* (pairSaving
/// evaluations actually performed); it feeds benches only, never trace
/// counters.
struct MatchStats {
  int steps = 0;
  uint64_t pairsScored = 0;
};

/// Greedy maximum-weight matching over union-find groups via a lazy-deletion
/// edge heap. Mutates `units` (absorbed units die) and `groups`; returns the
/// total net area saving.
double matchUnitsGraph(std::vector<Unit>& units, const hls::TechLibrary& tech,
                       UnionFind& groups, MatchStats& stats);

}  // namespace cayman::merge
