#include "merge/graph.h"

#include <algorithm>
#include <numeric>
#include <queue>

namespace cayman::merge {

namespace {

const ir::Type* typeForArea(const ir::Instruction& inst) {
  // Stores are void-typed; their datapath width is the stored value's.
  if (inst.opcode() == ir::Opcode::Store) return inst.operand(0)->type();
  return inst.type();
}

unsigned unrollOf(const accel::AcceleratorConfig& config,
                  const ir::BasicBlock* block) {
  // The block replicates per the unroll factor of its innermost configured
  // loop (conservatively 1 when it is not inside a configured loop).
  for (const accel::LoopConfig& lc : config.loops) {
    if (lc.loop != nullptr && lc.loop->contains(block)) {
      return std::max(1u, lc.unroll);
    }
  }
  return 1;
}

}  // namespace

std::vector<Unit> extractUnits(const select::Solution& solution) {
  std::vector<Unit> units;
  for (size_t a = 0; a < solution.accelerators.size(); ++a) {
    const accel::AcceleratorConfig& config = solution.accelerators[a];
    for (const ir::BasicBlock* block : config.region->blocks()) {
      Unit unit;
      unit.acceleratorIndex = a;
      unsigned unroll = unrollOf(config, block);
      for (const auto& inst : block->instructions()) {
        if (inst->opcode() == ir::Opcode::Phi || inst->isTerminator()) {
          continue;
        }
        const ir::Type* type = typeForArea(*inst);
        unit.ops[{inst->opcode(), type->bitWidth() >= 64}] += unroll;
      }
      if (!unit.ops.empty()) units.push_back(std::move(unit));
    }
  }
  return units;
}

unsigned operandCount(ir::Opcode op) {
  switch (op) {
    case ir::Opcode::FNeg: case ir::Opcode::FSqrt: case ir::Opcode::FAbs:
    case ir::Opcode::ZExt: case ir::Opcode::SExt: case ir::Opcode::Trunc:
    case ir::Opcode::SIToFP: case ir::Opcode::FPToSI: case ir::Opcode::Load:
      return 1;
    case ir::Opcode::Select:
      return 3;
    default:
      return 2;
  }
}

unsigned selectBits(unsigned k) {
  unsigned bits = 0;
  while ((1u << bits) < k) ++bits;
  return bits;
}

double muxInputBits(unsigned fanIn) {
  if (fanIn < 2) return 0.0;
  return static_cast<double>(fanIn) * selectBits(fanIn);
}

double configBits(unsigned fanIn) {
  if (fanIn < 2) return 0.0;
  return 2.0 * selectBits(fanIn);
}

double unitPairSaving(const hls::TechLibrary& tech, const Unit& a,
                      const Unit& b) {
  unsigned combined = a.fanIn + b.fanIn;
  // Incremental select-network growth: what the merged unit needs minus what
  // both halves already paid for in their own earlier merges.
  double muxDeltaBits =
      muxInputBits(combined) - muxInputBits(a.fanIn) - muxInputBits(b.fanIn);
  double configDeltaBits =
      configBits(combined) - configBits(a.fanIn) - configBits(b.fanIn);
  double saving = 0.0;
  for (const auto& [opClass, countA] : a.ops) {
    auto it = b.ops.find(opClass);
    if (it == b.ops.end()) continue;
    unsigned shared = std::min(countA, it->second);
    const ir::Type* type = opClass.second ? ir::Type::i64() : ir::Type::i32();
    double opArea = tech.opInfo(opClass.first, type).areaUm2;
    unsigned bits = opClass.second ? 64 : 32;
    double muxCost =
        operandCount(opClass.first) * muxDeltaBits * bits *
            tech.muxAreaPerInputBit +
        configDeltaBits * tech.configBitArea;
    // Not-worth-sharing op classes contribute nothing: a merger would keep
    // separate instances rather than pay more mux area than the operator is
    // worth, so a cheap-op-dominated pair must never drag the total saving
    // below what its expensive ops alone justify.
    saving += shared * std::max(0.0, opArea - muxCost);
  }
  return saving;
}

void absorbUnit(Unit& into, Unit& from) {
  for (const auto& [opClass, count] : from.ops) {
    into.ops[opClass] = std::max(into.ops[opClass], count);
  }
  into.fanIn += from.fanIn;
  from.alive = false;
}

UnionFind::UnionFind(size_t n) : parent_(n) {
  std::iota(parent_.begin(), parent_.end(), size_t{0});
}

size_t UnionFind::find(size_t x) {
  while (parent_[x] != x) {
    parent_[x] = parent_[parent_[x]];  // path halving, no recursion
    x = parent_[x];
  }
  return x;
}

void UnionFind::unite(size_t from, size_t into) {
  parent_[find(from)] = find(into);
}

namespace {

/// One scored compatibility edge. Stamps snapshot the endpoints' merge
/// generation at scoring time: a popped edge whose stamp trails the current
/// one is stale (the unit's ops/fan-in changed and a freshly-scored entry
/// for the pair is already in the heap), so it is discarded.
struct Edge {
  double saving = 0.0;
  uint32_t i = 0, j = 0;  // unit indices, i < j
  uint32_t stampI = 0, stampJ = 0;
};

/// Max-heap order mirroring the reference scan's pick: highest saving first,
/// ties broken by the lexicographically smallest (i, j) — exactly the pair a
/// strict `saving > best` row-major sweep settles on.
struct EdgeOrder {
  bool operator()(const Edge& a, const Edge& b) const {
    if (a.saving != b.saving) return a.saving < b.saving;
    if (a.i != b.i) return a.i > b.i;
    return a.j > b.j;
  }
};

}  // namespace

double matchUnitsGraph(std::vector<Unit>& units, const hls::TechLibrary& tech,
                       UnionFind& groups, MatchStats& stats) {
  std::priority_queue<Edge, std::vector<Edge>, EdgeOrder> heap;
  std::vector<uint32_t> stamp(units.size(), 0);

  // Initial compatibility scan: score every cross-accelerator pair once.
  // Non-positive edges never enter the heap (and can only become positive
  // through a merge, which rescores the surviving endpoint's edges anyway).
  for (uint32_t i = 0; i < units.size(); ++i) {
    for (uint32_t j = i + 1; j < units.size(); ++j) {
      if (units[i].acceleratorIndex == units[j].acceleratorIndex) continue;
      ++stats.pairsScored;
      double saving = unitPairSaving(tech, units[i], units[j]);
      if (saving > 0.0) heap.push(Edge{saving, i, j, 0, 0});
    }
  }

  double total = 0.0;
  while (!heap.empty()) {
    Edge edge = heap.top();
    heap.pop();
    Unit& into = units[edge.i];
    Unit& from = units[edge.j];
    if (!into.alive || !from.alive) continue;
    if (edge.stampI != stamp[edge.i] || edge.stampJ != stamp[edge.j]) {
      continue;  // stale weight; the rescored entry is still queued
    }
    if (groups.find(into.acceleratorIndex) ==
        groups.find(from.acceleratorIndex)) {
      continue;  // intra-group sharing is not fresh saving
    }

    absorbUnit(into, from);
    groups.unite(from.acceleratorIndex, into.acceleratorIndex);
    total += edge.saving;
    ++stats.steps;
    ++stamp[edge.i];

    // Only the surviving unit's edges changed weight: rescore them eagerly
    // so the heap always holds a current entry for every live cross-group
    // pair. Everything else keeps its exact cached weight.
    size_t root = groups.find(into.acceleratorIndex);
    for (uint32_t k = 0; k < units.size(); ++k) {
      if (k == edge.i || !units[k].alive) continue;
      if (groups.find(units[k].acceleratorIndex) == root) continue;
      ++stats.pairsScored;
      uint32_t lo = std::min(k, edge.i);
      uint32_t hi = std::max(k, edge.i);
      double saving = unitPairSaving(tech, units[lo], units[hi]);
      if (saving > 0.0) {
        heap.push(Edge{saving, lo, hi, stamp[lo], stamp[hi]});
      }
    }
  }
  return total;
}

}  // namespace cayman::merge
