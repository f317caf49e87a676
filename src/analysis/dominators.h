// Dominator and post-dominator trees (Cooper–Harvey–Kennedy iterative
// algorithm over reverse post-order).
#pragma once

#include <utility>
#include <vector>

#include "analysis/cfg.h"

namespace cayman::analysis {

class DominatorTree {
 public:
  /// Builds the (forward) dominator tree over the blocks reachable from the
  /// entry.
  static DominatorTree dominators(const Cfg& cfg);
  /// Builds the post-dominator tree over the reachable blocks that reach a
  /// Ret. Every Ret block hangs off one virtual exit, so with several exits
  /// a block post-dominates another only if it lies on all its paths to any
  /// of them.
  static DominatorTree postDominators(const Cfg& cfg);

  /// Immediate (post-)dominator; nullptr for the root (and, in the post-dom
  /// tree, for blocks whose ipdom is the virtual exit) and for blocks
  /// outside the tree.
  const ir::BasicBlock* idom(const ir::BasicBlock* block) const {
    return idom_[block->index()];
  }

  /// Reflexive dominance query. A block outside the tree (unreachable, or
  /// in the post-dom tree unable to reach an exit) dominates and is
  /// dominated by itself only.
  bool dominates(const ir::BasicBlock* a, const ir::BasicBlock* b) const;
  bool strictlyDominates(const ir::BasicBlock* a,
                         const ir::BasicBlock* b) const {
    return a != b && dominates(a, b);
  }

 private:
  DominatorTree() = default;

  /// Fills idom_ and interval_ from per-node immediate dominators (node ids
  /// are block indices, plus the virtual exit when `numNodes` exceeds the
  /// block count; -1 = none).
  void build(const Cfg& cfg, const std::vector<int>& idomNode, int root);

  /// Immediate dominator per block index.
  std::vector<const ir::BasicBlock*> idom_;
  /// Euler-tour interval per node for O(1) dominance queries; first < 0
  /// for nodes outside the tree.
  std::vector<std::pair<int, int>> interval_;
};

/// The dominator tree of cfg.function(), once every instruction operand's
/// definition is checked to dominate its use (for a phi, the end of the
/// incoming block); uses in unreachable blocks are exempt. Throws a
/// Stage::Verify support::DiagnosticError naming the first offender.
DominatorTree verifiedDominators(const Cfg& cfg);

}  // namespace cayman::analysis
