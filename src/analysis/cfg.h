// Basic CFG utilities: predecessor lists and reverse post-order.
#pragma once

#include <vector>

#include "ir/function.h"

namespace cayman::analysis {

/// Predecessors / orderings computed once per function and shared by the
/// dominator, loop, and region analyses. Per-block tables are vectors
/// indexed by ir::BasicBlock::index(); the queries take blocks of this
/// function only.
class Cfg {
 public:
  explicit Cfg(const ir::Function& function);

  const ir::Function& function() const { return function_; }
  size_t numBlocks() const { return rpoIndex_.size(); }

  /// Reachable predecessors, in reverse post-order of the predecessor.
  const std::vector<const ir::BasicBlock*>& predecessors(
      const ir::BasicBlock* block) const {
    return preds_[block->index()];
  }

  /// Reverse post-order over reachable blocks, entry first.
  const std::vector<const ir::BasicBlock*>& rpo() const { return rpo_; }
  /// Position of a block in rpo(); -1 for unreachable blocks.
  int rpoIndex(const ir::BasicBlock* block) const {
    return rpoIndex_[block->index()];
  }
  bool isReachable(const ir::BasicBlock* block) const {
    return rpoIndex(block) >= 0;
  }

  /// Reachable blocks whose terminator is Ret, in reverse post-order.
  const std::vector<const ir::BasicBlock*>& exitBlocks() const {
    return exits_;
  }

 private:
  const ir::Function& function_;
  std::vector<std::vector<const ir::BasicBlock*>> preds_;
  std::vector<const ir::BasicBlock*> rpo_;
  std::vector<int> rpoIndex_;
  std::vector<const ir::BasicBlock*> exits_;
};

}  // namespace cayman::analysis
