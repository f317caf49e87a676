// Natural loop detection and the loop nesting forest.
#pragma once

#include <memory>

#include "analysis/dominators.h"

namespace cayman::analysis {

class Loop {
 public:
  const ir::BasicBlock* header() const { return header_; }
  const ir::BasicBlock* latch() const { return latch_; }
  /// Unique predecessor of the header from outside the loop; nullptr when
  /// the loop is not in canonical form.
  const ir::BasicBlock* preheader() const { return preheader_; }
  /// Blocks outside the loop reached from inside (canonical loops have one),
  /// in block order.
  const std::vector<const ir::BasicBlock*>& exitBlocks() const {
    return exits_;
  }

  /// Dense id: this loop's position in LoopInfo::loops().
  unsigned index() const { return index_; }

  /// The loop's blocks in block order.
  const std::vector<const ir::BasicBlock*>& blocks() const { return blocks_; }
  bool contains(const ir::BasicBlock* block) const {
    return block->parent() == header_->parent() && member_[block->index()];
  }
  bool contains(const Loop* other) const;

  Loop* parent() const { return parent_; }
  const std::vector<Loop*>& subLoops() const { return subLoops_; }
  /// 1 for outermost loops.
  unsigned depth() const { return depth_; }
  bool isInnermost() const { return subLoops_.empty(); }

  /// A printable label: the header block's name.
  const std::string& name() const { return header_->name(); }

 private:
  friend class LoopInfo;

  const ir::BasicBlock* header_ = nullptr;
  const ir::BasicBlock* latch_ = nullptr;
  const ir::BasicBlock* preheader_ = nullptr;
  std::vector<const ir::BasicBlock*> exits_;
  std::vector<const ir::BasicBlock*> blocks_;
  std::vector<bool> member_;  ///< by block index
  unsigned index_ = 0;
  Loop* parent_ = nullptr;
  std::vector<Loop*> subLoops_;
  unsigned depth_ = 1;
};

class LoopInfo {
 public:
  LoopInfo(const Cfg& cfg, const DominatorTree& domTree);

  /// All loops, outermost-first within each nest.
  const std::vector<std::unique_ptr<Loop>>& loops() const { return loops_; }
  const std::vector<Loop*>& topLevelLoops() const { return topLevel_; }

  /// Innermost loop containing `block` (a block of this function); nullptr
  /// when not in a loop.
  const Loop* loopFor(const ir::BasicBlock* block) const {
    return innermost_[block->index()];
  }
  unsigned loopDepth(const ir::BasicBlock* block) const {
    const Loop* loop = loopFor(block);
    return loop == nullptr ? 0 : loop->depth();
  }

 private:
  std::vector<std::unique_ptr<Loop>> loops_;
  std::vector<Loop*> topLevel_;
  std::vector<const Loop*> innermost_;  ///< by block index
};

}  // namespace cayman::analysis
