#include "analysis/loops.h"

#include <algorithm>

namespace cayman::analysis {

bool Loop::contains(const Loop* other) const {
  for (const Loop* l = other; l != nullptr; l = l->parent()) {
    if (l == this) return true;
  }
  return false;
}

LoopInfo::LoopInfo(const Cfg& cfg, const DominatorTree& domTree)
    : innermost_(cfg.numBlocks(), nullptr) {
  const size_t numBlocks = cfg.numBlocks();
  const auto& functionBlocks = cfg.function().blocks();

  // 1. Find back edges (latch -> header with header dominating latch) and
  //    collect each natural loop's blocks by reverse reachability.
  for (const ir::BasicBlock* block : cfg.rpo()) {
    for (const ir::BasicBlock* succ : block->terminator()->successors()) {
      if (!domTree.dominates(succ, block)) continue;
      // succ is a loop header, block the latch.
      auto loop = std::make_unique<Loop>();
      loop->header_ = succ;
      loop->latch_ = block;
      loop->index_ = static_cast<unsigned>(loops_.size());
      loop->member_.assign(numBlocks, false);
      loop->member_[succ->index()] = true;
      std::vector<const ir::BasicBlock*> work{block};
      while (!work.empty()) {
        const ir::BasicBlock* b = work.back();
        work.pop_back();
        if (loop->member_[b->index()]) continue;
        loop->member_[b->index()] = true;
        for (const ir::BasicBlock* pred : cfg.predecessors(b)) {
          work.push_back(pred);
        }
      }
      for (size_t i = 0; i < numBlocks; ++i) {
        if (loop->member_[i]) loop->blocks_.push_back(functionBlocks[i].get());
      }
      loops_.push_back(std::move(loop));
    }
  }

  // 2. Nesting: parent = smallest strictly-containing loop.
  for (auto& loop : loops_) {
    Loop* best = nullptr;
    for (auto& candidate : loops_) {
      if (candidate.get() == loop.get()) continue;
      if (!candidate->member_[loop->header_->index()]) continue;
      if (candidate->blocks_.size() <= loop->blocks_.size()) continue;
      if (best == nullptr || candidate->blocks_.size() < best->blocks_.size()) {
        best = candidate.get();
      }
    }
    loop->parent_ = best;
    if (best != nullptr) {
      best->subLoops_.push_back(loop.get());
    } else {
      topLevel_.push_back(loop.get());
    }
  }
  for (auto& loop : loops_) {
    unsigned depth = 1;
    for (Loop* p = loop->parent_; p != nullptr; p = p->parent_) ++depth;
    loop->depth_ = depth;
  }

  // 3. Canonical-form features: preheader, exits, innermost loop per block.
  std::vector<bool> isExit(numBlocks, false);
  for (auto& loop : loops_) {
    const ir::BasicBlock* preheader = nullptr;
    bool unique = true;
    for (const ir::BasicBlock* pred : cfg.predecessors(loop->header_)) {
      if (loop->member_[pred->index()]) continue;
      if (preheader != nullptr) unique = false;
      preheader = pred;
    }
    loop->preheader_ = unique ? preheader : nullptr;

    for (const ir::BasicBlock* block : loop->blocks_) {
      for (const ir::BasicBlock* succ : block->terminator()->successors()) {
        if (!loop->member_[succ->index()]) isExit[succ->index()] = true;
      }
    }
    for (size_t i = 0; i < numBlocks; ++i) {
      if (!isExit[i]) continue;
      loop->exits_.push_back(functionBlocks[i].get());
      isExit[i] = false;
    }

    for (const ir::BasicBlock* block : loop->blocks_) {
      const Loop*& slot = innermost_[block->index()];
      if (slot == nullptr || loop->depth_ > slot->depth_) slot = loop.get();
    }
  }

  // Deterministic order: outermost nests first, by header RPO position.
  auto byRpo = [&cfg](const Loop* a, const Loop* b) {
    return cfg.rpoIndex(a->header()) < cfg.rpoIndex(b->header());
  };
  std::sort(topLevel_.begin(), topLevel_.end(), byRpo);
  for (auto& loop : loops_) {
    std::sort(loop->subLoops_.begin(), loop->subLoops_.end(), byRpo);
  }
}

}  // namespace cayman::analysis
