#include "analysis/cfg.h"

namespace cayman::analysis {

Cfg::Cfg(const ir::Function& function)
    : function_(function),
      preds_(function.numBlocks()),
      rpoIndex_(function.numBlocks(), -1) {
  // Iterative DFS producing post-order, then reverse it. rpoIndex_ doubles
  // as the visited mark (0 = on the stack or finished) until it is filled.
  std::vector<std::pair<const ir::BasicBlock*, size_t>> stack;
  std::vector<const ir::BasicBlock*> postOrder;
  postOrder.reserve(function.numBlocks());

  const ir::BasicBlock* entry = function.entry();
  stack.emplace_back(entry, 0);
  rpoIndex_[entry->index()] = 0;
  while (!stack.empty()) {
    auto& [block, nextSucc] = stack.back();
    const ir::Instruction* term = block->terminator();
    CAYMAN_ASSERT(term != nullptr, "unterminated block in Cfg");
    auto succs = term->successors();
    if (nextSucc < succs.size()) {
      const ir::BasicBlock* succ = succs[nextSucc++];
      CAYMAN_ASSERT(succ->parent() == &function,
                    "branch to a block of another function in Cfg");
      if (rpoIndex_[succ->index()] < 0) {
        rpoIndex_[succ->index()] = 0;
        stack.emplace_back(succ, 0);
      }
    } else {
      postOrder.push_back(block);
      stack.pop_back();
    }
  }
  rpo_.assign(postOrder.rbegin(), postOrder.rend());
  for (size_t i = 0; i < rpo_.size(); ++i) {
    rpoIndex_[rpo_[i]->index()] = static_cast<int>(i);
  }

  for (const ir::BasicBlock* block : rpo_) {
    const ir::Instruction* term = block->terminator();
    if (term->opcode() == ir::Opcode::Ret) exits_.push_back(block);
    for (const ir::BasicBlock* succ : term->successors()) {
      preds_[succ->index()].push_back(block);
    }
  }
}

}  // namespace cayman::analysis
