#include "analysis/dominators.h"

#include <algorithm>

#include "ir/module.h"
#include "support/status.h"

namespace cayman::analysis {

namespace {

/// Cooper–Harvey–Kennedy over dense node ids. `order` lists the nodes
/// reachable from the root in reverse post-order, root first;
/// `forEachPred(node, visit)` calls `visit(pred)` for every predecessor
/// node. Returns each node's immediate dominator (-1 for the root and for
/// nodes not in `order`).
template <typename ForEachPred>
std::vector<int> solve(const std::vector<int>& order, size_t numNodes,
                       ForEachPred&& forEachPred) {
  std::vector<int> position(numNodes, -1);
  for (size_t i = 0; i < order.size(); ++i) {
    position[static_cast<size_t>(order[i])] = static_cast<int>(i);
  }

  // Immediate dominators by position in `order`.
  std::vector<int> idom(order.size(), -1);
  if (!order.empty()) idom[0] = 0;

  auto intersect = [&](int a, int b) {
    while (a != b) {
      while (a > b) a = idom[static_cast<size_t>(a)];
      while (b > a) b = idom[static_cast<size_t>(b)];
    }
    return a;
  };

  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 1; i < order.size(); ++i) {
      int newIdom = -1;
      forEachPred(order[i], [&](int predNode) {
        int p = position[static_cast<size_t>(predNode)];
        if (p < 0) return;  // outside the graph reachable from the root
        if (idom[static_cast<size_t>(p)] < 0) return;
        newIdom = newIdom < 0 ? p : intersect(newIdom, p);
      });
      if (newIdom >= 0 && idom[i] != newIdom) {
        idom[i] = newIdom;
        changed = true;
      }
    }
  }

  std::vector<int> result(numNodes, -1);
  for (size_t i = 1; i < order.size(); ++i) {
    if (idom[i] >= 0) {
      result[static_cast<size_t>(order[i])] =
          order[static_cast<size_t>(idom[i])];
    }
  }
  return result;
}

}  // namespace

DominatorTree DominatorTree::dominators(const Cfg& cfg) {
  std::vector<int> order;
  order.reserve(cfg.rpo().size());
  for (const ir::BasicBlock* block : cfg.rpo()) {
    order.push_back(static_cast<int>(block->index()));
  }
  const ir::Function& function = cfg.function();
  std::vector<int> idomNode =
      solve(order, cfg.numBlocks(), [&](int node, auto&& visit) {
        const ir::BasicBlock* block =
            function.blocks()[static_cast<size_t>(node)].get();
        for (const ir::BasicBlock* pred : cfg.predecessors(block)) {
          visit(static_cast<int>(pred->index()));
        }
      });
  DominatorTree tree;
  tree.build(cfg, idomNode, order.empty() ? -1 : order[0]);
  return tree;
}

DominatorTree DominatorTree::postDominators(const Cfg& cfg) {
  // Reverse CFG rooted at a virtual exit (node id = block count) whose
  // reverse-graph successors are the Ret blocks; order = its reverse
  // post-order.
  const ir::Function& function = cfg.function();
  const size_t numBlocks = cfg.numBlocks();
  const int virtualExit = static_cast<int>(numBlocks);
  auto block = [&](int node) {
    return function.blocks()[static_cast<size_t>(node)].get();
  };

  std::vector<char> visited(numBlocks + 1, 0);
  std::vector<int> postOrder;
  postOrder.reserve(numBlocks + 1);
  std::vector<std::pair<int, size_t>> stack{{virtualExit, 0}};
  visited[numBlocks] = 1;
  while (!stack.empty()) {
    auto& [node, next] = stack.back();
    const std::vector<const ir::BasicBlock*>& succs =
        node == virtualExit ? cfg.exitBlocks() : cfg.predecessors(block(node));
    if (next < succs.size()) {
      int succ = static_cast<int>(succs[next++]->index());
      if (visited[static_cast<size_t>(succ)] == 0) {
        visited[static_cast<size_t>(succ)] = 1;
        stack.emplace_back(succ, 0);
      }
    } else {
      postOrder.push_back(node);
      stack.pop_back();
    }
  }
  std::vector<int> order(postOrder.rbegin(), postOrder.rend());

  std::vector<int> idomNode =
      solve(order, numBlocks + 1, [&](int node, auto&& visit) {
        if (node == virtualExit) return;
        const ir::Instruction* term = block(node)->terminator();
        if (term->opcode() == ir::Opcode::Ret) visit(virtualExit);
        for (const ir::BasicBlock* succ : term->successors()) {
          visit(static_cast<int>(succ->index()));
        }
      });
  DominatorTree tree;
  tree.build(cfg, idomNode, virtualExit);
  return tree;
}

void DominatorTree::build(const Cfg& cfg, const std::vector<int>& idomNode,
                          int root) {
  const size_t numBlocks = cfg.numBlocks();
  const size_t numNodes = idomNode.size();
  const auto& blocks = cfg.function().blocks();

  idom_.assign(numBlocks, nullptr);
  for (size_t node = 0; node < numBlocks; ++node) {
    int parent = idomNode[node];
    if (parent >= 0 && static_cast<size_t>(parent) < numBlocks) {
      idom_[node] = blocks[static_cast<size_t>(parent)].get();
    }
  }

  // Children as first-child / next-sibling lists, then an iterative Euler
  // tour assigning [in, out] intervals.
  interval_.assign(numNodes, {-1, -1});
  if (root < 0) return;
  std::vector<int> firstChild(numNodes, -1);
  std::vector<int> nextSibling(numNodes, -1);
  for (size_t node = numNodes; node-- > 0;) {
    int parent = idomNode[node];
    if (parent < 0) continue;
    nextSibling[node] = firstChild[static_cast<size_t>(parent)];
    firstChild[static_cast<size_t>(parent)] = static_cast<int>(node);
  }
  int clock = 0;
  // (node, next child to visit)
  std::vector<std::pair<int, int>> stack{
      {root, firstChild[static_cast<size_t>(root)]}};
  interval_[static_cast<size_t>(root)].first = clock++;
  while (!stack.empty()) {
    auto& [node, child] = stack.back();
    if (child >= 0) {
      int next = child;
      child = nextSibling[static_cast<size_t>(next)];
      interval_[static_cast<size_t>(next)].first = clock++;
      stack.emplace_back(next, firstChild[static_cast<size_t>(next)]);
    } else {
      interval_[static_cast<size_t>(node)].second = clock++;
      stack.pop_back();
    }
  }
}

bool DominatorTree::dominates(const ir::BasicBlock* a,
                              const ir::BasicBlock* b) const {
  if (a == b) return true;
  const std::pair<int, int>& ia = interval_[a->index()];
  const std::pair<int, int>& ib = interval_[b->index()];
  if (ia.first < 0 || ib.first < 0) return false;
  return ia.first <= ib.first && ib.second <= ia.second;
}

DominatorTree verifiedDominators(const Cfg& cfg) {
  DominatorTree dom = DominatorTree::dominators(cfg);
  const ir::Function& function = cfg.function();

  // Each instruction's position in its block, sorted by address, orders a
  // use after a definition in the same block in O(log n).
  std::vector<std::pair<const ir::Instruction*, size_t>> position;
  for (const auto& block : function.blocks()) {
    for (size_t i = 0; i < block->size(); ++i) {
      position.emplace_back(block->instructions()[i].get(), i);
    }
  }
  std::sort(position.begin(), position.end());
  auto before = [&](const ir::Instruction* def, size_t at) {
    return std::lower_bound(position.begin(), position.end(),
                            std::make_pair(def, size_t{0}))
               ->second < at;
  };

  for (const auto& block : function.blocks()) {
    if (!cfg.isReachable(block.get())) continue;
    for (size_t at = 0; at < block->size(); ++at) {
      const ir::Instruction& use = *block->instructions()[at];
      for (size_t k = 0; k < use.numOperands(); ++k) {
        // Arguments, constants and globals are available everywhere.
        const auto* def = ir::dynCast<ir::Instruction>(use.operand(k));
        if (def == nullptr) continue;
        const ir::BasicBlock* defBlock = def->parent();
        bool ok = defBlock != nullptr && defBlock->parent() == &function;
        if (ok && use.opcode() == ir::Opcode::Phi) {
          // A phi reads its operand at the end of the incoming block.
          const ir::BasicBlock* from = use.incomingBlocks()[k];
          ok = !cfg.isReachable(from) || dom.dominates(defBlock, from);
        } else if (ok) {
          ok = defBlock == block.get() ? before(def, at)
                                       : dom.dominates(defBlock, block.get());
        }
        if (ok) continue;
        throw support::DiagnosticError(support::Diagnostic{
            support::Stage::Verify,
            function.parent() != nullptr ? function.parent()->name() : "",
            "in @" + function.name() + ": " +
                (def->name().empty() ? "an unnamed value" : "%" + def->name()) +
                " does not dominate its use in " + block->name()});
      }
    }
  }
  return dom;
}

}  // namespace cayman::analysis
