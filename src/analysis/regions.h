// SESE region tree (program structure tree) and the whole-application PST.
//
// Paper §III-B: the wPST extends the per-function PST with a root vertex for
// the application and one vertex per function. Region vertices are the legal
// acceleration candidates: *bb* regions (basic blocks) and *ctrl-flow*
// regions (loops and if/else diamonds), both single-entry-single-exit.
#pragma once

#include <memory>

#include "analysis/memdep.h"
#include "ir/module.h"

namespace cayman::analysis {

enum class RegionKind {
  Root,      ///< the whole application (cannot be selected)
  Function,  ///< one per function (cannot be selected)
  Loop,      ///< ctrl-flow region: a natural loop
  If,        ///< ctrl-flow region: an if/else diamond
  Bb,        ///< a single basic block
};

class Region {
 public:
  RegionKind kind() const { return kind_; }
  int id() const { return id_; }
  const std::string& label() const { return label_; }

  bool isCtrlFlow() const {
    return kind_ == RegionKind::Loop || kind_ == RegionKind::If;
  }
  bool isBb() const { return kind_ == RegionKind::Bb; }
  /// Only bb and ctrl-flow regions may be offloaded (paper §III-B); regions
  /// containing calls are excluded because the kernel must run isolated from
  /// the processor.
  bool isCandidate() const {
    return (isCtrlFlow() || isBb()) && !containsCall_;
  }
  bool containsCall() const { return containsCall_; }

  const ir::Function* function() const { return function_; }
  /// The loop of a Loop region; nullptr otherwise.
  const Loop* loop() const { return loop_; }
  /// The single block of a Bb region / the branching block of an If region.
  const ir::BasicBlock* block() const { return block_; }
  /// Every basic block contained in the region (transitively).
  const std::vector<const ir::BasicBlock*>& blocks() const { return blocks_; }

  /// Block whose execution count equals the region's entry count.
  const ir::BasicBlock* profileAnchor() const { return anchor_; }

  Region* parent() const { return parent_; }
  const std::vector<std::unique_ptr<Region>>& children() const {
    return children_;
  }

  /// Depth-first walk (pre-order) over this subtree.
  template <typename Fn>
  void walk(Fn&& fn) const {
    fn(*this);
    for (const auto& child : children_) child->walk(fn);
  }

 private:
  friend class WPst;

  RegionKind kind_ = RegionKind::Bb;
  int id_ = -1;
  std::string label_;
  bool containsCall_ = false;
  const ir::Function* function_ = nullptr;
  const Loop* loop_ = nullptr;
  const ir::BasicBlock* block_ = nullptr;
  std::vector<const ir::BasicBlock*> blocks_;
  const ir::BasicBlock* anchor_ = nullptr;
  Region* parent_ = nullptr;
  std::vector<std::unique_ptr<Region>> children_;
};

/// Every static analysis of one function, built once by the WPst (the
/// pipeline's Analyze stage) and read by all downstream passes: the region
/// builder and both accelerator models. Building it rejects a function
/// with a use its definition does not dominate (verifiedDominators).
struct FunctionAnalyses {
  explicit FunctionAnalyses(const ir::Function& function)
      : cfg(function),
        dom(verifiedDominators(cfg)),
        postDom(DominatorTree::postDominators(cfg)),
        loops(cfg, dom),
        scev(function, *this),
        mem(function, *this, scev) {}
  FunctionAnalyses(const FunctionAnalyses&) = delete;
  FunctionAnalyses& operator=(const FunctionAnalyses&) = delete;

  Cfg cfg;
  DominatorTree dom;
  DominatorTree postDom;
  LoopInfo loops;
  // Members are built in declaration order, so these two read the CFG
  // analyses above through the half-built bundle.
  ScalarEvolution scev;
  MemoryAnalysis mem;
};

/// The whole-application program structure tree.
class WPst {
 public:
  explicit WPst(const ir::Module& module);

  const ir::Module& module() const { return module_; }
  const Region* root() const { return root_.get(); }

  /// All regions indexed by Region::id().
  const std::vector<const Region*>& allRegions() const { return byId_; }
  const Region* regionById(int id) const { return byId_.at(id); }
  /// Innermost region owning `block` (its Bb region); nullptr for blocks
  /// outside the tree.
  const Region* bbRegion(const ir::BasicBlock* block) const;
  /// The Loop region vertex for `loop`; nullptr when it has none.
  const Region* loopRegion(const Loop* loop) const;

  /// The analyses of one of the module's functions.
  const FunctionAnalyses& analyses(const ir::Function* function) const;

 private:
  /// What the tree keeps per function; the lookups are vectors indexed by
  /// ir::BasicBlock::index() and Loop::index().
  struct PerFunction {
    std::unique_ptr<FunctionAnalyses> analyses;
    std::vector<const Region*> bbRegions;
    std::vector<const Region*> loopRegions;
  };
  /// The slot of a function of the module (a scan: modules have few);
  /// nullptr for other functions.
  const PerFunction* find(const ir::Function* function) const;

  Region* makeRegion(RegionKind kind, Region* parent);
  /// Builds child regions of `parent` for the blocks in `scope`, which all
  /// live at loop-nesting context `context` (nullptr = function top level).
  void buildScope(Region* parent, const ir::Function& function,
                  PerFunction& slot,
                  const std::vector<const ir::BasicBlock*>& scope,
                  const Loop* context);
  void finalize(Region* region);

  const ir::Module& module_;
  std::unique_ptr<Region> root_;
  std::vector<const Region*> byId_;
  std::vector<PerFunction> functions_;  ///< parallel to module().functions()
  int nextId_ = 0;
};

}  // namespace cayman::analysis
