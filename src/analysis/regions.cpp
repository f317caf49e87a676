#include "analysis/regions.h"

namespace cayman::analysis {

namespace {

bool blockContainsCall(const ir::BasicBlock* block) {
  for (const auto& inst : block->instructions()) {
    if (inst->opcode() == ir::Opcode::Call) return true;
  }
  return false;
}

}  // namespace

WPst::WPst(const ir::Module& module) : module_(module) {
  functions_.reserve(module.functions().size());
  for (const auto& function : module.functions()) {
    PerFunction slot;
    slot.analyses = std::make_unique<FunctionAnalyses>(*function);
    slot.bbRegions.assign(function->numBlocks(), nullptr);
    slot.loopRegions.assign(slot.analyses->loops.loops().size(), nullptr);
    functions_.push_back(std::move(slot));
  }

  root_ = std::make_unique<Region>();
  root_->kind_ = RegionKind::Root;
  root_->id_ = nextId_++;
  root_->label_ = "app:" + module.name();
  byId_.push_back(root_.get());

  for (size_t i = 0; i < functions_.size(); ++i) {
    const ir::Function& function = *module.functions()[i];
    PerFunction& slot = functions_[i];
    Region* functionRegion = makeRegion(RegionKind::Function, root_.get());
    functionRegion->function_ = &function;
    functionRegion->label_ = "@" + function.name();
    functionRegion->anchor_ = function.entry();
    functionRegion->blocks_ = slot.analyses->cfg.rpo();
    buildScope(functionRegion, function, slot, slot.analyses->cfg.rpo(),
               nullptr);
  }

  finalize(root_.get());
}

Region* WPst::makeRegion(RegionKind kind, Region* parent) {
  auto region = std::make_unique<Region>();
  region->kind_ = kind;
  region->id_ = nextId_++;
  region->parent_ = parent;
  Region* raw = region.get();
  byId_.push_back(raw);
  parent->children_.push_back(std::move(region));
  return raw;
}

void WPst::buildScope(Region* parent, const ir::Function& function,
                      PerFunction& slot,
                      const std::vector<const ir::BasicBlock*>& scope,
                      const Loop* context) {
  const FunctionAnalyses& fa = *slot.analyses;
  std::vector<char> inScope(function.numBlocks(), 0);
  for (const ir::BasicBlock* block : scope) inScope[block->index()] = 1;
  std::vector<char> assigned(function.numBlocks(), 0);

  auto makeBb = [&](const ir::BasicBlock* block, Region* owner) {
    Region* bb = makeRegion(RegionKind::Bb, owner);
    bb->kind_ = RegionKind::Bb;
    bb->function_ = &function;
    bb->block_ = block;
    bb->blocks_ = {block};
    bb->anchor_ = block;
    bb->label_ = "bb @" + function.name() + ":" + block->name();
    bb->containsCall_ = blockContainsCall(block);
    slot.bbRegions[block->index()] = bb;
  };

  for (const ir::BasicBlock* block : scope) {
    if (assigned[block->index()] != 0) continue;
    assigned[block->index()] = 1;

    // --- Loop region: `block` heads a loop nested directly below `context`.
    const Loop* loop = fa.loops.loopFor(block);
    if (loop != nullptr && loop != context && block == loop->header()) {
      CAYMAN_ASSERT(loop->parent() == context,
                    "unstructured loop nesting at " + block->name());
      Region* loopRegion = makeRegion(RegionKind::Loop, parent);
      loopRegion->function_ = &function;
      loopRegion->loop_ = loop;
      loopRegion->block_ = block;
      loopRegion->anchor_ =
          loop->preheader() != nullptr ? loop->preheader() : loop->header();
      loopRegion->label_ = "loop @" + function.name() + ":" + block->name();
      slot.loopRegions[loop->index()] = loopRegion;

      std::vector<const ir::BasicBlock*> inner;
      for (const ir::BasicBlock* b : fa.cfg.rpo()) {
        if (loop->contains(b)) {
          inner.push_back(b);
          assigned[b->index()] = 1;
        }
      }
      loopRegion->blocks_ = inner;
      buildScope(loopRegion, function, slot, inner, loop);
      continue;
    }

    // --- If region: a condbr diamond that rejoins inside the scope.
    const ir::Instruction* term = block->terminator();
    if (term->opcode() == ir::Opcode::CondBr) {
      const ir::BasicBlock* join = fa.postDom.idom(block);
      auto succs = term->successors();
      bool succsInScope =
          inScope[succs[0]->index()] != 0 && inScope[succs[1]->index()] != 0;
      if (join != nullptr && succsInScope && inScope[join->index()] != 0) {
        // Collect blocks strictly between the branch and the join.
        std::vector<char> inBody(function.numBlocks(), 0);
        bool bodyEmpty = true;
        std::vector<const ir::BasicBlock*> work{succs[0], succs[1]};
        bool sese = true;
        while (!work.empty() && sese) {
          const ir::BasicBlock* b = work.back();
          work.pop_back();
          if (b == join || inBody[b->index()] != 0) continue;
          if (inScope[b->index()] == 0 || !fa.dom.dominates(block, b) ||
              assigned[b->index()] != 0) {
            sese = false;
            break;
          }
          inBody[b->index()] = 1;
          bodyEmpty = false;
          for (const ir::BasicBlock* succ : b->terminator()->successors()) {
            work.push_back(succ);
          }
        }
        if (sese && !bodyEmpty) {
          Region* ifRegion = makeRegion(RegionKind::If, parent);
          ifRegion->function_ = &function;
          ifRegion->block_ = block;
          ifRegion->anchor_ = block;
          ifRegion->label_ =
              "if @" + function.name() + ":" + block->name();
          ifRegion->blocks_.push_back(block);
          makeBb(block, ifRegion);

          std::vector<const ir::BasicBlock*> inner;
          for (const ir::BasicBlock* b : fa.cfg.rpo()) {
            if (inBody[b->index()] != 0) {
              inner.push_back(b);
              assigned[b->index()] = 1;
            }
          }
          ifRegion->blocks_.insert(ifRegion->blocks_.end(), inner.begin(),
                                   inner.end());
          buildScope(ifRegion, function, slot, inner, context);
          continue;
        }
      }
    }

    // --- Plain basic block.
    makeBb(block, parent);
  }
}

void WPst::finalize(Region* region) {
  for (auto& child : region->children_) {
    finalize(child.get());
    region->containsCall_ |= child->containsCall_;
  }
}

const WPst::PerFunction* WPst::find(const ir::Function* function) const {
  const auto& functions = module_.functions();
  for (size_t i = 0; i < functions.size(); ++i) {
    if (functions[i].get() == function) return &functions_[i];
  }
  return nullptr;
}

const FunctionAnalyses& WPst::analyses(const ir::Function* function) const {
  const PerFunction* slot = find(function);
  CAYMAN_ASSERT(slot != nullptr, "function is not in the wPST's module");
  return *slot->analyses;
}

const Region* WPst::bbRegion(const ir::BasicBlock* block) const {
  const PerFunction* slot = find(block->parent());
  return slot == nullptr ? nullptr : slot->bbRegions[block->index()];
}

const Region* WPst::loopRegion(const Loop* loop) const {
  const PerFunction* slot = find(loop->header()->parent());
  if (slot == nullptr) return nullptr;
  const auto& loops = slot->analyses->loops.loops();
  return loop->index() < loops.size() && loops[loop->index()].get() == loop
             ? slot->loopRegions[loop->index()]
             : nullptr;
}

}  // namespace cayman::analysis
