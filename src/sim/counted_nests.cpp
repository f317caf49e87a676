#include "sim/counted_nests.h"

#include <algorithm>
#include <optional>

#include "sim/memory.h"

namespace cayman::sim {

using ir::Opcode;

namespace {

ir::CmpPred swapped(ir::CmpPred pred) {
  switch (pred) {
    case ir::CmpPred::LT: return ir::CmpPred::GT;
    case ir::CmpPred::LE: return ir::CmpPred::GE;
    case ir::CmpPred::GT: return ir::CmpPred::LT;
    case ir::CmpPred::GE: return ir::CmpPred::LE;
    default: return pred;
  }
}

/// Checks one candidate root loop and everything nested in it, and records
/// the nest's loops and accesses. Values the nest does not define are
/// symbols: their frame words cannot change while it runs.
class NestBuilder {
 public:
  NestBuilder(const analysis::FunctionAnalyses& fa, const analysis::Loop* root)
      : fa_(fa), root_(root), entered_(fa.cfg.numBlocks(), 0) {}

  std::optional<NestPlan> build() {
    const ir::Instruction* enter = root_->preheader() == nullptr
                                       ? nullptr
                                       : root_->preheader()->terminator();
    // The CountedNest micro-op replaces the preheader's jump.
    if (enter == nullptr || enter->opcode() != Opcode::Br) return std::nullopt;
    if (!addLoop(root_, -1)) return std::nullopt;
    plan_.preheader = root_->preheader();
    return std::move(plan_);
  }

 private:
  bool addLoop(const analysis::Loop* loop, int parent) {
    if (plan_.loops.size() >= 64) return false;  // NestCounter's ivUses mask
    if (loop->latch() == nullptr || loop->preheader() == nullptr ||
        loop->exitBlocks().size() != 1) {
      return false;
    }
    const ir::BasicBlock* header = loop->header();
    const ir::Instruction* term = header->terminator();
    if (term == nullptr || term->opcode() != Opcode::CondBr) return false;
    const ir::BasicBlock* onTrue = term->successors()[0];
    const ir::BasicBlock* onFalse = term->successors()[1];
    const bool trueStays = loop->contains(onTrue);
    if (trueStays == loop->contains(onFalse)) return false;
    if ((trueStays ? onFalse : onTrue) != loop->exitBlocks().front()) {
      return false;
    }

    // The header test compares the loop's i64 counter with a bound.
    const auto* cmp = ir::dynCast<ir::Instruction>(term->operand(0));
    if (cmp == nullptr || cmp->opcode() != Opcode::ICmp ||
        cmp->parent() != header) {
      return false;
    }
    ir::CmpPred pred = cmp->cmpPred();
    const ir::Value* boundValue = cmp->operand(1);
    const analysis::InductionVar* iv = counterOf(cmp->operand(0), loop);
    if (iv == nullptr) {
      iv = counterOf(cmp->operand(1), loop);
      boundValue = cmp->operand(0);
      pred = swapped(pred);
    }
    if (iv == nullptr) return false;
    if (!trueStays) pred = ir::negatedPred(pred);
    if (pred == ir::CmpPred::EQ || pred == ir::CmpPred::NE) return false;

    NestLoopPlan added;
    added.parent = parent;
    added.header = header;
    added.exit = loop->exitBlocks().front();
    added.iv = iv->phi;
    added.step = iv->step;
    added.pred = pred;
    if (!linear(iv->phi->incomingValueFor(loop->preheader()), parent,
                added.init) ||
        !linear(boundValue, parent, added.bound)) {
      return false;
    }
    const uint32_t index = static_cast<uint32_t>(plan_.loops.size());
    plan_.loops.push_back(std::move(added));
    if (!addAccesses(header, index, /*inHeader=*/true)) return false;

    // Walk one iteration from the header: with no other conditional
    // branch, it runs each own block once and enters each child loop once.
    const ir::BasicBlock* prev = header;
    const ir::BasicBlock* cur = trueStays ? onTrue : onFalse;
    size_t ownBlocks = 0;
    size_t children = 0;
    while (cur != header) {
      if (entered_[cur->index()] != 0) return false;
      entered_[cur->index()] = 1;
      const analysis::Loop* owner = fa_.loops.loopFor(cur);
      if (owner == loop) {
        const ir::Instruction* jump = cur->terminator();
        if (jump == nullptr || jump->opcode() != Opcode::Br) return false;
        plan_.loops[index].body.push_back(cur);
        if (!addAccesses(cur, index, /*inHeader=*/false)) return false;
        ++ownBlocks;
        prev = cur;
        cur = jump->successors()[0];
        continue;
      }
      if (owner == nullptr || owner->header() != cur ||
          owner->parent() != loop || owner->preheader() != prev ||
          !addLoop(owner, static_cast<int>(index))) {
        return false;
      }
      ++children;
      prev = cur;
      cur = owner->exitBlocks().front();
    }
    if (prev != loop->latch() || children != loop->subLoops().size()) {
      return false;
    }
    size_t expectedOwn = 0;
    for (const ir::BasicBlock* block : loop->blocks()) {
      if (block != header && fa_.loops.loopFor(block) == loop) ++expectedOwn;
    }
    return ownBlocks == expectedOwn;
  }

  /// The canonical counter of `loop` when `value` is one.
  const analysis::InductionVar* counterOf(const ir::Value* value,
                                          const analysis::Loop* loop) const {
    const auto* phi = ir::dynCast<ir::Instruction>(value);
    if (phi == nullptr || phi->opcode() != Opcode::Phi) return nullptr;
    const analysis::InductionVar* iv = fa_.scev.inductionVar(phi);
    if (iv == nullptr || iv->loop != loop ||
        phi->type()->kind() != ir::Type::Kind::I64 ||
        iv->update->type()->kind() != ir::Type::Kind::I64) {
      return nullptr;
    }
    return iv;
  }

  bool addAccesses(const ir::BasicBlock* block, uint32_t loop,
                   bool inHeader) {
    for (const auto& inst : block->instructions()) {
      if (inst->opcode() == Opcode::Call) return false;
      if (!inst->isMemoryAccess()) continue;
      NestAccessPlan access;
      access.inst = inst.get();
      if (!linear(inst->pointerOperand(), static_cast<int>(loop),
                  access.address)) {
        return false;
      }
      const ir::Type* type = inst->opcode() == Opcode::Load
                                 ? inst->type()
                                 : inst->storedValue()->type();
      access.bytes = type->sizeBytes();
      access.loop = loop;
      access.inHeader = inHeader;
      plan_.accesses.push_back(std::move(access));
    }
    return true;
  }

  /// Decomposes `value` into `out`; counters of loop `innermost` and its
  /// nest ancestors may appear (-1: none). FunctionAnalyses checked that
  /// definitions dominate uses, so each frame word read is this iteration's.
  bool linear(const ir::Value* value, int innermost, LinearForm& out) const {
    return accumulate(value, 1, innermost, out, 0);
  }

  /// out += scale · value, exactly in 64-bit wrapping arithmetic.
  bool accumulate(const ir::Value* value, uint64_t scale, int innermost,
                  LinearForm& out, int depth) const {
    if (depth > 64) return false;
    switch (value->valueKind()) {
      case ir::ValueKind::ConstantInt:
        out.constant += scale * static_cast<uint64_t>(
                                    static_cast<const ir::ConstantInt*>(value)
                                        ->value());
        return true;
      case ir::ValueKind::ConstantFP:
        return false;
      case ir::ValueKind::Argument:
      case ir::ValueKind::GlobalArray:
        addTerm(out, value, scale);
        return true;
      case ir::ValueKind::Instruction:
        break;
    }
    const auto* inst = static_cast<const ir::Instruction*>(value);
    if (!root_->contains(inst->parent())) {
      addTerm(out, value, scale);
      return true;
    }
    const bool i64 = inst->type()->kind() == ir::Type::Kind::I64;
    auto constOperand = [&](size_t i) {
      return ir::dynCast<ir::ConstantInt>(inst->operand(i));
    };
    switch (inst->opcode()) {
      case Opcode::Phi:
        for (int at = innermost; at >= 0; at = plan_.loops[at].parent) {
          if (plan_.loops[at].iv == inst) {
            addTerm(out, value, scale);
            return true;
          }
        }
        return false;
      case Opcode::Add:
      case Opcode::Sub:
        return i64 &&
               accumulate(inst->operand(0), scale, innermost, out, depth + 1) &&
               accumulate(inst->operand(1),
                          inst->opcode() == Opcode::Sub ? 0 - scale : scale,
                          innermost, out, depth + 1);
      case Opcode::Mul: {
        if (!i64) return false;
        if (const auto* c = constOperand(1)) {
          return accumulate(inst->operand(0),
                            scale * static_cast<uint64_t>(c->value()),
                            innermost, out, depth + 1);
        }
        if (const auto* c = constOperand(0)) {
          return accumulate(inst->operand(1),
                            scale * static_cast<uint64_t>(c->value()),
                            innermost, out, depth + 1);
        }
        return false;
      }
      case Opcode::Shl: {
        const auto* amount = constOperand(1);
        if (!i64 || amount == nullptr || amount->value() < 0 ||
            amount->value() > 63) {
          return false;
        }
        return accumulate(inst->operand(0), scale << amount->value(),
                          innermost, out, depth + 1);
      }
      case Opcode::Gep:
        return accumulate(inst->operand(0), scale, innermost, out, depth + 1) &&
               accumulate(inst->operand(1), scale * inst->gepElemSize(),
                          innermost, out, depth + 1);
      case Opcode::SExt:
        // A copy of the word in this 64-bit-slot IR.
        return accumulate(inst->operand(0), scale, innermost, out, depth + 1);
      case Opcode::ZExt: {
        const ir::Type::Kind from = inst->operand(0)->type()->kind();
        return (from == ir::Type::Kind::I64 || from == ir::Type::Kind::Ptr) &&
               accumulate(inst->operand(0), scale, innermost, out, depth + 1);
      }
      default:
        return false;
    }
  }

  static void addTerm(LinearForm& out, const ir::Value* symbol,
                      uint64_t coeff) {
    for (auto& [existing, c] : out.terms) {
      if (existing == symbol) {
        c += coeff;
        return;
      }
    }
    out.terms.emplace_back(symbol, coeff);
  }

  const analysis::FunctionAnalyses& fa_;
  const analysis::Loop* root_;
  std::vector<char> entered_;  ///< by block index
  NestPlan plan_;
};

/// The module's instructions on dense ids: function by function, block by
/// block, in instruction order.
class ModuleIndex {
 public:
  explicit ModuleIndex(const ir::Module& module) : module_(module) {
    for (const auto& function : module.functions()) {
      std::vector<uint32_t>& bases = blockBase_.emplace_back();
      for (const auto& block : function->blocks()) {
        bases.push_back(static_cast<uint32_t>(insts_.size()));
        for (const auto& inst : block->instructions()) {
          if (inst->opcode() == Opcode::Store) {
            stores_.push_back(static_cast<uint32_t>(insts_.size()));
          }
          insts_.push_back(inst.get());
        }
      }
    }
  }

  size_t size() const { return insts_.size(); }
  const ir::Instruction* at(uint32_t id) const { return insts_[id]; }
  const std::vector<uint32_t>& stores() const { return stores_; }

  /// A block's instructions have the ids firstId(block), firstId(block) + 1,
  /// and so on.
  uint32_t firstId(const ir::BasicBlock* block) const {
    const auto& functions = module_.functions();
    size_t f = 0;
    while (functions[f].get() != block->parent()) ++f;
    return blockBase_[f][block->index()];
  }
  uint32_t idOf(const ir::Instruction* inst) const {
    uint32_t id = firstId(inst->parent());
    while (insts_[id] != inst) ++id;
    return id;
  }

 private:
  const ir::Module& module_;
  std::vector<const ir::Instruction*> insts_;
  std::vector<std::vector<uint32_t>> blockBase_;  ///< by function, block
  std::vector<uint32_t> stores_;
};

/// A nest root that passes the local checks.
struct Candidate {
  const ir::Function* function;
  const analysis::Loop* loop;
  NestPlan plan;
};

/// The control/address slice of the module: every instruction whose value
/// can reach a branch condition, an access address, a call argument or a
/// returned value, through operands and from a load into every store. (An
/// index past its array's end reads a neighbour's bytes without trapping,
/// so the array a load is rooted at does not bound what it can read.) The
/// branch tests and addresses inside the `skipped` nests are not roots (the
/// counter computes and proves them); the symbols those nests read on entry
/// are.
std::vector<char> controlSlice(const ir::Module& module,
                               const ModuleIndex& index,
                               const std::vector<Candidate>& skipped) {
  std::vector<char> discharged(index.size(), 0);
  std::vector<uint32_t> work;
  std::vector<char> inSlice(index.size(), 0);
  auto mark = [&](const ir::Value* value) {
    const auto* inst = ir::dynCast<ir::Instruction>(value);
    if (inst == nullptr) return;
    uint32_t id = index.idOf(inst);
    if (inSlice[id] != 0) return;
    inSlice[id] = 1;
    work.push_back(id);
  };
  for (const Candidate& nest : skipped) {
    for (const ir::BasicBlock* block : nest.loop->blocks()) {
      uint32_t id = index.firstId(block);
      for (const auto& inst : block->instructions()) {
        if (inst->isMemoryAccess() || inst->opcode() == Opcode::CondBr) {
          discharged[id] = 1;
        }
        ++id;
      }
    }
    auto markSymbols = [&](const LinearForm& form) {
      for (const auto& [symbol, coeff] : form.terms) {
        (void)coeff;
        const auto* inst = ir::dynCast<ir::Instruction>(symbol);
        if (inst != nullptr && !nest.loop->contains(inst->parent())) {
          mark(inst);
        }
      }
    };
    for (const NestLoopPlan& loop : nest.plan.loops) {
      markSymbols(loop.init);
      markSymbols(loop.bound);
    }
    for (const NestAccessPlan& access : nest.plan.accesses) {
      markSymbols(access.address);
    }
  }

  // The entry function's returned value is not profiled, unless a call
  // returns it to a caller.
  std::vector<const ir::Function*> callees;
  for (uint32_t id = 0; id < index.size(); ++id) {
    if (index.at(id)->opcode() == Opcode::Call) {
      callees.push_back(index.at(id)->callee());
    }
  }
  auto returnsToCaller = [&](const ir::Function* function) {
    return function != module.entryFunction() ||
           std::find(callees.begin(), callees.end(), function) !=
               callees.end();
  };

  for (uint32_t id = 0; id < index.size(); ++id) {
    const ir::Instruction* inst = index.at(id);
    switch (inst->opcode()) {
      case Opcode::CondBr:
      case Opcode::Load:
        if (discharged[id] == 0) mark(inst->operand(0));
        break;
      case Opcode::Store:
        if (discharged[id] == 0) mark(inst->operand(1));
        break;
      case Opcode::Call:
        for (const ir::Value* arg : inst->operands()) mark(arg);
        break;
      case Opcode::Ret:
        if (inst->numOperands() == 1 &&
            returnsToCaller(inst->parent()->parent())) {
          mark(inst->operand(0));
        }
        break;
      default:
        break;
    }
  }

  while (!work.empty()) {
    const ir::Instruction* inst = index.at(work.back());
    work.pop_back();
    for (const ir::Value* operand : inst->operands()) mark(operand);
    if (inst->opcode() == Opcode::Load) {
      for (uint32_t store : index.stores()) mark(index.at(store));
    }
  }
  return inSlice;
}

}  // namespace

CountedNestPlan::CountedNestPlan(const analysis::WPst& wpst) {
  const ir::Module& module = wpst.module();
  // Candidates are the outermost loops that pass the local checks: a loop's
  // children are tried only when it fails them or leaves the fixpoint.
  std::vector<Candidate> candidates;
  auto consider = [&](const ir::Function* function, const analysis::Loop* loop,
                      auto& self) -> void {
    const analysis::FunctionAnalyses& fa = wpst.analyses(function);
    if (std::optional<NestPlan> plan = NestBuilder(fa, loop).build()) {
      candidates.push_back({function, loop, std::move(*plan)});
      return;
    }
    for (const analysis::Loop* child : loop->subLoops()) {
      self(function, child, self);
    }
  };
  for (const auto& function : module.functions()) {
    for (const analysis::Loop* loop :
         wpst.analyses(function.get()).loops.topLevelLoops()) {
      consider(function.get(), loop, consider);
    }
  }

  // Fixpoint: a nest with an instruction in the slice is replaced by its
  // children. Its tests and addresses become roots and its children's
  // symbols are roots already or become ones, so the slice only grows.
  if (candidates.empty()) return;
  const ModuleIndex index(module);
  std::vector<Candidate> dropped;
  bool changed = true;
  while (changed) {
    const std::vector<char> slice = controlSlice(module, index, candidates);
    std::vector<Candidate> kept;
    std::vector<Candidate> gone;
    for (Candidate& candidate : candidates) {
      bool touched = false;
      for (const ir::BasicBlock* block : candidate.loop->blocks()) {
        const uint32_t first = index.firstId(block);
        for (uint32_t id = first; id < first + block->size(); ++id) {
          touched |= slice[id] != 0;
        }
      }
      (touched ? gone : kept).push_back(std::move(candidate));
    }
    candidates = std::move(kept);
    for (Candidate& candidate : gone) {
      for (const analysis::Loop* child : candidate.loop->subLoops()) {
        consider(candidate.function, child, consider);
      }
      dropped.push_back(std::move(candidate));
    }
    changed = !gone.empty();
  }

  // A dropped candidate passed every local check, so its counts follow
  // from its trip counts; only its values are needed. It is live when it
  // holds no skipped nest and no live one holds it. An ancestor is dropped
  // before its descendants are considered, so it comes first.
  auto holds = [](const Candidate& outer, const Candidate& inner) {
    return outer.function == inner.function && outer.loop->contains(inner.loop);
  };
  std::vector<Candidate*> live;
  for (Candidate& candidate : dropped) {
    auto inside = [&](const Candidate& skipped) {
      return holds(candidate, skipped);
    };
    auto within = [&](const Candidate* outer) {
      return holds(*outer, candidate);
    };
    if (std::none_of(candidates.begin(), candidates.end(), inside) &&
        std::none_of(live.begin(), live.end(), within)) {
      candidate.plan.live = true;
      live.push_back(&candidate);
    }
  }

  for (Candidate& candidate : candidates) {
    nests_[candidate.function].push_back(std::move(candidate.plan));
  }
  for (Candidate* candidate : live) {
    nests_[candidate->function].push_back(std::move(candidate->plan));
  }
  for (auto& [function, nests] : nests_) {
    (void)function;
    std::sort(nests.begin(), nests.end(),
              [](const NestPlan& a, const NestPlan& b) {
                return a.loops.front().header->index() <
                       b.loops.front().header->index();
              });
  }
}

const std::vector<NestPlan>& CountedNestPlan::nestsOf(
    const ir::Function& function) const {
  static const std::vector<NestPlan> kNone;
  auto it = nests_.find(&function);
  return it == nests_.end() ? kNone : it->second;
}

// --- Closed-form counting ---------------------------------------------------

namespace {

/// Body iterations of a loop that starts at `init` and iterates while
/// `iv pred bound`, stepping by `step`; nullopt when the loop does not end
/// before its counter would wrap.
std::optional<uint64_t> tripCount(int64_t init, int64_t bound, int64_t step,
                                  ir::CmpPred pred) {
  // Once the test holds on entry, trips = span / |step| + 1, where span is
  // the distance the counter may still travel while the test holds.
  const uint64_t i = static_cast<uint64_t>(init);
  const uint64_t b = static_cast<uint64_t>(bound);
  uint64_t span = 0;
  switch (pred) {
    case ir::CmpPred::LT:
      if (init >= bound) return 0;
      span = b - i - 1;
      break;
    case ir::CmpPred::LE:
      if (init > bound) return 0;
      span = b - i;
      break;
    case ir::CmpPred::GT:
      if (init <= bound) return 0;
      span = i - b - 1;
      break;
    case ir::CmpPred::GE:
      if (init < bound) return 0;
      span = i - b;
      break;
    default:
      return std::nullopt;
  }
  const bool up = pred == ir::CmpPred::LT || pred == ir::CmpPred::LE;
  if (up ? step <= 0 : step >= 0) return std::nullopt;
  const uint64_t stride = up ? static_cast<uint64_t>(step)
                             : 0 - static_cast<uint64_t>(step);
  const uint64_t steps = stride == 1 ? span : span / stride;
  if (steps == UINT64_MAX) return std::nullopt;  // the exit value wraps
  const uint64_t trips = steps + 1;
  // The exit value, written by the last update, must not wrap.
  const __int128 last = static_cast<__int128>(init) +
                        static_cast<__int128>(trips) * step;
  if (last > INT64_MAX || last < INT64_MIN) return std::nullopt;
  return trips;
}

}  // namespace

void NestCounter::Range::include(int64_t a, int64_t b) {
  const int64_t low = std::min(a, b);
  const int64_t high = std::max(a, b);
  if (empty) {
    *this = {low, high, false};
    return;
  }
  lo = std::min(lo, low);
  hi = std::max(hi, high);
}

uint64_t NestCounter::eval(const FrameLinear& form) const {
  uint64_t value = form.constant;
  for (const FrameLinear::Term& term : form.terms) {
    value += term.coeff * (term.iv ? static_cast<uint64_t>(loops_[term.index].iv)
                                   : frame_[term.index]);
  }
  return value;
}

bool NestCounter::visit(const DecodedNest& nest, uint32_t index,
                        uint64_t mult) {
  const DecodedNestLoop& loop = nest.loops[index];
  const int64_t init = static_cast<int64_t>(eval(loop.init));
  const int64_t bound = static_cast<int64_t>(eval(loop.bound));
  const std::optional<uint64_t> trips =
      tripCount(init, bound, loop.step, loop.pred);
  if (!trips.has_value()) return false;
  const uint64_t t = *trips;

  // instructions_ += mult · ((t + 1) · headerSize + t · bodySize)
  uint64_t iterations;
  uint64_t perEntry;
  uint64_t bodyInsts;
  uint64_t total;
  if (__builtin_mul_overflow(mult, t, &iterations) ||
      __builtin_add_overflow(t, 1, &perEntry) ||
      __builtin_mul_overflow(perEntry, loop.headerSize, &perEntry) ||
      __builtin_mul_overflow(t, loop.bodySize, &bodyInsts) ||
      __builtin_add_overflow(perEntry, bodyInsts, &perEntry) ||
      __builtin_mul_overflow(mult, perEntry, &total) ||
      __builtin_add_overflow(instructions_, total, &instructions_) ||
      instructions_ > budget_) {
    return false;
  }
  LoopState& state = loops_[index];
  state.entries += mult;
  state.iters += iterations;

  // The counter's values: init + k·step for k < t in the body, k ≤ t in the
  // header (tripCount proved init + t·step in range).
  const int64_t exitValue = static_cast<int64_t>(
      static_cast<uint64_t>(init) + t * static_cast<uint64_t>(loop.step));
  state.header.include(init, exitValue);
  if (t == 0) return true;
  const int64_t lastValue =
      static_cast<int64_t>(static_cast<uint64_t>(exitValue) -
                           static_cast<uint64_t>(loop.step));
  state.body.include(init, lastValue);

  for (uint32_t child : loop.children) {
    if ((nest.loops[child].ivUses >> index & 1) == 0) {
      if (!visit(nest, child, iterations)) return false;
      continue;
    }
    int64_t value = init;
    for (uint64_t k = 0; k < t; ++k) {
      loops_[index].iv = value;
      if (!visit(nest, child, mult)) return false;
      value = static_cast<int64_t>(static_cast<uint64_t>(value) +
                                   static_cast<uint64_t>(loop.step));
    }
  }
  return true;
}

bool NestCounter::count(const DecodedNest& nest, const uint64_t* frame,
                        uint64_t memSize, uint64_t budget, Totals& totals) {
  const size_t n = nest.loops.size();
  frame_ = frame;
  budget_ = budget;
  instructions_ = 0;
  loops_.assign(n, LoopState{});
  if (!visit(nest, 0, 1)) return false;

  // Every access that runs must stay inside the memory image. The counter
  // ranges bound each address by a box over the values its loops take.
  for (const DecodedNest::Access& access : nest.accesses) {
    const uint32_t at = access.loop;
    if ((access.inHeader ? loops_[at].entries : loops_[at].iters) == 0) {
      continue;
    }
    uint64_t fixed = access.address.constant;
    for (const FrameLinear::Term& term : access.address.terms) {
      if (!term.iv) fixed += term.coeff * frame_[term.index];
    }
    __int128 lo = static_cast<int64_t>(fixed);
    __int128 hi = lo;
    for (const FrameLinear::Term& term : access.address.terms) {
      if (!term.iv) continue;
      const Range& range = term.index == at && access.inHeader
                               ? loops_[term.index].header
                               : loops_[term.index].body;
      const __int128 coeff = static_cast<int64_t>(term.coeff);
      const __int128 a = coeff * range.lo;
      const __int128 b = coeff * range.hi;
      if (__builtin_add_overflow(lo, std::min(a, b), &lo) ||
          __builtin_add_overflow(hi, std::max(a, b), &hi)) {
        return false;
      }
    }
    if (lo < static_cast<__int128>(SimMemory::kBase) ||
        hi + access.bytes >
            static_cast<__int128>(SimMemory::kBase) + memSize) {
      return false;
    }
  }

  totals = Totals{};
  totals.instructions = instructions_;
  for (size_t i = 0; i < n; ++i) {
    const DecodedNestLoop& loop = nest.loops[i];
    const uint64_t iters = loops_[i].iters;
    const uint64_t headerRuns = loops_[i].entries + iters;
    totals.blocks += headerRuns + iters * loop.body.size();
    // Costs are multiples of 0.5, so each product and sum below 2^52 is
    // exact: the total equals the interpreter's block-by-block sum.
    totals.cycles += static_cast<double>(headerRuns) * loop.headerCost +
                     static_cast<double>(iters) * loop.bodyCost;
  }
  return true;
}

void NestCounter::apply(const DecodedNest& nest, uint64_t* counts) const {
  for (size_t i = 0; i < nest.loops.size(); ++i) {
    const DecodedNestLoop& loop = nest.loops[i];
    counts[loop.header] += loops_[i].entries + loops_[i].iters;
    for (uint32_t block : loop.body) counts[block] += loops_[i].iters;
  }
}

}  // namespace cayman::sim
