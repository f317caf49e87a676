#include "analysis/scev.h"

#include "analysis/regions.h"

namespace cayman::analysis {

namespace {

/// Is `value` computed outside `loop` (therefore invariant while it runs)?
bool isInvariantIn(const ir::Value* value, const Loop* loop) {
  const auto* inst = ir::dynCast<ir::Instruction>(value);
  if (inst == nullptr) return true;  // constants, arguments, globals
  return !loop->contains(inst->parent());
}

}  // namespace

int64_t Affine::coeffForLoop(const Loop* loop) const {
  int64_t total = 0;
  for (const auto& [symbol, coeff] : terms) {
    const auto* phi = ir::dynCast<ir::Instruction>(symbol);
    if (phi != nullptr && phi->opcode() == ir::Opcode::Phi &&
        phi->parent() == loop->header()) {
      total += coeff;
    }
  }
  return total;
}

bool Affine::isStreamIn(const Loop* loop) const {
  if (!valid) return false;
  for (const auto& [symbol, coeff] : terms) {
    (void)coeff;
    const auto* inst = ir::dynCast<ir::Instruction>(symbol);
    if (inst == nullptr) continue;  // argument: invariant
    if (inst->opcode() == ir::Opcode::Phi) {
      // Induction variables of this loop or enclosing/inner loops are fine:
      // they are either the stream dimension or constant during `loop`.
      continue;
    }
    if (!isInvariantIn(inst, loop)) return false;
  }
  return true;
}

ScalarEvolution::ScalarEvolution(const ir::Function& /*function*/,
                                 const FunctionAnalyses& fa) {
  // Recognize canonical IVs: phi(init from preheader, phi+step from latch).
  for (const auto& loop : fa.loops.loops()) {
    const ir::BasicBlock* header = loop->header();
    const ir::BasicBlock* preheader = loop->preheader();
    const ir::BasicBlock* latch = loop->latch();
    if (preheader == nullptr || latch == nullptr) continue;
    for (const ir::Instruction* phi : header->phis()) {
      if (!phi->type()->isInteger()) continue;
      const ir::Value* backedge = phi->incomingValueFor(latch);
      const auto* update = ir::dynCast<ir::Instruction>(backedge);
      if (update == nullptr) continue;
      if (update->opcode() != ir::Opcode::Add &&
          update->opcode() != ir::Opcode::Sub) {
        continue;
      }
      const ir::Value* stepValue = nullptr;
      if (update->operand(0) == phi) {
        stepValue = update->operand(1);
      } else if (update->operand(1) == phi &&
                 update->opcode() == ir::Opcode::Add) {
        stepValue = update->operand(0);
      }
      if (stepValue == nullptr) continue;
      const auto* stepConst = ir::dynCast<ir::ConstantInt>(stepValue);
      if (stepConst == nullptr) continue;

      InductionVar iv;
      iv.phi = phi;
      iv.loop = loop.get();
      iv.step = update->opcode() == ir::Opcode::Sub ? -stepConst->value()
                                                    : stepConst->value();
      iv.update = update;
      if (const auto* initConst = ir::dynCast<ir::ConstantInt>(
              phi->incomingValueFor(preheader))) {
        iv.init = initConst->value();
      }
      ivs_.emplace(phi, iv);
    }
  }
}

const InductionVar* ScalarEvolution::inductionVar(
    const ir::Instruction* phi) const {
  auto it = ivs_.find(phi);
  return it == ivs_.end() ? nullptr : &it->second;
}

std::vector<const InductionVar*> ScalarEvolution::inductionVars(
    const Loop* loop) const {
  std::vector<const InductionVar*> result;
  for (const ir::Instruction* phi : loop->header()->phis()) {
    const InductionVar* iv = inductionVar(phi);
    if (iv != nullptr && iv->loop == loop) result.push_back(iv);
  }
  return result;
}

TripCount ScalarEvolution::tripCount(const Loop* loop) const {
  // Pattern: header ends with `condbr (icmp pred iv bound), body, exit`
  // where iv is a canonical IV with constant init/step and bound constant.
  // `condbr ..., exit, body` stays in the loop while the predicate fails.
  const ir::Instruction* term = loop->header()->terminator();
  if (term == nullptr || term->opcode() != ir::Opcode::CondBr) return {};
  const auto* cmp = ir::dynCast<ir::Instruction>(term->operand(0));
  if (cmp == nullptr || cmp->opcode() != ir::Opcode::ICmp) return {};
  const bool trueStays = loop->contains(term->successors()[0]);
  if (trueStays == loop->contains(term->successors()[1])) return {};

  const InductionVar* iv = nullptr;
  const ir::ConstantInt* bound = nullptr;
  ir::CmpPred pred =
      trueStays ? cmp->cmpPred() : ir::negatedPred(cmp->cmpPred());
  if (const auto* phi = ir::dynCast<ir::Instruction>(cmp->operand(0))) {
    iv = inductionVar(phi);
    bound = ir::dynCast<ir::ConstantInt>(cmp->operand(1));
  }
  if (iv == nullptr || iv->loop != loop || bound == nullptr ||
      !iv->init.has_value() || iv->step == 0) {
    return {};
  }

  int64_t init = *iv->init;
  int64_t limit = bound->value();
  int64_t step = iv->step;
  int64_t iterations = 0;
  switch (pred) {
    case ir::CmpPred::LT:
      if (step <= 0 || init >= limit) return {};
      iterations = (limit - init + step - 1) / step;
      break;
    case ir::CmpPred::LE:
      if (step <= 0 || init > limit) return {};
      iterations = (limit - init) / step + 1;
      break;
    case ir::CmpPred::GT:
      if (step >= 0 || init <= limit) return {};
      iterations = (init - limit - step - 1) / (-step);
      break;
    case ir::CmpPred::GE:
      if (step >= 0 || init < limit) return {};
      iterations = (init - limit) / (-step) + 1;
      break;
    default:
      return {};
  }
  if (iterations <= 0) return {};
  return {true, static_cast<uint64_t>(iterations)};
}

Affine ScalarEvolution::analyze(const ir::Value* value) const {
  return analyzeImpl(value, 0);
}

Affine ScalarEvolution::analyzeImpl(const ir::Value* value, int depth) const {
  Affine result;
  if (depth > 32) return result;  // defensive: pathological chains

  if (const auto* ci = ir::dynCast<ir::ConstantInt>(value)) {
    result.valid = true;
    result.constant = ci->value();
    return result;
  }
  if (ir::isa<ir::Argument>(value)) {
    result.valid = true;
    result.terms[value] = 1;
    return result;
  }
  const auto* inst = ir::dynCast<ir::Instruction>(value);
  if (inst == nullptr) return result;

  auto symbol = [&]() {
    result.valid = true;
    result.terms[value] = 1;
    return result;
  };

  switch (inst->opcode()) {
    case ir::Opcode::Phi:
      // Induction variables are symbols; other phis are opaque symbols too
      // (their invariance is judged by the consumer).
      return symbol();
    case ir::Opcode::Add:
    case ir::Opcode::Sub: {
      Affine lhs = analyzeImpl(inst->operand(0), depth + 1);
      Affine rhs = analyzeImpl(inst->operand(1), depth + 1);
      if (!lhs.valid || !rhs.valid) return symbol();
      int64_t sign = inst->opcode() == ir::Opcode::Sub ? -1 : 1;
      result = lhs;
      result.constant += sign * rhs.constant;
      for (const auto& [sym, coeff] : rhs.terms) {
        result.terms[sym] += sign * coeff;
        if (result.terms[sym] == 0) result.terms.erase(sym);
      }
      return result;
    }
    case ir::Opcode::Mul: {
      Affine lhs = analyzeImpl(inst->operand(0), depth + 1);
      Affine rhs = analyzeImpl(inst->operand(1), depth + 1);
      if (!lhs.valid || !rhs.valid) return symbol();
      const Affine* linear = nullptr;
      int64_t scale = 0;
      if (lhs.terms.empty()) {
        scale = lhs.constant;
        linear = &rhs;
      } else if (rhs.terms.empty()) {
        scale = rhs.constant;
        linear = &lhs;
      } else {
        return symbol();  // product of two non-constants: not affine
      }
      result.valid = true;
      result.constant = linear->constant * scale;
      for (const auto& [sym, coeff] : linear->terms) {
        if (coeff * scale != 0) result.terms[sym] = coeff * scale;
      }
      return result;
    }
    case ir::Opcode::Shl: {
      const auto* amount = ir::dynCast<ir::ConstantInt>(inst->operand(1));
      if (amount == nullptr || amount->value() < 0 || amount->value() > 32) {
        return symbol();
      }
      Affine lhs = analyzeImpl(inst->operand(0), depth + 1);
      if (!lhs.valid) return symbol();
      int64_t scale = int64_t{1} << amount->value();
      result.valid = true;
      result.constant = lhs.constant * scale;
      for (const auto& [sym, coeff] : lhs.terms) {
        result.terms[sym] = coeff * scale;
      }
      return result;
    }
    case ir::Opcode::SExt:
    case ir::Opcode::ZExt:
    case ir::Opcode::Trunc:
      return analyzeImpl(inst->operand(0), depth + 1);
    default:
      return symbol();
  }
}

AddressInfo ScalarEvolution::addressOf(const ir::Instruction* access) const {
  AddressInfo info;
  CAYMAN_ASSERT(access->isMemoryAccess(), "addressOf on non-memory op");

  // Walk the GEP chain accumulating byte offsets.
  const ir::Value* pointer = access->pointerOperand();
  Affine offset;
  offset.valid = true;
  while (true) {
    if (const auto* global = ir::dynCast<ir::GlobalArray>(pointer)) {
      info.valid = true;
      info.base = global;
      info.offset = offset;
      return info;
    }
    const auto* gep = ir::dynCast<ir::Instruction>(pointer);
    if (gep == nullptr || gep->opcode() != ir::Opcode::Gep) {
      // Pointer arguments / unknown pointers: offset stays relative to an
      // unidentified base.
      info.valid = false;
      return info;
    }
    Affine index = analyzeImpl(gep->operand(1), 0);
    if (!index.valid) {
      info.valid = false;
      return info;
    }
    int64_t scale = static_cast<int64_t>(gep->gepElemSize());
    offset.constant += index.constant * scale;
    for (const auto& [sym, coeff] : index.terms) {
      offset.terms[sym] += coeff * scale;
      if (offset.terms[sym] == 0) offset.terms.erase(sym);
    }
    pointer = gep->operand(0);
  }
}

}  // namespace cayman::analysis
