#include "oracles/interpreter.h"

#include <cmath>
#include <limits>

namespace cayman::oracles {

using ir::Opcode;

namespace {

// Scalar semantics, written out independently of the decoded engine's
// micro-op handlers so the two engines only agree by being right.

int64_t wrapInt(const ir::Type* type, int64_t value) {
  switch (type->kind()) {
    case ir::Type::Kind::I1: return value & 1;
    case ir::Type::Kind::I32: return static_cast<int32_t>(value);
    default: return value;
  }
}

/// Two's-complement wrapping arithmetic via unsigned casts (signed overflow
/// is UB in C++; several workloads rely on i64 wraparound).
int64_t wrapAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}

int64_t wrapSub(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) -
                              static_cast<uint64_t>(b));
}

int64_t wrapMul(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) *
                              static_cast<uint64_t>(b));
}

int64_t wrapShl(int64_t a, int64_t shift) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) << (shift & 63));
}

/// x/0 is 0; INT64_MIN / -1 wraps to INT64_MIN (its remainder is 0).
int64_t safeSDiv(int64_t a, int64_t b) {
  if (b == 0) return 0;
  if (a == std::numeric_limits<int64_t>::min() && b == -1) return a;
  return a / b;
}

int64_t safeSRem(int64_t a, int64_t b) {
  if (b == 0) return 0;
  if (a == std::numeric_limits<int64_t>::min() && b == -1) return 0;
  return a % b;
}

/// NaN, +-inf and out-of-range values give INT64_MIN; the rest truncate.
int64_t safeFPToSI(double value) {
  if (value >= -0x1p63 && value < 0x1p63) return static_cast<int64_t>(value);
  return std::numeric_limits<int64_t>::min();
}

template <typename T>
bool compare(ir::CmpPred pred, T a, T b) {
  switch (pred) {
    case ir::CmpPred::EQ: return a == b;
    case ir::CmpPred::NE: return a != b;
    case ir::CmpPred::LT: return a < b;
    case ir::CmpPred::LE: return a <= b;
    case ir::CmpPred::GT: return a > b;
    case ir::CmpPred::GE: return a >= b;
  }
  return false;
}

}  // namespace

ReferenceInterpreter::ReferenceInterpreter(const ir::Module& module,
                                           sim::CpuCostModel model)
    : module_(module), model_(model), memory_(module) {}

const ReferenceInterpreter::Numbering& ReferenceInterpreter::numberingFor(
    const ir::Function& function) {
  auto it = numberings_.find(&function);
  if (it != numberings_.end()) return it->second;
  Numbering numbering;
  for (const auto& arg : function.arguments()) {
    numbering.index[arg.get()] = numbering.count++;
  }
  for (const auto& block : function.blocks()) {
    for (const auto& inst : block->instructions()) {
      numbering.index[inst.get()] = numbering.count++;
    }
    blockCost_[block.get()] = model_.blockCost(*block);
  }
  return numberings_.emplace(&function, std::move(numbering)).first->second;
}

ReferenceInterpreter::Result ReferenceInterpreter::run(
    std::span<const int64_t> args) {
  return runFunction(*module_.entryFunction(), args);
}

ReferenceInterpreter::Result ReferenceInterpreter::runFunction(
    const ir::Function& function, std::span<const int64_t> args) {
  memory_.reset();
  Result result;
  executed_ = 0;
  cancelTick_ = 0;
  std::vector<sim::Slot> slots(function.numArguments());
  for (size_t i = 0; i < function.numArguments() && i < args.size(); ++i) {
    if (function.argument(i)->type()->isFloat()) {
      slots[i].f = static_cast<double>(args[i]);
    } else {
      slots[i].i = args[i];
    }
  }
  sim::Slot returnValue = exec(function, std::move(slots), result, 0);
  if (!function.returnType()->isVoid()) result.returnValue = returnValue;
  return result;
}

sim::Slot ReferenceInterpreter::exec(const ir::Function& function,
                                     std::vector<sim::Slot> args,
                                     Result& result, int depth) {
  CAYMAN_ASSERT(depth < 64, "interpreter call depth exceeded");
  const Numbering& numbering = numberingFor(function);
  std::vector<sim::Slot> frame(static_cast<size_t>(numbering.count));
  for (size_t i = 0; i < args.size(); ++i) frame[i] = args[i];

  auto slotOf = [&](const ir::Value* value) -> sim::Slot {
    switch (value->valueKind()) {
      case ir::ValueKind::ConstantInt:
        return {static_cast<const ir::ConstantInt*>(value)->value(), 0.0};
      case ir::ValueKind::ConstantFP:
        return {0, static_cast<const ir::ConstantFP*>(value)->value()};
      case ir::ValueKind::GlobalArray:
        return {static_cast<int64_t>(memory_.baseOf(
                    static_cast<const ir::GlobalArray*>(value))),
                0.0};
      default: {
        auto it = numbering.index.find(value);
        CAYMAN_ASSERT(it != numbering.index.end(),
                      "value not numbered in " + function.name());
        return frame[static_cast<size_t>(it->second)];
      }
    }
  };
  auto setSlot = [&](const ir::Instruction* inst, sim::Slot slot) {
    frame[static_cast<size_t>(numbering.index.at(inst))] = slot;
  };

  const ir::BasicBlock* block = function.entry();
  const ir::BasicBlock* previous = nullptr;
  std::vector<sim::Slot> phiBuffer;

  while (true) {
    ++result.blockCounts[block];
    result.totalCycles += blockCost_.at(block);
    result.instructions += block->size();
    executed_ += block->size();
    if (executed_ > instructionLimit_) {
      throw Error("instruction limit exceeded in " + function.name() + " (" +
                  std::to_string(instructionLimit_) +
                  " dynamic instructions)");
    }
    if (cancel_ != nullptr && (++cancelTick_ & 0x3FF) == 0) {
      cancel_->check(support::Stage::Profile, function.name());
    }

    // Phase 1: evaluate all phis against the incoming edge, then commit,
    // so mutually-referencing phis see pre-transfer values.
    std::vector<ir::Instruction*> phis = block->phis();
    if (!phis.empty()) {
      CAYMAN_ASSERT(previous != nullptr, "phi in entry block");
      phiBuffer.clear();
      for (ir::Instruction* phi : phis) {
        phiBuffer.push_back(slotOf(phi->incomingValueFor(previous)));
      }
      for (size_t i = 0; i < phis.size(); ++i) setSlot(phis[i], phiBuffer[i]);
    }

    for (size_t idx = phis.size(); idx < block->instructions().size(); ++idx) {
      const ir::Instruction* inst = block->instructions()[idx].get();
      switch (inst->opcode()) {
        case Opcode::Add:
          setSlot(inst, {wrapInt(inst->type(),
                                 wrapAdd(slotOf(inst->operand(0)).i,
                                         slotOf(inst->operand(1)).i)),
                         0.0});
          break;
        case Opcode::Sub:
          setSlot(inst, {wrapInt(inst->type(),
                                 wrapSub(slotOf(inst->operand(0)).i,
                                         slotOf(inst->operand(1)).i)),
                         0.0});
          break;
        case Opcode::Mul:
          setSlot(inst, {wrapInt(inst->type(),
                                 wrapMul(slotOf(inst->operand(0)).i,
                                         slotOf(inst->operand(1)).i)),
                         0.0});
          break;
        case Opcode::SDiv:
          setSlot(inst, {wrapInt(inst->type(),
                                 safeSDiv(slotOf(inst->operand(0)).i,
                                          slotOf(inst->operand(1)).i)),
                         0.0});
          break;
        case Opcode::SRem:
          setSlot(inst, {wrapInt(inst->type(),
                                 safeSRem(slotOf(inst->operand(0)).i,
                                          slotOf(inst->operand(1)).i)),
                         0.0});
          break;
        case Opcode::And:
          setSlot(inst, {slotOf(inst->operand(0)).i &
                             slotOf(inst->operand(1)).i,
                         0.0});
          break;
        case Opcode::Or:
          setSlot(inst, {slotOf(inst->operand(0)).i |
                             slotOf(inst->operand(1)).i,
                         0.0});
          break;
        case Opcode::Xor:
          setSlot(inst, {slotOf(inst->operand(0)).i ^
                             slotOf(inst->operand(1)).i,
                         0.0});
          break;
        case Opcode::Shl:
          setSlot(inst, {wrapInt(inst->type(),
                                 wrapShl(slotOf(inst->operand(0)).i,
                                         slotOf(inst->operand(1)).i)),
                         0.0});
          break;
        case Opcode::AShr:
          setSlot(inst, {slotOf(inst->operand(0)).i >>
                             (slotOf(inst->operand(1)).i & 63),
                         0.0});
          break;
        case Opcode::LShr:
          setSlot(inst,
                  {static_cast<int64_t>(
                       static_cast<uint64_t>(slotOf(inst->operand(0)).i) >>
                       (slotOf(inst->operand(1)).i & 63)),
                   0.0});
          break;
        case Opcode::FAdd:
          setSlot(inst, {0, slotOf(inst->operand(0)).f +
                                slotOf(inst->operand(1)).f});
          break;
        case Opcode::FSub:
          setSlot(inst, {0, slotOf(inst->operand(0)).f -
                                slotOf(inst->operand(1)).f});
          break;
        case Opcode::FMul:
          setSlot(inst, {0, slotOf(inst->operand(0)).f *
                                slotOf(inst->operand(1)).f});
          break;
        case Opcode::FDiv:
          setSlot(inst, {0, slotOf(inst->operand(0)).f /
                                slotOf(inst->operand(1)).f});
          break;
        case Opcode::FNeg:
          setSlot(inst, {0, -slotOf(inst->operand(0)).f});
          break;
        case Opcode::FSqrt:
          setSlot(inst, {0, std::sqrt(std::fabs(slotOf(inst->operand(0)).f))});
          break;
        case Opcode::FAbs:
          setSlot(inst, {0, std::fabs(slotOf(inst->operand(0)).f)});
          break;
        case Opcode::FMin:
          setSlot(inst, {0, std::fmin(slotOf(inst->operand(0)).f,
                                      slotOf(inst->operand(1)).f)});
          break;
        case Opcode::FMax:
          setSlot(inst, {0, std::fmax(slotOf(inst->operand(0)).f,
                                      slotOf(inst->operand(1)).f)});
          break;
        case Opcode::ICmp:
          setSlot(inst, {compare(inst->cmpPred(), slotOf(inst->operand(0)).i,
                                 slotOf(inst->operand(1)).i)
                             ? 1
                             : 0,
                         0.0});
          break;
        case Opcode::FCmp:
          setSlot(inst, {compare(inst->cmpPred(), slotOf(inst->operand(0)).f,
                                 slotOf(inst->operand(1)).f)
                             ? 1
                             : 0,
                         0.0});
          break;
        case Opcode::Select:
          setSlot(inst, slotOf(inst->operand(0)).i != 0
                            ? slotOf(inst->operand(1))
                            : slotOf(inst->operand(2)));
          break;
        case Opcode::ZExt: {
          int64_t v = slotOf(inst->operand(0)).i;
          const ir::Type* from = inst->operand(0)->type();
          if (from->kind() == ir::Type::Kind::I32) {
            v = static_cast<int64_t>(static_cast<uint32_t>(v));
          } else if (from->kind() == ir::Type::Kind::I1) {
            v &= 1;
          }
          setSlot(inst, {v, 0.0});
          break;
        }
        case Opcode::SExt:
          setSlot(inst, {slotOf(inst->operand(0)).i, 0.0});
          break;
        case Opcode::Trunc:
          setSlot(inst,
                  {wrapInt(inst->type(), slotOf(inst->operand(0)).i), 0.0});
          break;
        case Opcode::SIToFP:
          setSlot(inst,
                  {0, static_cast<double>(slotOf(inst->operand(0)).i)});
          break;
        case Opcode::FPToSI:
          setSlot(inst, {wrapInt(inst->type(),
                                 safeFPToSI(slotOf(inst->operand(0)).f)),
                         0.0});
          break;
        case Opcode::Gep:
          setSlot(inst,
                  {wrapAdd(slotOf(inst->operand(0)).i,
                           wrapMul(slotOf(inst->operand(1)).i,
                                   static_cast<int64_t>(inst->gepElemSize()))),
                   0.0});
          break;
        case Opcode::Load: {
          uint64_t address =
              static_cast<uint64_t>(slotOf(inst->operand(0)).i);
          if (inst->type()->isFloat()) {
            setSlot(inst, {0, memory_.loadFloat(address, inst->type())});
          } else {
            setSlot(inst, {memory_.loadInt(address, inst->type()), 0.0});
          }
          break;
        }
        case Opcode::Store: {
          uint64_t address =
              static_cast<uint64_t>(slotOf(inst->operand(1)).i);
          const ir::Type* type = inst->operand(0)->type();
          if (type->isFloat()) {
            memory_.storeFloat(address, type, slotOf(inst->operand(0)).f);
          } else {
            memory_.storeInt(address, type, slotOf(inst->operand(0)).i);
          }
          break;
        }
        case Opcode::Call: {
          std::vector<sim::Slot> callArgs;
          callArgs.reserve(inst->numOperands());
          for (const ir::Value* operand : inst->operands()) {
            callArgs.push_back(slotOf(operand));
          }
          sim::Slot ret =
              exec(*inst->callee(), std::move(callArgs), result, depth + 1);
          if (!inst->type()->isVoid()) setSlot(inst, ret);
          break;
        }
        case Opcode::Br:
          previous = block;
          block = inst->successors()[0];
          goto nextBlock;
        case Opcode::CondBr:
          previous = block;
          block = slotOf(inst->operand(0)).i != 0 ? inst->successors()[0]
                                                  : inst->successors()[1];
          goto nextBlock;
        case Opcode::Ret:
          return inst->numOperands() == 1 ? slotOf(inst->operand(0))
                                          : sim::Slot{};
        case Opcode::Phi:
          CAYMAN_ASSERT(false, "phi after non-phi instructions");
      }
    }
    CAYMAN_ASSERT(false, "block fell through without terminator");
  nextBlock:;
  }
}

}  // namespace cayman::oracles
