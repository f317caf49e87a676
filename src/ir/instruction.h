// Instruction: a single SSA operation inside a basic block.
#pragma once

#include <span>
#include <vector>

#include "ir/value.h"

namespace cayman::ir {

class BasicBlock;
class Function;

/// Every operation the IR supports.
enum class Opcode {
  // Integer arithmetic / bitwise.
  Add, Sub, Mul, SDiv, SRem, And, Or, Xor, Shl, AShr, LShr,
  // Floating-point arithmetic.
  FAdd, FSub, FMul, FDiv, FNeg, FSqrt, FAbs, FMin, FMax,
  // Comparisons (predicate stored separately).
  ICmp, FCmp,
  // Conversions.
  ZExt, SExt, Trunc, SIToFP, FPToSI,
  Select,
  // Memory. Gep computes base + index * elemSizeBytes.
  Load, Store, Gep,
  // Control flow.
  Br, CondBr, Phi, Call, Ret,
};

/// Comparison predicates for ICmp (signed) and FCmp (ordered).
enum class CmpPred { EQ, NE, LT, LE, GT, GE };

const char* opcodeSpelling(Opcode op);
const char* cmpPredSpelling(CmpPred pred);
/// The predicate that holds exactly when `pred` does not (LT <-> GE, ...).
CmpPred negatedPred(CmpPred pred);

/// True for Br / CondBr / Ret.
bool isTerminator(Opcode op);
/// True for integer and FP arithmetic, comparisons, conversions and select —
/// the pure dataflow operations accelerator datapaths are built from.
bool isComputeOp(Opcode op);
/// True for FAdd..FMax.
bool isFloatOp(Opcode op);

class Instruction final : public Value {
 public:
  /// Instructions are created through IRBuilder or the parser. The IR keeps
  /// no use lists: it is built once and never rewritten.
  Instruction(Opcode op, const Type* type, std::vector<Value*> operands,
              std::string name);

  Opcode opcode() const { return op_; }

  // --- Operands -----------------------------------------------------------
  std::span<Value* const> operands() const { return operands_; }
  size_t numOperands() const { return operands_.size(); }
  Value* operand(size_t i) const {
    CAYMAN_ASSERT(i < operands_.size(), "operand index out of range");
    return operands_[i];
  }
  void setOperand(size_t i, Value* value);

  // --- Block / position ---------------------------------------------------
  BasicBlock* parent() const { return parent_; }
  void setParent(BasicBlock* block) { parent_ = block; }

  // --- Opcode-specific payload --------------------------------------------
  CmpPred cmpPred() const { return pred_; }
  void setCmpPred(CmpPred pred) { pred_ = pred; }

  /// Element size for Gep address arithmetic.
  unsigned gepElemSize() const { return gepElemSize_; }
  void setGepElemSize(unsigned bytes) { gepElemSize_ = bytes; }

  /// Successor blocks for Br (1) / CondBr (2, true first).
  std::span<BasicBlock* const> successors() const { return successors_; }
  void setSuccessors(std::vector<BasicBlock*> succs) {
    successors_ = std::move(succs);
  }

  /// Incoming blocks for Phi, parallel to operands().
  std::span<BasicBlock* const> incomingBlocks() const { return incoming_; }
  void addIncoming(Value* value, BasicBlock* block);
  Value* incomingValueFor(const BasicBlock* block) const;

  /// Callee for Call.
  Function* callee() const { return callee_; }
  void setCallee(Function* f) { callee_ = f; }

  // --- Classification ------------------------------------------------------
  bool isTerminator() const { return ir::isTerminator(op_); }
  bool isMemoryAccess() const {
    return op_ == Opcode::Load || op_ == Opcode::Store;
  }
  /// Pointer operand of a Load/Store.
  Value* pointerOperand() const;
  /// Stored value of a Store.
  Value* storedValue() const {
    CAYMAN_ASSERT(op_ == Opcode::Store, "not a store");
    return operands_[0];
  }

 private:
  Opcode op_;
  std::vector<Value*> operands_;
  BasicBlock* parent_ = nullptr;
  CmpPred pred_ = CmpPred::EQ;
  unsigned gepElemSize_ = 0;
  std::vector<BasicBlock*> successors_;
  std::vector<BasicBlock*> incoming_;
  Function* callee_ = nullptr;
};

template <>
inline bool isa<Instruction>(const Value* v) {
  return v->valueKind() == ValueKind::Instruction;
}

}  // namespace cayman::ir
