#include "ir/instruction.h"

#include "ir/basic_block.h"

namespace cayman::ir {

const char* opcodeSpelling(Opcode op) {
  switch (op) {
    case Opcode::Add: return "add";
    case Opcode::Sub: return "sub";
    case Opcode::Mul: return "mul";
    case Opcode::SDiv: return "sdiv";
    case Opcode::SRem: return "srem";
    case Opcode::And: return "and";
    case Opcode::Or: return "or";
    case Opcode::Xor: return "xor";
    case Opcode::Shl: return "shl";
    case Opcode::AShr: return "ashr";
    case Opcode::LShr: return "lshr";
    case Opcode::FAdd: return "fadd";
    case Opcode::FSub: return "fsub";
    case Opcode::FMul: return "fmul";
    case Opcode::FDiv: return "fdiv";
    case Opcode::FNeg: return "fneg";
    case Opcode::FSqrt: return "fsqrt";
    case Opcode::FAbs: return "fabs";
    case Opcode::FMin: return "fmin";
    case Opcode::FMax: return "fmax";
    case Opcode::ICmp: return "icmp";
    case Opcode::FCmp: return "fcmp";
    case Opcode::ZExt: return "zext";
    case Opcode::SExt: return "sext";
    case Opcode::Trunc: return "trunc";
    case Opcode::SIToFP: return "sitofp";
    case Opcode::FPToSI: return "fptosi";
    case Opcode::Select: return "select";
    case Opcode::Load: return "load";
    case Opcode::Store: return "store";
    case Opcode::Gep: return "gep";
    case Opcode::Br: return "br";
    case Opcode::CondBr: return "condbr";
    case Opcode::Phi: return "phi";
    case Opcode::Call: return "call";
    case Opcode::Ret: return "ret";
  }
  CAYMAN_ASSERT(false, "unreachable opcode");
}

const char* cmpPredSpelling(CmpPred pred) {
  switch (pred) {
    case CmpPred::EQ: return "eq";
    case CmpPred::NE: return "ne";
    case CmpPred::LT: return "lt";
    case CmpPred::LE: return "le";
    case CmpPred::GT: return "gt";
    case CmpPred::GE: return "ge";
  }
  CAYMAN_ASSERT(false, "unreachable predicate");
}

CmpPred negatedPred(CmpPred pred) {
  switch (pred) {
    case CmpPred::EQ: return CmpPred::NE;
    case CmpPred::NE: return CmpPred::EQ;
    case CmpPred::LT: return CmpPred::GE;
    case CmpPred::LE: return CmpPred::GT;
    case CmpPred::GT: return CmpPred::LE;
    case CmpPred::GE: return CmpPred::LT;
  }
  CAYMAN_ASSERT(false, "unreachable predicate");
}

bool isTerminator(Opcode op) {
  return op == Opcode::Br || op == Opcode::CondBr || op == Opcode::Ret;
}

bool isComputeOp(Opcode op) {
  switch (op) {
    case Opcode::Add: case Opcode::Sub: case Opcode::Mul: case Opcode::SDiv:
    case Opcode::SRem: case Opcode::And: case Opcode::Or: case Opcode::Xor:
    case Opcode::Shl: case Opcode::AShr: case Opcode::LShr: case Opcode::FAdd:
    case Opcode::FSub: case Opcode::FMul: case Opcode::FDiv: case Opcode::FNeg:
    case Opcode::FSqrt: case Opcode::FAbs: case Opcode::FMin: case Opcode::FMax:
    case Opcode::ICmp: case Opcode::FCmp: case Opcode::ZExt: case Opcode::SExt:
    case Opcode::Trunc: case Opcode::SIToFP: case Opcode::FPToSI:
    case Opcode::Select: case Opcode::Gep:
      return true;
    default:
      return false;
  }
}

bool isFloatOp(Opcode op) {
  switch (op) {
    case Opcode::FAdd: case Opcode::FSub: case Opcode::FMul: case Opcode::FDiv:
    case Opcode::FNeg: case Opcode::FSqrt: case Opcode::FAbs: case Opcode::FMin:
    case Opcode::FMax: case Opcode::FCmp:
      return true;
    default:
      return false;
  }
}

Instruction::Instruction(Opcode op, const Type* type,
                         std::vector<Value*> operands, std::string name)
    : Value(ValueKind::Instruction, type, std::move(name)),
      op_(op),
      operands_(std::move(operands)) {
  for (Value* operand : operands_) {
    CAYMAN_ASSERT(operand != nullptr, "null operand");
  }
}

void Instruction::setOperand(size_t i, Value* value) {
  CAYMAN_ASSERT(i < operands_.size(), "operand index out of range");
  CAYMAN_ASSERT(value != nullptr, "null operand");
  operands_[i] = value;
}

void Instruction::addIncoming(Value* value, BasicBlock* block) {
  CAYMAN_ASSERT(op_ == Opcode::Phi, "addIncoming on non-phi");
  CAYMAN_ASSERT(value->type() == type(), "phi incoming type mismatch");
  operands_.push_back(value);
  incoming_.push_back(block);
}

Value* Instruction::incomingValueFor(const BasicBlock* block) const {
  CAYMAN_ASSERT(op_ == Opcode::Phi, "incomingValueFor on non-phi");
  for (size_t i = 0; i < incoming_.size(); ++i) {
    if (incoming_[i] == block) return operands_[i];
  }
  CAYMAN_ASSERT(false, "phi has no incoming value for block " + block->name());
}

Value* Instruction::pointerOperand() const {
  switch (op_) {
    case Opcode::Load: return operands_[0];
    case Opcode::Store: return operands_[1];
    default: CAYMAN_ASSERT(false, "not a memory access");
  }
}

}  // namespace cayman::ir
