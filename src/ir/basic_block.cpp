#include "ir/basic_block.h"

namespace cayman::ir {

Instruction* BasicBlock::append(std::unique_ptr<Instruction> inst) {
  CAYMAN_ASSERT(!hasTerminator(), "appending past terminator in " + name_);
  inst->setParent(this);
  instructions_.push_back(std::move(inst));
  return instructions_.back().get();
}

Instruction* BasicBlock::insertPhi(std::unique_ptr<Instruction> inst) {
  CAYMAN_ASSERT(inst->opcode() == Opcode::Phi, "insertPhi with non-phi");
  inst->setParent(this);
  Instruction* raw = inst.get();
  size_t position = phis().size();
  instructions_.insert(instructions_.begin() + static_cast<long>(position),
                       std::move(inst));
  return raw;
}

Instruction* BasicBlock::terminator() const {
  if (instructions_.empty()) return nullptr;
  Instruction* last = instructions_.back().get();
  return last->isTerminator() ? last : nullptr;
}

std::vector<Instruction*> BasicBlock::phis() const {
  std::vector<Instruction*> result;
  for (const auto& inst : instructions_) {
    if (inst->opcode() != Opcode::Phi) break;
    result.push_back(inst.get());
  }
  return result;
}

}  // namespace cayman::ir
