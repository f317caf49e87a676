// BasicBlock: a straight-line instruction sequence ending in a terminator.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ir/instruction.h"

namespace cayman::ir {

class Function;

class BasicBlock {
 public:
  BasicBlock(const BasicBlock&) = delete;
  BasicBlock& operator=(const BasicBlock&) = delete;

  Function* parent() const { return parent_; }
  /// Dense position in the parent's block list (0 = entry), fixed at
  /// creation. The CFG analyses key their per-block tables by it.
  unsigned index() const { return index_; }
  const std::string& name() const { return name_; }
  void setName(std::string name) { name_ = std::move(name); }

  const std::vector<std::unique_ptr<Instruction>>& instructions() const {
    return instructions_;
  }
  bool empty() const { return instructions_.empty(); }
  size_t size() const { return instructions_.size(); }

  /// Appends an instruction, taking ownership.
  Instruction* append(std::unique_ptr<Instruction> inst);
  /// Inserts a phi after the existing phis at the head of the block.
  Instruction* insertPhi(std::unique_ptr<Instruction> inst);

  /// The final Br/CondBr/Ret; nullptr while the block is under construction.
  Instruction* terminator() const;
  bool hasTerminator() const { return terminator() != nullptr; }

  /// Phi nodes at the head of the block.
  std::vector<Instruction*> phis() const;

 private:
  friend class Function;  // Function::addBlock is the only way to make one

  BasicBlock(Function* parent, unsigned index, std::string name)
      : parent_(parent), index_(index), name_(std::move(name)) {}

  Function* parent_;
  unsigned index_;
  std::string name_;
  std::vector<std::unique_ptr<Instruction>> instructions_;
};

}  // namespace cayman::ir
