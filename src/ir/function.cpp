#include "ir/function.h"

#include <unordered_map>
#include <unordered_set>

namespace cayman::ir {

Function::Function(Module* parent, std::string name, const Type* returnType,
                   std::vector<std::pair<const Type*, std::string>> params)
    : parent_(parent), name_(std::move(name)), returnType_(returnType) {
  unsigned index = 0;
  for (auto& [type, paramName] : params) {
    args_.push_back(std::make_unique<Argument>(type, paramName, index++));
  }
}

BasicBlock* Function::addBlock(std::string name) {
  blocks_.push_back(std::unique_ptr<BasicBlock>(new BasicBlock(
      this, static_cast<unsigned>(blocks_.size()), std::move(name))));
  return blocks_.back().get();
}

BasicBlock* Function::blockByName(std::string_view name) const {
  for (const auto& block : blocks_) {
    if (block->name() == name) return block.get();
  }
  return nullptr;
}

void Function::assignNames() {
  std::unordered_set<std::string> taken;
  unsigned nextValue = 0;
  unsigned nextBlock = 0;
  auto unique = [&taken](std::string base, unsigned& counter) {
    std::string candidate = base;
    while (candidate.empty() || taken.count(candidate) != 0) {
      candidate = base.empty() ? std::to_string(counter++)
                               : base + "." + std::to_string(counter++);
    }
    taken.insert(candidate);
    return candidate;
  };

  for (const auto& arg : args_) {
    arg->setName(unique(arg->name(), nextValue));
  }
  for (const auto& block : blocks_) {
    block->setName(unique(block->name().empty() ? "bb" : block->name(),
                          nextBlock));
  }
  for (const auto& block : blocks_) {
    for (const auto& inst : block->instructions()) {
      if (inst->type()->isVoid()) continue;
      inst->setName(unique(inst->name(), nextValue));
    }
  }
}

}  // namespace cayman::ir
