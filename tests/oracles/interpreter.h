// Reference interpreter: the original tree-walking engine, kept as the
// semantic oracle for sim::Interpreter. It walks ir::Instructions directly
// (one hash lookup per operand) and must reproduce the decoded engine's
// Result bit for bit: cycles, instruction count, per-block counts, return
// value and the final memory image.
#pragma once

#include <span>
#include <unordered_map>

#include "sim/interpreter.h"

namespace cayman::oracles {

class ReferenceInterpreter {
 public:
  using Result = sim::Interpreter::Result;

  explicit ReferenceInterpreter(
      const ir::Module& module,
      sim::CpuCostModel model = sim::CpuCostModel::cva6());

  /// Same contract as sim::Interpreter::run / runFunction: memory is reset
  /// to its initial image first; missing arguments default to zero.
  Result run(std::span<const int64_t> args = {});
  Result runFunction(const ir::Function& function,
                     std::span<const int64_t> args = {});

  sim::SimMemory& memory() { return memory_; }
  const sim::SimMemory& memory() const { return memory_; }

  /// Runaway guard and cooperative cancellation, with the same limits,
  /// polling rate and errors as sim::Interpreter.
  void setInstructionLimit(uint64_t limit) { instructionLimit_ = limit; }
  void setCancelToken(const support::CancelToken* token) { cancel_ = token; }

 private:
  /// Dense slot per argument and instruction of one function.
  struct Numbering {
    std::unordered_map<const ir::Value*, int> index;
    int count = 0;
  };

  const Numbering& numberingFor(const ir::Function& function);
  sim::Slot exec(const ir::Function& function, std::vector<sim::Slot> args,
                 Result& result, int depth);

  const ir::Module& module_;
  sim::CpuCostModel model_;
  sim::SimMemory memory_;
  std::unordered_map<const ir::Function*, Numbering> numberings_;
  std::unordered_map<const ir::BasicBlock*, double> blockCost_;
  uint64_t instructionLimit_ = 2'000'000'000;
  uint64_t executed_ = 0;
  const support::CancelToken* cancel_ = nullptr;
  uint64_t cancelTick_ = 0;
};

}  // namespace cayman::oracles
