// Memory access classification and loop-carried dependence analysis
// (paper §III-B: memory dependencies, stream patterns, access footprints).
#pragma once

#include <optional>

#include "analysis/scev.h"

namespace cayman::analysis {

class Region;

/// One Load/Store with its resolved address form.
struct MemAccessInfo {
  const ir::Instruction* inst = nullptr;
  bool isStore = false;
  AddressInfo addr;
};

/// A dependence carried across iterations of `loop`. The `chain` lists the
/// instructions on the recurrence cycle so the scheduler can bound RecMII.
struct LoopCarriedDep {
  enum class Kind { Memory, Scalar };

  Kind kind = Kind::Memory;
  const Loop* loop = nullptr;
  const ir::Instruction* src = nullptr;  ///< store (Memory) or phi (Scalar)
  const ir::Instruction* dst = nullptr;  ///< load (Memory) or update (Scalar)
  unsigned distance = 1;                 ///< iterations spanned
  std::vector<const ir::Instruction*> chain;
};

class MemoryAnalysis {
 public:
  MemoryAnalysis(const ir::Function& function, const FunctionAnalyses& fa,
                 const ScalarEvolution& scev);

  /// Every Load/Store of the function, in program order (block order, then
  /// instruction order).
  const std::vector<MemAccessInfo>& accesses() const { return accesses_; }
  const MemAccessInfo* infoFor(const ir::Instruction* inst) const;

  /// Dependences carried by a loop of this function, scalar recurrences
  /// first, then memory pairs in program order of the store.
  const std::vector<LoopCarriedDep>& carriedDeps(const Loop* loop) const;
  bool hasCarriedDep(const Loop* loop) const {
    return !carriedDeps(loop).empty();
  }

  /// Stream pattern: the access address is an affine function of induction
  /// variables while `loop` iterates (paper: statically computable address
  /// sequence, required by the decoupled interface).
  bool isStream(const ir::Instruction* access, const Loop* loop) const;

  /// Distinct addresses touched during ONE execution of `region`;
  /// `unknownTrip` substitutes for loops without a static trip count.
  /// nullopt when the address is not statically analyzable (scratchpad
  /// interfaces then do not apply — their size must be static).
  std::optional<uint64_t> footprintElems(const ir::Instruction* access,
                                         const Region* region,
                                         uint64_t unknownTrip) const;

 private:
  void analyzeLoop(const Loop* loop);
  /// Def-use path dst ... src (operand walk) restricted to `loop`;
  /// empty when `src` does not feed `dst`.
  std::vector<const ir::Instruction*> defUsePath(const ir::Instruction* from,
                                                 const ir::Instruction* to,
                                                 const Loop* loop) const;

  const ir::Function& function_;
  const LoopInfo& loops_;
  const ScalarEvolution& scev_;
  std::vector<MemAccessInfo> accesses_;
  /// accesses_[blockBegin_[i] .. blockBegin_[i + 1]) are block i's accesses.
  std::vector<uint32_t> blockBegin_;
  std::vector<std::vector<LoopCarriedDep>> deps_;  ///< by Loop::index()
  std::vector<LoopCarriedDep> noDeps_;
};

}  // namespace cayman::analysis
