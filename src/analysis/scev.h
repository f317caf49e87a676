// SCEV-lite: induction variables, static trip counts, and affine address
// analysis — the facts Cayman's accelerator model consumes (paper §III-B:
// stream pattern detection and footprint analysis).
#pragma once

#include <map>
#include <optional>

#include "analysis/loops.h"

namespace cayman::analysis {

struct FunctionAnalyses;

/// A canonical induction variable: phi in the loop header updated by a
/// loop-invariant constant step once per iteration.
struct InductionVar {
  const ir::Instruction* phi = nullptr;
  const Loop* loop = nullptr;
  std::optional<int64_t> init;  ///< constant initial value when known
  int64_t step = 0;
  const ir::Instruction* update = nullptr;  ///< the add feeding the backedge
};

/// Static trip count; `known == false` means profiling must supply one.
struct TripCount {
  bool known = false;
  uint64_t value = 0;
};

/// A linear form: constant + Σ coeff·symbol. Symbols are induction-variable
/// phis or other values (arguments, invariant instructions).
struct Affine {
  bool valid = false;
  int64_t constant = 0;
  std::map<const ir::Value*, int64_t> terms;

  /// Coefficient for the induction variable of `loop` (0 when absent).
  int64_t coeffForLoop(const Loop* loop) const;
  /// True when the form is usable and every non-IV symbol is defined outside
  /// `loop` (i.e. address moves affinely as `loop` iterates).
  bool isStreamIn(const Loop* loop) const;
};

/// Byte-granularity address of a memory access.
struct AddressInfo {
  bool valid = false;
  const ir::GlobalArray* base = nullptr;  ///< nullptr = statically unknown
  Affine offset;                          ///< bytes relative to base
};

class ScalarEvolution {
 public:
  ScalarEvolution(const ir::Function& function, const FunctionAnalyses& fa);

  /// Induction variable record for a header phi; nullptr if not an IV.
  const InductionVar* inductionVar(const ir::Instruction* phi) const;
  /// All IVs of a loop (usually one), in header phi order.
  std::vector<const InductionVar*> inductionVars(const Loop* loop) const;

  /// Static trip count from the header comparison (init/step/bound constant).
  TripCount tripCount(const Loop* loop) const;

  /// Linear-form analysis of an arbitrary integer value.
  Affine analyze(const ir::Value* value) const;

  /// Address analysis of a Load/Store pointer operand.
  AddressInfo addressOf(const ir::Instruction* access) const;

 private:
  Affine analyzeImpl(const ir::Value* value, int depth) const;

  std::map<const ir::Instruction*, InductionVar> ivs_;
};

}  // namespace cayman::analysis
