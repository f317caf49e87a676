// Pre-decoding pass: lowers an ir::Function into a dense, directly-executable
// micro-op stream so the interpreter's hot loop never touches a hash map.
//
// Decode-time resolution:
//   - every SSA value gets a fixed frame-slot index (arguments first, then
//     value-producing instructions); a slot is one 8-byte word holding the
//     integer bits, or the IEEE-754 bits of a float (f32 values are widened
//     to double, as in the reference engine);
//   - constants and global-array base addresses are interned by word into a
//     per-function constant pool whose slots are appended to the frame and
//     copied in once per activation (i64 0 and f64 0.0 share a word, f64
//     -0.0 does not);
//   - phi nodes disappear: each CFG edge into a block with phis becomes a
//     sequentialized parallel-copy sequence (one scratch slot breaks cycles)
//     followed by a jump, so block bodies are pure straight-line code;
//   - blocks get dense IDs, making per-block execution counts plain array
//     indexing; each block's size and cycle cost ride in its BlockHead;
//   - a live counted nest also gets a value stream after the blocks: its
//     value operations without block accounting or branches, which
//     profile() runs once the nest's counts are added (counted_nests.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/counted_nests.h"
#include "sim/cpu_model.h"
#include "sim/memory.h"

namespace cayman::sim {

/// Typed view of one SSA value (integer or float payload per the static
/// type). The reference engine computes in Slots; the decoded engine keeps
/// raw words and rebuilds a Slot only for Result::returnValue, as {i, 0.0}
/// or {0, f} from the function's return type.
struct Slot {
  int64_t i = 0;
  double f = 0.0;
};

/// Executable operation kinds. Mostly 1:1 with ir::Opcode, but memory ops are
/// split by payload type, SExt becomes MoveI, and control flow is lowered to
/// explicit pc-targeted jumps plus per-block accounting heads.
enum class MicroOpcode : uint16_t {
  BlockHead,  // b = dense block id, a = block size, imm = bit_cast cycle
              // cost: count, cycles, instruction accounting
  Add, Sub, Mul, SDiv, SRem, And, Or, Xor, Shl, AShr, LShr,
  FAdd, FSub, FMul, FDiv, FNeg, FSqrt, FAbs, FMin, FMax,
  ICmp,       // aux = outcome mask (see icmpOutcomeMask)
  FCmp,       // aux = ir::CmpPred
  SelectOp,   // a = cond, b = true slot, c = false slot
  ZExt,       // aux = source ir::Type::Kind
  MoveI,      // dst = frame[a] (SExt in this 64-bit-slot IR)
  Trunc,      // aux = destination ir::Type::Kind
  SIToFP,
  FPToSI,     // aux = destination ir::Type::Kind
  Gep,        // dst = frame[a] + frame[b] * imm
  // Memory ops specialized by access width at decode time (Ptr loads/stores
  // use the I64 forms). a = address slot for loads; a = value, b = address
  // for stores.
  LoadI1, LoadI32, LoadI64, LoadF32, LoadF64,
  StoreI1, StoreI32, StoreI64, StoreF32, StoreF64,
  Copy,       // dst = frame[a] (phi edge moves)
  Jump,       // b = target pc
  CondJump,   // a = cond slot, b = pc if true, c = pc if false
  CountedNest,  // a = DecodedFunction::nests index, b = header pc: a jump
                // into the nest, which a counts-only run counts instead
  LoopStep,   // a live nest's header test: dst = icmp(a, b) by the outcome
              // mask in aux bits 0-2; to pc c while aux bits 3-5 select
              // the outcome (the loop stays), else to pc imm
  Call,       // imm = callee index, a = arg offset, b = arg count,
              // aux = 1 when dst receives the return value
  Ret,        // aux = 1 when a holds the returned slot; keep last
};

inline constexpr size_t kNumMicroOpcodes =
    static_cast<size_t>(MicroOpcode::Ret) + 1;

/// ICmp's aux: bit 0 holds the predicate's result when a < b, bit 1 when
/// a == b, bit 2 when a > b, so the interpreter evaluates every predicate
/// without branching on it.
constexpr uint16_t icmpOutcomeMask(ir::CmpPred pred) {
  switch (pred) {
    case ir::CmpPred::EQ: return 0b010;
    case ir::CmpPred::NE: return 0b101;
    case ir::CmpPred::LT: return 0b001;
    case ir::CmpPred::LE: return 0b011;
    case ir::CmpPred::GT: return 0b100;
    case ir::CmpPred::GE: return 0b110;
  }
  return 0;
}

/// Fixed-size decoded operation. Field meaning depends on the opcode; for
/// plain compute ops dst/a/b/c are frame-slot indices. Integer arithmetic
/// computes in 64 bits; the decoder follows an i1/i32 result with a Trunc of
/// the slot onto itself, so narrow results wrap exactly like the
/// tree-walking reference.
struct MicroOp {
  MicroOpcode op = MicroOpcode::BlockHead;
  uint16_t aux = 0;
  uint32_t dst = 0;
  uint32_t a = 0;
  uint32_t b = 0;
  uint32_t c = 0;
  int64_t imm = 0;
};

/// One function lowered to a flat stream. Execution starts at ops[0] (the
/// entry block's BlockHead) and finishes at a Ret micro-op.
struct DecodedFunction {
  const ir::Function* source = nullptr;
  std::vector<MicroOp> ops;

  // Frame layout: [arguments | instruction results | constant pool | scratch
  // | live-nest stream temporaries].
  uint32_t numArgs = 0;
  uint32_t constBase = 0;
  uint32_t scratchSlot = 0;
  uint32_t frameSize = 0;
  std::vector<uint64_t> constPool;  // copied to frame[constBase..] per call
  bool returnsValue = false;

  // Call micro-ops index these side tables (variable-length argument lists).
  std::vector<uint32_t> callArgSlots;
  std::vector<const ir::Function*> callees;

  // Dense per-block metadata, indexed by the id in BlockHead.b.
  std::vector<const ir::BasicBlock*> blockOf;

  // The planned nests whose preheaders end in a CountedNest micro-op, with
  // the streams of the live ones appended to `ops`.
  std::vector<DecodedNest> nests;

  size_t numBlocks() const { return blockOf.size(); }
};

class Decoder {
 public:
  /// Memory provides global base addresses (stable across SimMemory::reset);
  /// the cost model provides the per-block cycle costs baked into BlockHead
  /// accounting.
  Decoder(const SimMemory& memory, const CpuCostModel& model)
      : memory_(memory), model_(model) {}

  /// `nests` are the function's planned counted nests (CountedNestPlan);
  /// each one whose blocks all cost a multiple of 0.5 cycles is entered
  /// through a CountedNest micro-op, and a live one gets a value stream.
  DecodedFunction decode(const ir::Function& function,
                         std::span<const NestPlan> nests = {}) const;

 private:
  const SimMemory& memory_;
  const CpuCostModel& model_;
};

}  // namespace cayman::sim
