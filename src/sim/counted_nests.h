// Closed-form profiling (DESIGN.md §20): the loop nests a counts-only run
// counts instead of interpreting block by block, and the evaluator that
// counts one entry of such a nest.
//
// Profiling reads only block counts, instructions and cycles. Inside a
// counted nest those follow from the trip counts alone, so Interpreter::
// profile() adds them in closed form on nest entry. A skipped nest's values
// feed nothing profiling reads, so the run jumps to the nest's exit; a live
// nest's values feed a later branch or address, so the run executes its
// value operations on a stream without block accounting or branches.
// CountedNestPlan decides, on the IR, which nests that is sound for; the
// Decoder resolves each planned nest against a frame (DecodedNest), emits a
// live nest's stream and ends its preheader in a CountedNest micro-op;
// NestCounter evaluates a DecodedNest from the frame's values at entry.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/regions.h"

namespace cayman::sim {

/// constant + Σ coeff·symbol over 64-bit words, wrapping exactly like the
/// interpreter's i64 arithmetic. A symbol is an induction-variable phi of
/// the nest or a value the nest does not define: an argument, an
/// instruction outside the nest, or a global array (its base address).
struct LinearForm {
  uint64_t constant = 0;
  std::vector<std::pair<const ir::Value*, uint64_t>> terms;
};

/// One loop of a planned nest. Per iteration, each body block runs once and
/// each child loop is entered once; the header runs once more per entry.
struct NestLoopPlan {
  int parent = -1;  ///< index into NestPlan::loops; -1 for the nest's root
  const ir::BasicBlock* header = nullptr;
  const ir::BasicBlock* exit = nullptr;     ///< where the header test leaves
  std::vector<const ir::BasicBlock*> body;  ///< own blocks but the header
  const ir::Instruction* iv = nullptr;      ///< the header's counter phi
  LinearForm init;                          ///< iv's value on entry
  LinearForm bound;
  int64_t step = 0;
  ir::CmpPred pred = ir::CmpPred::LT;  ///< iterates while `iv pred bound`
};

/// One load or store of a planned nest, whose address the counter must
/// prove in bounds before it may count the nest.
struct NestAccessPlan {
  const ir::Instruction* inst = nullptr;  ///< the load or store
  LinearForm address;
  uint32_t bytes = 0;
  uint32_t loop = 0;      ///< innermost nest loop holding the access
  bool inHeader = false;  ///< runs in that loop's header (sees the exit iv)
};

struct NestPlan {
  const ir::BasicBlock* preheader = nullptr;  ///< its jump enters the nest
  std::vector<NestLoopPlan> loops;  ///< pre-order, the root first
  std::vector<NestAccessPlan> accesses;
  /// Its values feed the control/address slice, so a counts-only run
  /// executes its value operations after counting it.
  bool live = false;
};

/// The counted nests of every function of a module, built from the WPst's
/// analyses. A nest is a candidate when every loop is counted (one latch, a
/// preheader, one exit, the header test its only conditional branch, an
/// i64 counter with a trip count affine in the enclosing counters), it
/// holds no call, every access address is affine and each value those forms
/// read inside the nest dominates its use. A candidate with no instruction
/// in the module's control/address slice is skipped; a maximal candidate
/// the slice drops that holds no skipped nest is live.
class CountedNestPlan {
 public:
  explicit CountedNestPlan(const analysis::WPst& wpst);

  /// The skipped and live nests of `function`, in header order.
  const std::vector<NestPlan>& nestsOf(const ir::Function& function) const;

 private:
  std::unordered_map<const ir::Function*, std::vector<NestPlan>> nests_;
};

/// A LinearForm resolved against an activation frame: global bases are
/// folded into the constant, each other symbol is a frame slot or the
/// counter of a nest loop.
struct FrameLinear {
  struct Term {
    uint32_t index = 0;  ///< frame slot, or loop index when `iv`
    bool iv = false;
    uint64_t coeff = 0;
  };
  uint64_t constant = 0;
  std::vector<Term> terms;
};

struct DecodedNestLoop {
  uint32_t header = 0;          ///< dense block id
  std::vector<uint32_t> body;   ///< dense block ids
  std::vector<uint32_t> children;
  uint64_t headerSize = 0;      ///< instructions per header execution
  uint64_t bodySize = 0;        ///< body instructions per iteration
  double headerCost = 0.0;
  double bodyCost = 0.0;
  FrameLinear init;
  FrameLinear bound;
  int64_t step = 0;
  ir::CmpPred pred = ir::CmpPred::LT;
  /// Bit i set: a trip count in this loop's subtree reads loop i's counter.
  uint64_t ivUses = 0;
};

struct DecodedNest {
  struct Access {
    FrameLinear address;
    uint32_t bytes = 0;
    uint32_t loop = 0;
    bool inHeader = false;
  };
  std::vector<DecodedNestLoop> loops;
  std::vector<Access> accesses;
  uint32_t exitPc = 0;  ///< where the root header's exit edge leads
  /// Where a counted entry continues: a live nest's value stream, which
  /// ends at exitPc; exitPc itself for a skipped nest.
  uint32_t streamPc = 0;
};

/// Evaluates decoded nests; its scratch state is reused across entries.
class NestCounter {
 public:
  struct Totals {
    uint64_t instructions = 0;
    uint64_t blocks = 0;
    double cycles = 0.0;
  };

  /// Counts one entry of `nest` from the frame's values. False when the
  /// nest must be interpreted instead: a trip count that is not finite or
  /// that overflows, an access not proven inside the memory image of
  /// `memSize` bytes, or more than `budget` instructions. On true, apply()
  /// adds the counted block executions.
  bool count(const DecodedNest& nest, const uint64_t* frame, uint64_t memSize,
             uint64_t budget, Totals& totals);
  /// Adds the block counts of the last successful count() to `counts`.
  void apply(const DecodedNest& nest, uint64_t* counts) const;

 private:
  /// The values a counter takes in some part of the nest.
  struct Range {
    int64_t lo = 0;
    int64_t hi = 0;
    bool empty = true;
    void include(int64_t a, int64_t b);
  };
  struct LoopState {
    uint64_t entries = 0;  ///< header entries
    uint64_t iters = 0;    ///< body iterations
    int64_t iv = 0;        ///< the counter, while a child is visited
    Range body;            ///< counter values the body sees
    Range header;          ///< the same plus each exit value
  };

  bool visit(const DecodedNest& nest, uint32_t loop, uint64_t mult);
  uint64_t eval(const FrameLinear& form) const;

  const uint64_t* frame_ = nullptr;
  uint64_t budget_ = 0;
  uint64_t instructions_ = 0;
  std::vector<LoopState> loops_;  ///< by nest loop
};

}  // namespace cayman::sim
