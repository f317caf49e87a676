// IR interpreter with cycle accounting — Cayman's profiling substrate.
//
// Each function is lowered once by sim::Decoder into a flat micro-op stream
// over a frame of 8-byte words; the hot loop is direct-threaded (computed
// goto) over fixed-size micro-ops with all operands pre-resolved to frame
// slots — no hash-map access per dynamic instruction. The original
// tree-walking engine lives on as a test-only oracle
// (tests/oracles/interpreter.h) that must reproduce every Result bit for bit.
// profile() is the counts-only run the pipeline profiles with: it counts
// the planned loop nests in closed form instead of interpreting them block
// by block, and runs only the value operations of the live ones
// (sim/counted_nests.h).
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <unordered_map>

#include "sim/cpu_model.h"
#include "sim/decoder.h"
#include "sim/memory.h"
#include "support/cancellation.h"

namespace cayman::sim {

class Interpreter {
 public:
  explicit Interpreter(const ir::Module& module,
                       CpuCostModel model = CpuCostModel::cva6());

  struct Result {
    double totalCycles = 0.0;
    uint64_t instructions = 0;
    std::unordered_map<const ir::BasicBlock*, uint64_t> blockCounts;
    std::optional<Slot> returnValue;

    uint64_t countOf(const ir::BasicBlock* block) const {
      auto it = blockCounts.find(block);
      return it == blockCounts.end() ? 0 : it->second;
    }
  };

  /// Executes the module's entry function. Integer arguments map
  /// positionally; missing arguments default to zero. Memory is reset to its
  /// initial image first, so repeated runs are deterministic.
  Result run(std::span<const int64_t> args = {});
  /// Executes a specific function (also from a freshly reset memory image).
  Result runFunction(const ir::Function& function,
                     std::span<const int64_t> args = {});

  /// Counts-only run of the entry function with no arguments, for
  /// profiling: the same blockCounts, instructions and totalCycles as run(),
  /// and the same instruction-limit and cancellation errors, but the counted
  /// nests of CountedNestPlan are not interpreted block by block: a skipped
  /// nest is not run at all, a live one runs its value stream. returnValue
  /// stays empty and the memory image is unspecified afterwards. `wpst`
  /// must be built over this interpreter's module; the first call plans
  /// the nests.
  Result profile(const analysis::WPst& wpst);

  SimMemory& memory() { return memory_; }
  const SimMemory& memory() const { return memory_; }
  const CpuCostModel& costModel() const { return model_; }

  /// Abort execution after this many dynamic instructions (runaway guard).
  /// Tripping the limit throws a catchable cayman::Error; SimMemory stays
  /// valid and is reset on the next run.
  void setInstructionLimit(uint64_t limit) { instructionLimit_ = limit; }
  uint64_t instructionLimit() const { return instructionLimit_; }

  /// Cooperative cancellation: when set, the step loop polls the token at
  /// block granularity (rate-limited to every ~1k blocks so the steady-clock
  /// read stays off the hot path) and aborts with support::CancelledError.
  /// The token must outlive every run. Pass nullptr to detach.
  void setCancelToken(const support::CancelToken* token) { cancel_ = token; }

  struct DecodeStats {
    size_t functions = 0;
    size_t microOps = 0;
    size_t constants = 0;
  };
  /// Decodes every function in the module (normally decoding is lazy, per
  /// function, on first execution). With force, drops cached streams and
  /// re-decodes — used to benchmark decode time in isolation.
  DecodeStats predecodeAll(bool force = false);

 private:
  /// Decoded stream plus its dense execution-count accumulator (zeroed at
  /// the start of each run, folded into Result::blockCounts at its end).
  struct DecodedEntry {
    DecodedFunction df;
    std::vector<uint64_t> counts;
  };

  DecodedEntry& decodedFor(const ir::Function& function);
  /// One run from a freshly reset memory image; returns the raw returned
  /// word. `counting` selects profile()'s closed-form nest entry.
  uint64_t execute(const ir::Function& function,
                   std::span<const int64_t> args, bool counting,
                   Result& result);
  /// Runs one activation on a frame from newFrame() whose argument words the
  /// caller filled, and returns the raw returned word (0 for void).
  uint64_t execDecoded(DecodedEntry& entry, std::vector<uint64_t> frame,
                       Result& result, int depth);

  const ir::Module& module_;
  CpuCostModel model_;
  SimMemory memory_;
  std::unordered_map<const ir::Function*, std::unique_ptr<DecodedEntry>>
      decoded_;
  std::unique_ptr<CountedNestPlan> plan_;  ///< made by the first profile()
  NestCounter nestCounter_;
  bool counting_ = false;
  uint64_t instructionLimit_ = 2'000'000'000;
  uint64_t executed_ = 0;
  const support::CancelToken* cancel_ = nullptr;
  uint64_t cancelTick_ = 0;
};

}  // namespace cayman::sim
