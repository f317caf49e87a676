// Cayman's accelerator model (paper §III-C): generates candidate
// configurations for a kernel region — control-flow optimization (unrolling,
// pipelining) plus per-access interface specialization — and estimates each
// configuration's cycle count and area without synthesizing full hardware.
#pragma once

#include <memory>
#include <optional>
#include <span>

#include "accel/config.h"
#include "hls/scheduler.h"
#include "sim/profiler.h"
#include "support/cancellation.h"

namespace cayman {
class ThreadPool;
}

namespace cayman::accel {

/// Nothing branches on this type: generate() has one path (structural
/// dedupe, MII admission and branch-and-bound over the unroll ladder). It
/// exists only because the benchmark harness (perfbench/) still assigns
/// ModelParams::generateMode and passes a mode to QsCoresFlow.
enum class GenerateMode {
  Guided,
};

/// Unroll factors explored for dependence-free innermost loops.
inline constexpr unsigned kUnrollFactors[] = {1, 2, 4, 8, 16};
/// Largest scratchpad buffer worth allocating (bytes).
inline constexpr uint64_t kMaxScratchpadBytes = 1u << 15;

struct ModelParams {
  /// Target clock (2 ns = the paper's 500 MHz).
  double clockNs = 2.0;
  /// Scratchpad threshold β: cache an access when its per-entry count is at
  /// least β times its footprint (paper §III-C).
  double beta = 4.0;
  /// Ablation switches (coupled-only Cayman in Fig. 6 disables the first
  /// two; the QsCores-like baseline additionally disables control-flow
  /// optimization, i.e. both pipelining and unrolling).
  bool allowDecoupled = true;
  bool allowScratchpad = true;
  bool optimizeControlFlow = true;
  /// Substituted trip count when neither SCEV nor the profile knows one.
  uint64_t unknownTripFallback = 16;
  /// Unused (see GenerateMode).
  GenerateMode generateMode = GenerateMode::Guided;
  /// Cooperative cancellation: polled between candidate estimations so a
  /// pathological region cannot overshoot a per-workload deadline. Not owned.
  const support::CancelToken* cancel = nullptr;
  /// Test hook: microseconds slept per generateUncached() call (deadline
  /// tests force slowness here the way CAYMAN_INJECT_FAULT forces failures).
  unsigned injectGenerateStallUs = 0;
  /// Unused: the model generates every region on the calling thread. Kept
  /// declared only because the benchmark harness still assigns it.
  ThreadPool* pool = nullptr;
};

/// Thread-compatible, like the Framework that owns it: its caches and
/// counters are unsynchronized, so one thread at a time uses a model.
class AcceleratorModel {
 public:
  AcceleratorModel(const analysis::WPst& wpst, const sim::ProfileData& profile,
                   const hls::TechLibrary& tech, hls::InterfaceTiming timing,
                   ModelParams params = {});

  const ModelParams& params() const { return params_; }
  const hls::TechLibrary& tech() const { return tech_; }
  const hls::InterfaceTiming& timing() const { return scheduler_.timing(); }
  const analysis::WPst& wpst() const { return wpst_; }
  const sim::ProfileData& profile() const { return profile_; }

  /// accel(v, R): candidate configurations for one kernel region, cheapest
  /// first. Empty when the region is not a legal/profitable candidate.
  ///
  /// Memoized: the result is budget-independent (budget filtering happens in
  /// the selector), so repeated budget sweeps over one model reuse the cached
  /// list. The returned reference stays valid for the model's lifetime. A
  /// generation that throws caches nothing, so the next call retries it.
  const std::vector<AcceleratorConfig>& generate(
      const analysis::Region* region) const;

  /// Eagerly fills the generate cache for every region of the wPST (calling
  /// generate() in pre-order), leaving later selector runs pure cache reads.
  void warmGenerateCache() const;

  /// True once generate(region) has cached the region's list.
  bool generated(const analysis::Region* region) const {
    return generateSlots_.at(static_cast<size_t>(region->id())).has_value();
  }

  /// Re-estimates (cycles, area, counters) for a fully-specified config.
  void estimate(AcceleratorConfig& config) const;

  /// One point of the region's unroll ladder, not yet estimated: the region,
  /// its loop configs (with `optimize`, every pipelineable loop pipelined
  /// and, when unrolling is legal, unrolled by `unroll`; without, all
  /// sequential) and the interfaces assigned for them.
  /// generate() picks its candidates among these points; the exhaustive
  /// enumeration oracle in tests/ enumerates them all.
  AcceleratorConfig ladderConfig(const analysis::Region* region,
                                 unsigned unroll, bool optimize) const;

  /// The wPST's analyses of `function` (shared with every other model built
  /// on the same wPST).
  const analysis::FunctionAnalyses& analysesFor(
      const ir::Function* function) const {
    return wpst_.analyses(function);
  }

  /// Effective trip count of a loop (static, else profiled, else fallback).
  double tripCount(const analysis::Loop* loop) const;

  /// True when the loop region has the canonical pipelineable shape:
  /// innermost, straight-line single body block.
  bool isPipelineable(const analysis::Region* loopRegion) const;

  /// Number of estimate() invocations on this model: one per candidate
  /// generate() scores, plus any direct estimate() calls.
  uint64_t estimateCalls() const { return estimateCalls_; }
  /// Number of candidate configs produced by generateUncached() across all
  /// regions (post-dedup, i.e. the lists the selector actually sees).
  uint64_t candidatesTotal() const { return candidatesTotal_; }
  /// scheduleBlock() invocations made on this model's scheduler: one per
  /// schedule-cache miss (see scheduleBlockCached).
  uint64_t scheduleBlockCalls() const { return scheduler_.blockCalls(); }

  /// The model's memoized scheduleBlock(): each block keeps one cache slot
  /// holding its plan and the schedules computed so far, one per (width,
  /// interface signature); a miss schedules once, a hit returns a copy.
  hls::BlockSchedule scheduleBlockCached(const ir::BasicBlock& block,
                                         const hls::IfaceAssignment& ifaces,
                                         unsigned unroll) const;

 private:
  struct Estimate {
    double cycles = 0.0;  ///< whole-run cycles
    double area = 0.0;
    unsigned seqBlocks = 0;
    unsigned pipelined = 0;
  };

  // --- Per-function tables ---------------------------------------------------
  //
  // Everything generation reads that no region, ladder point or interface
  // assignment changes, built once per function of the module on first use.

  /// One memory access. Promotability and stream-ness are filled in lazily,
  /// the first time a pipelined loop asks.
  struct AccessEntry {
    const ir::Instruction* inst = nullptr;
    const ir::GlobalArray* array = nullptr;  ///< resolved base, else null
    const analysis::Loop* loop = nullptr;    ///< innermost enclosing loop
    std::optional<bool> promotable;
    std::optional<bool> stream;
  };
  /// One loop, by Loop::index().
  struct LoopEntry {
    bool canUnroll = false;
    double tripCount = 0.0;  ///< see tripCount()
  };
  /// A block's schedule-cache slot: its plan, and the schedules computed
  /// so far, one per (width, hls::Scheduler::signature()).
  struct BlockSlot {
    struct Entry {
      unsigned width = 0;
      std::vector<hls::AccessIface> signature;
      hls::BlockSchedule schedule;
    };
    std::unique_ptr<hls::BlockPlan> plan;  ///< built on the first request
    std::vector<Entry> entries;
  };
  struct FunctionTables {
    const ir::Function* function = nullptr;
    const analysis::FunctionAnalyses* analyses = nullptr;
    /// The function's accesses in program order; block b's are
    /// accesses[accessBegin[b] .. accessBegin[b + 1]).
    std::vector<AccessEntry> accesses;
    std::vector<uint32_t> accessBegin;
    std::vector<uint64_t> blockCounts;  ///< profiled, by block index
    std::vector<BlockSlot> blocks;      ///< by block index
    std::vector<LoopEntry> loops;
  };
  FunctionTables& tablesFor(const ir::Function* function) const;
  static std::span<AccessEntry> accessesOf(FunctionTables& tables,
                                           const ir::BasicBlock* block);

  /// The MII that iiTreeTerm computed for one pipelined loop of a ladder
  /// point, handed on to that point's estimate.
  struct LoopII {
    const analysis::Loop* loop = nullptr;
    unsigned ii = 0;
  };

  std::vector<AcceleratorConfig> generateUncached(
      const analysis::Region* region) const;
  std::vector<AcceleratorConfig> generateGuided(
      const analysis::Region* region) const;
  /// estimate() that reuses MII bounds iiTreeTerm already computed for the
  /// config's loops.
  void estimateWith(AcceleratorConfig& config,
                    std::span<const LoopII> iis) const;
  /// The unroll-sensitive part of a config's estimated cycles: for every
  /// pipelined loop in `region`, entries * ((iterations-1)*II +
  /// reduction-tree cycles), computed from the scheduler's MII bounds
  /// exactly as estimateRegion() would. Used by generateGuided to admit
  /// ladder points without estimating them. Each loop's II is appended to
  /// `iis`.
  double iiTreeTerm(const analysis::Region* region,
                    const std::vector<LoopConfig>& loops,
                    const hls::IfaceAssignment& ifaces,
                    std::vector<LoopII>& iis) const;
  const hls::BlockPlan& planFor(FunctionTables& tables,
                                const ir::BasicBlock& block) const;
  hls::BlockSchedule scheduleBlockCached(FunctionTables& tables,
                                         const ir::BasicBlock& block,
                                         const hls::IfaceAssignment& ifaces,
                                         unsigned unroll) const;
  Estimate estimateRegion(FunctionTables& tables,
                          const analysis::Region* region,
                          const AcceleratorConfig& config,
                          unsigned unrollContext,
                          std::span<const LoopII> iis) const;
  bool canUnroll(const analysis::Loop* loop,
                 const analysis::FunctionAnalyses& fa) const;
  bool isPromotable(const ir::Instruction* access, const analysis::Loop* loop,
                    const analysis::FunctionAnalyses& fa) const;

  /// What estimate() charges for a config's interfaces, gathered in one
  /// program-order pass over the region's memory accesses.
  struct IfaceCosts {
    double area = 0.0;               ///< interface hardware (um^2)
    double dmaCyclesPerEntry = 0.0;  ///< scratchpad fill + drain
    unsigned coupled = 0;            ///< Table II #C / #D / #S
    unsigned decoupled = 0;
    unsigned scratchpad = 0;
  };
  IfaceCosts interfaceCosts(FunctionTables& tables,
                            const AcceleratorConfig& config) const;

  /// One memory access of a region: its table entry plus what the region
  /// decides, computed once per generate call and shared by every
  /// assignInterfaces() over the region.
  struct AccessFacts {
    AccessEntry* access = nullptr;
    double countPerEntry = 0.0;  ///< executions per region entry
    std::optional<uint64_t> footprintElems;
  };
  /// The region's memory accesses, sorted by instruction address.
  std::vector<AccessFacts> accessFacts(FunctionTables& tables,
                                       const analysis::Region* region) const;
  hls::IfaceAssignment assignInterfaces(
      FunctionTables& tables, std::vector<AccessFacts>& facts,
      const std::vector<LoopConfig>& loops) const;
  std::vector<LoopConfig> makeLoopConfigs(FunctionTables& tables,
                                          const analysis::Region* region,
                                          unsigned unroll,
                                          bool optimize) const;

  const analysis::WPst& wpst_;
  const sim::ProfileData& profile_;
  const hls::TechLibrary& tech_;
  hls::Scheduler scheduler_;
  ModelParams params_;
  mutable uint64_t estimateCalls_ = 0;
  mutable uint64_t candidatesTotal_ = 0;

  /// One entry per function asked about so far (modules have few, so the
  /// lookup is a scan).
  mutable std::vector<std::unique_ptr<FunctionTables>> tables_;

  // --- generate() memoization ----------------------------------------------
  //
  // One slot per region, indexed by Region::id(): empty until the region's
  // generation finishes. A filled slot's list never moves, so it is handed
  // out by reference.
  mutable std::vector<std::optional<std::vector<AcceleratorConfig>>>
      generateSlots_;
};

}  // namespace cayman::accel
