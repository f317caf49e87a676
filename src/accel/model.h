// Cayman's accelerator model (paper §III-C): generates candidate
// configurations for a kernel region — control-flow optimization (unrolling,
// pipelining) plus per-access interface specialization — and estimates each
// configuration's cycle count and area without synthesizing full hardware.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <optional>

#include "accel/config.h"
#include "analysis/roofline.h"
#include "hls/scheduler.h"
#include "sim/profiler.h"
#include "support/cancellation.h"

namespace cayman {
class ThreadPool;
}

namespace cayman::accel {

/// The model's one design-space engine: generate() is roofline-guided —
/// structurally identical ladder points are deduped before estimation,
/// memory-bound regions clamp the ladder at the computed
/// bandwidth-saturating factor, and compute-bound regions stop walking once
/// a step scores worse. Nothing branches on this type; it exists only
/// because the benchmark harness (perfbench/) still assigns
/// ModelParams::generateMode and passes a mode to QsCoresFlow.
enum class GenerateMode {
  Guided,
};

struct ModelParams {
  /// Target clock (2 ns = the paper's 500 MHz).
  double clockNs = 2.0;
  /// Scratchpad threshold β: cache an access when its per-entry count is at
  /// least β times its footprint (paper §III-C).
  double beta = 4.0;
  /// Unroll factors explored for dependence-free innermost loops.
  std::vector<unsigned> unrollFactors = {1, 2, 4, 8, 16};
  /// Largest scratchpad buffer worth allocating (bytes).
  uint64_t maxScratchpadBytes = 1u << 15;
  /// Ablation switches (coupled-only Cayman in Fig. 6 disables the first
  /// two; the QsCores-like baseline additionally disables control-flow
  /// optimization).
  bool allowDecoupled = true;
  bool allowScratchpad = true;
  bool allowPipelining = true;
  bool allowUnrolling = true;
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
  /// list. Safe to call from concurrent selector runs: one caller generates
  /// a region while the others wait for its list. The returned reference
  /// stays valid for the model's lifetime.
  const std::vector<AcceleratorConfig>& generate(
      const analysis::Region* region) const;

  /// Eagerly fills the generate cache for every region of the wPST (calling
  /// generate() in pre-order), leaving later concurrent explore() calls pure
  /// cache reads.
  void warmGenerateCache() const;

  /// Re-estimates (cycles, area, counters) for a fully-specified config.
  void estimate(AcceleratorConfig& config) const;

  /// One point of the region's unroll ladder, not yet estimated: the region,
  /// its loop configs (with `optimize`, every pipelineable loop pipelined
  /// and, when unrolling is allowed and legal, unrolled by `unroll`;
  /// without, all sequential) and the interfaces assigned for them.
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

  /// Roofline/bottleneck analysis backing generate()'s ladder walk (lazily
  /// built on first use; memoized per region).
  const analysis::RooflineAnalysis& roofline() const;

  /// Number of estimate() invocations on this model: one per candidate
  /// generate() scores, plus any direct estimate() calls.
  uint64_t estimateCalls() const {
    return estimateCalls_.load(std::memory_order_relaxed);
  }
  /// Number of candidate configs produced by generateUncached() across all
  /// regions (post-dedup, i.e. the lists the selector actually sees).
  uint64_t candidatesTotal() const {
    return candidatesTotal_.load(std::memory_order_relaxed);
  }
  /// scheduleBlock() invocations made on this model's scheduler: one per
  /// schedule-cache miss (see scheduleBlockCached).
  uint64_t scheduleBlockCalls() const { return scheduler_.blockCalls(); }

  /// Signature comparisons performed by the schedule cache's ordered
  /// lookups. Regression measure for the cache's container: the old
  /// linear-scan buckets cost O(entries) comparisons per lookup, the sorted
  /// map costs O(log entries) — tests pin the gap.
  uint64_t schedSignatureComparisons() const {
    return sigComparisons_.load(std::memory_order_relaxed);
  }

 private:
  struct Estimate {
    double cycles = 0.0;  ///< whole-run cycles
    double area = 0.0;
    unsigned seqBlocks = 0;
    unsigned pipelined = 0;
  };

  std::vector<AcceleratorConfig> generateUncached(
      const analysis::Region* region) const;
  std::vector<AcceleratorConfig> generateGuided(
      const analysis::Region* region) const;
  /// The unroll-sensitive part of a config's estimated cycles: for every
  /// pipelined loop in `region`, entries * ((iterations-1)*II +
  /// reduction-tree cycles), computed from the scheduler's MII bounds
  /// exactly as estimateRegion() would. Used by generateGuided to admit
  /// ladder points without estimating them.
  double iiTreeTerm(const analysis::Region* region,
                    const std::vector<LoopConfig>& loops,
                    const hls::IfaceAssignment& ifaces) const;
  /// scheduleBlock with memoization: identical
  /// (block, interface-restriction, width) requests are scheduled once, and
  /// the returned reference points into the cache (valid for the model's
  /// lifetime).
  const hls::BlockSchedule& scheduleBlockCached(
      const ir::BasicBlock& block, const hls::IfaceAssignment& ifaces,
      unsigned unroll) const;
  Estimate estimateRegion(const analysis::Region* region,
                          const AcceleratorConfig& config,
                          unsigned unrollContext) const;
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
  IfaceCosts interfaceCosts(const AcceleratorConfig& config) const;

  /// Facts about one memory access of a region that do not depend on the
  /// ladder point: computed once per generate call, then shared by every
  /// assignInterfaces() over the region. Promotability and stream-ness are
  /// filled in lazily, only once a pipelined loop asks.
  struct AccessFacts {
    const ir::Instruction* inst = nullptr;
    const ir::GlobalArray* array = nullptr;  ///< resolved base, else null
    double countPerEntry = 0.0;  ///< executions per region entry
    const analysis::Loop* loop = nullptr;  ///< innermost enclosing loop
    std::optional<uint64_t> footprintElems;
    std::optional<bool> promotable;
    std::optional<bool> stream;
  };
  /// The region's memory accesses, sorted by instruction address.
  std::vector<AccessFacts> accessFacts(const analysis::Region* region) const;
  hls::IfaceAssignment assignInterfaces(
      const analysis::Region* region, std::vector<AccessFacts>& facts,
      const std::vector<LoopConfig>& loops) const;
  std::vector<LoopConfig> makeLoopConfigs(const analysis::Region* region,
                                          unsigned unroll,
                                          bool optimize) const;

  const analysis::WPst& wpst_;
  const sim::ProfileData& profile_;
  const hls::TechLibrary& tech_;
  hls::Scheduler scheduler_;
  ModelParams params_;
  mutable std::atomic<uint64_t> estimateCalls_{0};
  mutable std::atomic<uint64_t> candidatesTotal_{0};

  /// Lazily-built roofline analysis. Guarded by rooflineMutex_ for
  /// concurrent generate() callers.
  mutable std::mutex rooflineMutex_;
  mutable std::unique_ptr<analysis::RooflineAnalysis> roofline_;

  // --- Schedule memoization ------------------------------------------------
  //
  // Each (block, width) bucket is a sorted map keyed by the interface
  // signature (AccessIface per memory access in program order) — O(log n)
  // signature comparisons per lookup where the old linear bucket scan paid
  // O(n).

  /// Signature order for the sorted buckets: lexicographic over AccessIface
  /// operator<. Stateful so every comparison is counted (the container-
  /// complexity regression measure behind schedSignatureComparisons()).
  struct SigLess {
    std::atomic<uint64_t>* comparisons = nullptr;
    bool operator()(const std::vector<hls::AccessIface>& a,
                    const std::vector<hls::AccessIface>& b) const {
      comparisons->fetch_add(1, std::memory_order_relaxed);
      return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                          b.end());
    }
  };
  using SchedBucket =
      std::map<std::vector<hls::AccessIface>, hls::BlockSchedule, SigLess>;
  mutable std::mutex schedMutex_;
  mutable std::map<std::pair<const ir::BasicBlock*, unsigned>, SchedBucket>
      schedBuckets_;
  mutable std::atomic<uint64_t> sigComparisons_{0};

  // --- generate() memoization ----------------------------------------------
  //
  // One slot per region, indexed by Region::id(). The first caller marks the
  // slot Running and generates outside the lock; later callers wait on
  // generateReady_ until it is Done (a hit) or, when the generation threw,
  // back to Empty (they retry it themselves). A Done slot's list never moves,
  // so it is handed out by reference.
  enum class SlotState : uint8_t { Empty, Running, Done };
  struct GenerateSlot {
    SlotState state = SlotState::Empty;
    std::vector<AcceleratorConfig> configs;
  };
  mutable std::mutex generateMutex_;
  mutable std::condition_variable generateReady_;
  mutable std::vector<GenerateSlot> generateSlots_;
};

/// Process-wide high-water mark of concurrently running cold candidate
/// generations (generateUncached bodies, all models). Exported as the
/// model.cold_inflight_peak gauge in wall-clock trace mode; tests read it
/// directly to prove cold generations of distinct workloads overlapped.
int64_t coldGenerationInflightPeak();
/// Resets the peak (tests only; the gauge in an already-attached trace
/// recorder keeps its high-water mark).
void resetColdGenerationInflightPeak();

}  // namespace cayman::accel
