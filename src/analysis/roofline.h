// Roofline / bottleneck classification of wPST candidate regions.
//
// For each candidate region the analysis derives an operational intensity
// (compute operations per byte moved, both per region entry) from the
// profile and the memory analysis, and classifies the region against the
// interface timing's bandwidth ceiling and the datapath's issue ceiling:
//
//   MemoryBound  — intensity well below the machine balance: runtime is
//                  dominated by moving bytes; widening the datapath cannot
//                  pay beyond the bandwidth-saturating unroll factor.
//   ComputeBound — intensity well above balance: runtime is dominated by
//                  datapath work; the unroll ladder is worth walking until
//                  the model scores a step worse.
//   Balanced     — within the hysteresis band around the ridge point.
//
// A second, orthogonal label comes from the scheduler's MII bounds: a
// pipelineable loop is *recurrence-limited* when recMII >= resMII at unroll
// 1, i.e. its II is pinned by a loop-carried dependence chain and no amount
// of memory-port replication can improve it.
//
// The analysis is a pure function of (wPST, profile, tech, timing): results
// are deterministic and invariant under uniform profile scaling, which the
// property tests pin down. It drives GenerateMode::Guided in the
// accelerator model but has no dependency on the model itself.
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "analysis/memdep.h"
#include "analysis/regions.h"
#include "hls/scheduler.h"
#include "sim/profiler.h"

namespace cayman::analysis {

enum class Bottleneck {
  ComputeBound,
  MemoryBound,
  Balanced,
};

const char* bottleneckSpelling(Bottleneck b);

/// Classification of one candidate region. All "per entry" figures are
/// averages over the profiled run (dynamic counts / region entries).
struct RegionRoofline {
  /// Compute operations (arithmetic, compares, conversions, selects)
  /// executed per region entry.
  double opsPerEntry = 0.0;
  /// Floating-point subset of opsPerEntry (op mix via the tech library's
  /// opcode classification).
  double flopsPerEntry = 0.0;
  /// Bytes moved through load/store interfaces per region entry.
  double bytesPerEntry = 0.0;
  /// opsPerEntry / bytesPerEntry; +inf for regions that touch no memory.
  double intensity = 0.0;
  /// Ridge point of the ceilings: datapath ops/cycle over DMA bytes/cycle.
  double machineBalance = 0.0;
  Bottleneck bottleneck = Bottleneck::Balanced;
  /// True when the region contains a pipelineable loop whose II is pinned
  /// by a loop-carried recurrence (recMII >= resMII at unroll 1) — widening
  /// memory ports cannot improve such a loop's II.
  bool recurrenceLimited = false;
  /// Computed bandwidth-saturating unroll factor of the region's hottest
  /// pipelineable loop (1 when the region has none): beyond this factor the
  /// per-iteration traffic alone fills the II, so further widening moves
  /// the loop along the flat memory roof. Monotone non-increasing in the
  /// loop's bytes-per-iteration.
  unsigned saturatingUnroll = 1;
};

class RooflineAnalysis {
 public:
  RooflineAnalysis(const WPst& wpst, const sim::ProfileData& profile,
                   const hls::TechLibrary& tech, hls::InterfaceTiming timing,
                   double clockNs, uint64_t unknownTripFallback = 16);

  /// Classification for one region (memoized; thread-safe). Candidate
  /// regions only — other kinds return a default-constructed result.
  const RegionRoofline& classify(const Region* region) const;

  /// Label from intensity vs. machine balance with a 2x hysteresis band:
  /// intensity <= balance/2 -> MemoryBound, >= 2*balance -> ComputeBound,
  /// else Balanced. Exposed for property tests.
  static Bottleneck classifyIntensity(double intensity, double machineBalance);

  /// Unroll factor at which a pipelined loop's per-II traffic saturates the
  /// bandwidth ceiling: the II floor from bandwidth is u*bytesPerIter/BW
  /// cycles, so widening helps only while that floor sits below the
  /// recurrence floor — u_sat = max(1, floor(recMII * BW / bytesPerIter)).
  /// Monotone non-increasing in bytesPerIter; loops that touch no memory
  /// have no bandwidth ceiling (returns kUnbounded).
  static unsigned saturatingUnroll(unsigned recMii, double bytesPerIter,
                                   double bytesPerCycle);

  static constexpr unsigned kUnboundedUnroll = 1u << 16;

 private:
  RegionRoofline classifyUncached(const Region* region) const;
  /// Mirrors the accelerator model's pipelineable-shape test: innermost
  /// loop, bb children only, exactly one body block besides header/latch.
  const ir::BasicBlock* pipelineableBody(const Region* loopRegion) const;

  const WPst& wpst_;
  const sim::ProfileData& profile_;
  hls::Scheduler scheduler_;
  uint64_t unknownTripFallback_;

  mutable std::mutex mutex_;
  /// Memoized results by Region::id(); pointers stay stable (unique_ptr).
  mutable std::vector<std::unique_ptr<RegionRoofline>> byId_;
};

}  // namespace cayman::analysis
