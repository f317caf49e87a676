// Processor–accelerator data access interfaces (paper §III-C, Fig. 3).
#pragma once

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "ir/instruction.h"

namespace cayman::hls {

/// The three interface types Cayman models.
enum class IfaceKind {
  Coupled,     ///< blocking load/store unit on a shared memory port
  Decoupled,   ///< AGU + FIFO prefetch/drain; stream accesses only
  Scratchpad,  ///< banked local buffer + DMA fill/drain around execution
};

const char* ifaceSpelling(IfaceKind kind);

/// Interface assignment for one memory access operation.
struct AccessIface {
  IfaceKind kind = IfaceKind::Coupled;
  /// Scratchpad banks available to this access (memory partitioning under
  /// unrolled loops, paper §III-C).
  unsigned partitions = 1;
  /// Backing array: scratchpad buffers/banks are allocated per array.
  const ir::GlobalArray* array = nullptr;
  /// Scratchpad footprint in bytes (buffer sizing; static by construction).
  uint64_t footprintBytes = 0;
  /// Register promotion: the address is invariant in the optimized loop, so
  /// the value lives in a register during execution (load before / store
  /// after the loop). Promoted accesses cost no latency, no port, and no
  /// interface hardware beyond one holding register.
  bool promoted = false;
};

inline bool operator==(const AccessIface& a, const AccessIface& b) {
  return a.kind == b.kind && a.partitions == b.partitions &&
         a.array == b.array && a.footprintBytes == b.footprintBytes &&
         a.promoted == b.promoted;
}
inline bool operator!=(const AccessIface& a, const AccessIface& b) {
  return !(a == b);
}
/// Timing parameters of the interfaces. The defaults are calibrated so the
/// paper's Fig. 4 example reproduces: sequential 6N vs 4N, pipelined II 3
/// vs 1, unrolled-by-2 9(N/2) vs 4(N/2).
struct InterfaceTiming {
  /// Cycles until a coupled load's data arrives (accelerator stalls).
  unsigned coupledLoadLatency = 3;
  /// Cycles the shared port is busy per coupled load (non-overlapping).
  unsigned coupledLoadOccupancy = 3;
  unsigned coupledStoreLatency = 1;
  unsigned coupledStoreOccupancy = 1;  ///< posted writes
  /// Decoupled FIFO pop/push latency as seen by the datapath.
  unsigned decoupledLatency = 1;
  unsigned scratchpadLatency = 1;
  /// Bytes the DMA engine moves per cycle when (pre)filling scratchpads.
  unsigned dmaBytesPerCycle = 8;
  /// Decoupled FIFO depth in elements (buffering area).
  unsigned fifoDepthElems = 8;

  unsigned loadLatency(IfaceKind kind) const {
    switch (kind) {
      case IfaceKind::Coupled: return coupledLoadLatency;
      case IfaceKind::Decoupled: return decoupledLatency;
      case IfaceKind::Scratchpad: return scratchpadLatency;
    }
    return coupledLoadLatency;
  }
  unsigned storeLatency(IfaceKind kind) const {
    switch (kind) {
      case IfaceKind::Coupled: return coupledStoreLatency;
      case IfaceKind::Decoupled: return decoupledLatency;
      case IfaceKind::Scratchpad: return scratchpadLatency;
    }
    return coupledStoreLatency;
  }
};

/// Per-access interface assignment for a candidate kernel: a flat vector of
/// (access, interface) pairs kept sorted by instruction address, with the
/// part of std::map's interface the model, the scheduler and the tests use.
/// Iteration order is the key order, as for a std::map over the same keys.
/// A lookup is a binary search over one contiguous array, and building an
/// assignment in key order appends without allocating a node per access.
class IfaceAssignment {
 public:
  using value_type = std::pair<const ir::Instruction*, AccessIface>;
  using iterator = std::vector<value_type>::iterator;
  using const_iterator = std::vector<value_type>::const_iterator;

  iterator begin() { return entries_.begin(); }
  iterator end() { return entries_.end(); }
  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  void reserve(size_t n) { entries_.reserve(n); }

  iterator find(const ir::Instruction* inst) {
    auto it = lowerBound(inst);
    return it != entries_.end() && it->first == inst ? it : entries_.end();
  }
  const_iterator find(const ir::Instruction* inst) const {
    return const_cast<IfaceAssignment*>(this)->find(inst);
  }

  /// The access's interface, inserting a default one when it has none.
  AccessIface& operator[](const ir::Instruction* inst) {
    return emplace_hint(end(), inst, AccessIface{})->second;
  }

  /// std::map semantics: inserts (inst, iface) unless `inst` is already
  /// assigned, and returns the entry for `inst` either way. The insert is
  /// O(1) when `hint` is the position the key belongs at (end() while
  /// appending in key order); any other hint still inserts correctly.
  iterator emplace_hint(const_iterator hint, const ir::Instruction* inst,
                        const AccessIface& iface) {
    std::less<const ir::Instruction*> less;
    bool hintFits =
        (hint == entries_.begin() || less((hint - 1)->first, inst)) &&
        (hint == entries_.end() || less(inst, hint->first));
    iterator at = hintFits ? entries_.begin() + (hint - entries_.cbegin())
                           : lowerBound(inst);
    if (at != entries_.end() && at->first == inst) return at;
    return entries_.emplace(at, inst, iface);
  }

  friend bool operator==(const IfaceAssignment& a, const IfaceAssignment& b) {
    return a.entries_ == b.entries_;
  }
  friend bool operator!=(const IfaceAssignment& a, const IfaceAssignment& b) {
    return !(a == b);
  }

 private:
  iterator lowerBound(const ir::Instruction* inst) {
    return std::lower_bound(
        entries_.begin(), entries_.end(), inst,
        [](const value_type& entry, const ir::Instruction* key) {
          return std::less<const ir::Instruction*>{}(entry.first, key);
        });
  }

  std::vector<value_type> entries_;
};

}  // namespace cayman::hls
