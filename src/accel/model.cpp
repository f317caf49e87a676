#include "accel/model.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>
#include <utility>

#include "support/trace.h"

namespace cayman::accel {

using analysis::Loop;
using analysis::Region;
using analysis::RegionKind;

namespace {

/// Process-wide count (and high-water mark) of generateUncached bodies in
/// flight, across all models: the injected-stall overlap tests read the peak
/// to prove distinct workloads really generated concurrently, and
/// wall-mode metrics export it as the model.cold_inflight_peak gauge.
std::atomic<int64_t> g_coldInflight{0};
std::atomic<int64_t> g_coldInflightPeak{0};

struct ColdInflightScope {
  ColdInflightScope() {
    int64_t now = g_coldInflight.fetch_add(1, std::memory_order_relaxed) + 1;
    int64_t peak = g_coldInflightPeak.load(std::memory_order_relaxed);
    while (now > peak && !g_coldInflightPeak.compare_exchange_weak(
                             peak, now, std::memory_order_relaxed)) {
    }
    support::trace::gaugeMax("model.cold_inflight_peak", now);
  }
  ~ColdInflightScope() {
    g_coldInflight.fetch_sub(1, std::memory_order_relaxed);
  }
};

}  // namespace

int64_t coldGenerationInflightPeak() {
  return g_coldInflightPeak.load(std::memory_order_relaxed);
}

void resetColdGenerationInflightPeak() {
  g_coldInflightPeak.store(0, std::memory_order_relaxed);
}

AcceleratorModel::AcceleratorModel(const analysis::WPst& wpst,
                                   const sim::ProfileData& profile,
                                   const hls::TechLibrary& tech,
                                   hls::InterfaceTiming timing,
                                   ModelParams params)
    : wpst_(wpst),
      profile_(profile),
      tech_(tech),
      scheduler_(tech, timing, params.clockNs),
      params_(std::move(params)),
      generateSlots_(wpst.allRegions().size()) {}

double AcceleratorModel::tripCount(const Loop* loop) const {
  const analysis::FunctionAnalyses& fa =
      analysesFor(loop->header()->parent());
  analysis::TripCount staticTrip = fa.scev.tripCount(loop);
  if (staticTrip.known) return static_cast<double>(staticTrip.value);
  double profiled = profile_.avgTripCount(loop);
  if (profiled > 0.0) return profiled;
  return static_cast<double>(params_.unknownTripFallback);
}

bool AcceleratorModel::isPipelineable(const Region* loopRegion) const {
  if (loopRegion->kind() != RegionKind::Loop) return false;
  if (!loopRegion->loop()->isInnermost()) return false;
  if (loopRegion->loop()->latch() == nullptr) return false;  // several latches
  // Canonical shape: exactly bb children (header, single body, latch) —
  // no nested ctrl-flow, which would need predication we do not model.
  unsigned bodyBlocks = 0;
  for (const auto& child : loopRegion->children()) {
    if (!child->isBb()) return false;
    const ir::BasicBlock* block = child->block();
    if (block == loopRegion->loop()->header() ||
        block == loopRegion->loop()->latch()) {
      continue;
    }
    ++bodyBlocks;
  }
  return bodyBlocks == 1;
}

bool AcceleratorModel::canUnroll(const Loop* loop,
                                 const analysis::FunctionAnalyses& fa) const {
  // Unrolling is legal for dependence-free loops, and for reductions —
  // scalar accumulators and loop-invariant memory accumulators unroll into
  // per-lane partial sums combined after the loop (HLS tree reduction).
  for (const analysis::LoopCarriedDep& dep : fa.mem.carriedDeps(loop)) {
    if (dep.kind == analysis::LoopCarriedDep::Kind::Scalar) continue;
    const analysis::MemAccessInfo* info = fa.mem.infoFor(dep.src);
    if (info != nullptr && info->addr.valid &&
        info->addr.offset.isStreamIn(loop) &&
        info->addr.offset.coeffForLoop(loop) == 0) {
      continue;  // accumulation into a fixed location
    }
    return false;  // genuine cross-iteration data flow (e.g. a[i+1] = a[i])
  }
  return true;
}

/// Can this access live in a register while `loop` runs? Requires a fixed,
/// statically-known address and that every same-array access inside the
/// loop hits that same address (no aliasing partner to forward through
/// memory).
bool AcceleratorModel::isPromotable(
    const ir::Instruction* access, const Loop* loop,
    const analysis::FunctionAnalyses& fa) const {
  const analysis::MemAccessInfo* info = fa.mem.infoFor(access);
  if (info == nullptr || !info->addr.valid) return false;
  const analysis::Affine& addr = info->addr.offset;
  if (!addr.isStreamIn(loop) || addr.coeffForLoop(loop) != 0) return false;
  for (const analysis::MemAccessInfo& other : fa.mem.accesses()) {
    if (other.inst == access) continue;
    if (!loop->contains(other.inst->parent())) continue;
    if (!other.addr.valid) return false;  // may alias anything
    if (other.addr.base != info->addr.base) continue;
    if (other.addr.offset.terms != addr.terms ||
        other.addr.offset.constant != addr.constant) {
      return false;  // same array, different location: keep memory ordering
    }
  }
  return true;
}

std::vector<LoopConfig> AcceleratorModel::makeLoopConfigs(
    const Region* region, unsigned unroll, bool optimize) const {
  std::vector<LoopConfig> configs;
  const analysis::FunctionAnalyses& fa = analysesFor(region->function());
  region->walk([&](const Region& r) {
    if (r.kind() != RegionKind::Loop) return;
    LoopConfig lc;
    lc.loop = r.loop();
    if (optimize) {
      bool pipelineable = isPipelineable(&r);
      lc.unroll = (params_.allowUnrolling && pipelineable &&
                   canUnroll(r.loop(), fa))
                      ? unroll
                      : 1;
      lc.pipelined = params_.allowPipelining && pipelineable;
    }
    configs.push_back(lc);
  });
  return configs;
}

std::vector<AcceleratorModel::AccessFacts> AcceleratorModel::accessFacts(
    const Region* region) const {
  std::vector<AccessFacts> facts;
  const analysis::FunctionAnalyses& fa = analysesFor(region->function());
  uint64_t entries = std::max<uint64_t>(1, profile_.entries(region));
  for (const ir::BasicBlock* block : region->blocks()) {
    for (const auto& inst : block->instructions()) {
      if (!inst->isMemoryAccess()) continue;
      const analysis::MemAccessInfo* info = fa.mem.infoFor(inst.get());
      AccessFacts f;
      f.inst = inst.get();
      f.array = info != nullptr && info->addr.valid ? info->addr.base : nullptr;
      f.countPerEntry = static_cast<double>(profile_.blockCount(block)) /
                        static_cast<double>(entries);
      f.loop = fa.loops.loopFor(block);
      f.footprintElems = fa.mem.footprintElems(inst.get(), region,
                                               params_.unknownTripFallback);
      facts.push_back(f);
    }
  }
  // Instruction order, so assignInterfaces() appends every map entry at the
  // end instead of searching the tree (the rules are per access, so the
  // visiting order cannot change an assignment).
  std::sort(facts.begin(), facts.end(),
            [](const AccessFacts& a, const AccessFacts& b) {
              return std::less<const ir::Instruction*>{}(a.inst, b.inst);
            });
  return facts;
}

hls::IfaceAssignment AcceleratorModel::assignInterfaces(
    const Region* region, std::vector<AccessFacts>& facts,
    const std::vector<LoopConfig>& loops) const {
  hls::IfaceAssignment assignment;
  const analysis::FunctionAnalyses& fa = analysesFor(region->function());

  auto loopConfig = [&](const Loop* loop) -> const LoopConfig* {
    for (const LoopConfig& lc : loops) {
      if (lc.loop == loop) return &lc;
    }
    return nullptr;
  };

  // The rules in priority order; each access takes the first that applies.
  auto choose = [&](AccessFacts& f) {
    hls::AccessIface iface;
    iface.kind = hls::IfaceKind::Coupled;
    iface.array = f.array;
    const LoopConfig* lc = f.loop != nullptr ? loopConfig(f.loop) : nullptr;
    bool pipelined = lc != nullptr && lc->pipelined;

    // Register promotion inside pipelined loops: a loop-invariant scalar
    // slot is held in a register; the load/store bracket the loop.
    if (pipelined && !f.promotable.has_value()) {
      f.promotable = isPromotable(f.inst, f.loop, fa);
    }
    if (pipelined && *f.promotable) {
      iface.promoted = true;
      return iface;
    }

    // Scratchpad rule: per-entry access count >= beta * footprint, with a
    // statically-sized footprint (paper: "requires statically analyzed
    // footprints to determine the scratchpad size").
    const std::optional<uint64_t>& footprint = f.footprintElems;
    if (params_.allowScratchpad && footprint.has_value() &&
        iface.array != nullptr && *footprint > 0) {
      uint64_t footprintBytes =
          *footprint * iface.array->elemType()->sizeBytes();
      if (f.countPerEntry >= params_.beta * static_cast<double>(*footprint) &&
          footprintBytes <= params_.maxScratchpadBytes) {
        iface.kind = hls::IfaceKind::Scratchpad;
        iface.footprintBytes = footprintBytes;
        iface.partitions = lc != nullptr ? std::max(1u, lc->unroll) : 1;
        return iface;
      }
    }

    // Decoupled rule: stream accesses inside pipelined loops reach II=1.
    if (params_.allowDecoupled && pipelined) {
      if (!f.stream.has_value()) f.stream = fa.mem.isStream(f.inst, f.loop);
      if (*f.stream) {
        iface.kind = hls::IfaceKind::Decoupled;
        return iface;
      }
    }
    return iface;  // coupled fallback (area saving)
  };

  // `facts` ascend by instruction, so each entry lands at the map's end.
  for (AccessFacts& f : facts) {
    assignment.emplace_hint(assignment.end(), f.inst, choose(f));
  }
  return assignment;
}

const std::vector<AcceleratorConfig>& AcceleratorModel::generate(
    const Region* region) const {
  GenerateSlot& slot = generateSlots_.at(static_cast<size_t>(region->id()));
  std::unique_lock<std::mutex> lock(generateMutex_);
  // Another caller is generating this region: wait for it to publish (or,
  // if its generation threw, to reset the slot so this caller retries).
  generateReady_.wait(lock,
                      [&slot] { return slot.state != SlotState::Running; });
  if (slot.state == SlotState::Done) {
    lock.unlock();
    support::trace::count("model.cache_hits", 1);
    return slot.configs;
  }
  // We own the cold generation; everyone who arrives before it is published
  // waits above and then counts a hit — the hit/miss totals match a serial
  // run at any concurrency.
  slot.state = SlotState::Running;
  lock.unlock();
  support::trace::count("model.cache_misses", 1);
  std::vector<AcceleratorConfig> configs;
  try {
    configs = generateUncached(region);
  } catch (...) {
    lock.lock();
    slot.state = SlotState::Empty;
    generateReady_.notify_all();
    throw;
  }
  lock.lock();
  slot.configs = std::move(configs);
  slot.state = SlotState::Done;
  generateReady_.notify_all();
  return slot.configs;
}

void AcceleratorModel::warmGenerateCache() const {
  wpst_.root()->walk([&](const Region& region) {
    if (params_.cancel != nullptr) {
      params_.cancel->check(support::Stage::Select, region.label());
    }
    generate(&region);
  });
}

const analysis::RooflineAnalysis& AcceleratorModel::roofline() const {
  std::lock_guard<std::mutex> lock(rooflineMutex_);
  if (roofline_ == nullptr) {
    roofline_ = std::make_unique<analysis::RooflineAnalysis>(
        wpst_, profile_, tech_, scheduler_.timing(), params_.clockNs,
        params_.unknownTripFallback);
  }
  return *roofline_;
}

std::vector<AcceleratorConfig> AcceleratorModel::generateUncached(
    const Region* region) const {
  ColdInflightScope inflight;
  if (params_.injectGenerateStallUs > 0) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(params_.injectGenerateStallUs));
  }
  if (params_.cancel != nullptr) {
    params_.cancel->check(support::Stage::Select, region->label());
  }
  std::vector<AcceleratorConfig> result;
  if (!region->isCandidate()) return result;
  // Regions that never executed cannot gain anything.
  if (profile_.cycles(region) <= 0.0) return result;

  result = generateGuided(region);

  // Drop dominated duplicates (same cycles and area).
  std::sort(result.begin(), result.end(),
            [](const AcceleratorConfig& a, const AcceleratorConfig& b) {
              return a.areaUm2 < b.areaUm2;
            });
  std::vector<AcceleratorConfig> unique;
  for (AcceleratorConfig& config : result) {
    if (!unique.empty() &&
        std::abs(unique.back().areaUm2 - config.areaUm2) < 1e-9 &&
        std::abs(unique.back().cycles - config.cycles) < 1e-9) {
      continue;
    }
    unique.push_back(std::move(config));
  }
  // Also drop strictly dominated points (the guarded walk estimates one
  // worsening step per region to observe the cutoff; that point is
  // dominated by an already-kept cheaper config and the selector could
  // never pick it).
  std::vector<AcceleratorConfig> front;
  for (size_t i = 0; i < unique.size(); ++i) {
    bool dominated = false;
    for (size_t j = 0; j < unique.size() && !dominated; ++j) {
      dominated = j != i && unique[j].areaUm2 <= unique[i].areaUm2 &&
                  unique[j].cycles < unique[i].cycles;
    }
    if (!dominated) front.push_back(std::move(unique[i]));
  }
  candidatesTotal_.fetch_add(front.size(), std::memory_order_relaxed);
  support::trace::count("model.candidates_total", front.size());
  return front;
}

AcceleratorConfig AcceleratorModel::ladderConfig(const Region* region,
                                                 unsigned unroll,
                                                 bool optimize) const {
  std::vector<AccessFacts> facts = accessFacts(region);
  AcceleratorConfig config;
  config.region = region;
  config.loops = makeLoopConfigs(region, unroll, optimize);
  config.ifaces = assignInterfaces(region, facts, config.loops);
  return config;
}

double AcceleratorModel::iiTreeTerm(
    const Region* region, const std::vector<LoopConfig>& loops,
    const hls::IfaceAssignment& ifaces) const {
  const analysis::FunctionAnalyses& fa = analysesFor(region->function());
  double total = 0.0;
  region->walk([&](const Region& r) {
    if (r.kind() != RegionKind::Loop) return;
    const LoopConfig* lc = nullptr;
    for (const LoopConfig& candidate : loops) {
      if (candidate.loop == r.loop()) {
        lc = &candidate;
        break;
      }
    }
    if (lc == nullptr || !lc->pipelined) return;
    // Mirror of estimateRegion's pipelined branch, minus the terms that do
    // not depend on the unroll factor (depth, start/drain control, promoted
    // brackets, DMA). Pipelined loops are innermost, so the unroll context
    // above them is always 1 and the datapath width equals lc->unroll.
    const ir::BasicBlock* body = nullptr;
    for (const auto& child : r.children()) {
      const ir::BasicBlock* block = child->block();
      if (block != r.loop()->header() && block != r.loop()->latch()) {
        body = block;
      }
    }
    if (body == nullptr) return;
    unsigned unroll = std::max(1u, lc->unroll);
    double entries =
        std::max<double>(1.0, static_cast<double>(profile_.entries(&r)));
    double iterations = std::ceil(tripCount(r.loop()) /
                                  static_cast<double>(unroll));
    unsigned ii = std::max(
        scheduler_.recMII(fa.mem.carriedDeps(r.loop()), ifaces),
        scheduler_.resMII(*body, ifaces, unroll));
    double perEntry = static_cast<double>(hls::Scheduler::pipelinedCycles(
        static_cast<uint64_t>(iterations), 0, ii));
    for (unsigned lanes = unroll; lanes > 1; lanes /= 2) {
      perEntry += 3.0;  // reduction-tree level, as in estimateRegion
    }
    total += entries * perEntry;
  });
  return total;
}

std::vector<AcceleratorConfig> AcceleratorModel::generateGuided(
    const Region* region) const {
  bool hasLoops = false;
  region->walk([&](const Region& r) {
    hasLoops |= r.kind() == RegionKind::Loop;
  });

  // Unrolling without pipelining reshapes sequential-loop costs in ways the
  // II term below does not model; that ablation estimates every ladder
  // point (the stock pipeline never uses it — QsCores disables both).
  if (params_.allowUnrolling && !params_.allowPipelining) {
    std::vector<AcceleratorConfig> result;
    auto add = [&](unsigned unroll, bool optimize) {
      if (params_.cancel != nullptr) {
        params_.cancel->check(support::Stage::Select, region->label());
      }
      result.push_back(ladderConfig(region, unroll, optimize));
      estimate(result.back());
    };
    add(1, /*optimize=*/false);
    if (hasLoops) {
      for (unsigned unroll : params_.unrollFactors) add(unroll, true);
    }
    return result;
  }

  auto makeConfig = [&](std::vector<LoopConfig> loops,
                        hls::IfaceAssignment ifaces) {
    if (params_.cancel != nullptr) {
      params_.cancel->check(support::Stage::Select, region->label());
    }
    AcceleratorConfig config;
    config.region = region;
    config.loops = std::move(loops);
    config.ifaces = std::move(ifaces);
    estimate(config);
    return config;
  };

  std::vector<AcceleratorConfig> result;
  std::vector<AccessFacts> facts = accessFacts(region);
  // Cheapest point: fully sequential.
  {
    std::vector<LoopConfig> loops = makeLoopConfigs(region, 1, false);
    hls::IfaceAssignment ifaces = assignInterfaces(region, facts, loops);
    result.push_back(makeConfig(std::move(loops), std::move(ifaces)));
  }
  const std::vector<LoopConfig>& baselineLoops = result.front().loops;
  if (!hasLoops || !(params_.allowPipelining || params_.allowUnrolling)) {
    return result;
  }

  if (!params_.allowUnrolling) {
    std::vector<LoopConfig> loops = makeLoopConfigs(region, 1, true);
    // Structural dedupe: when nothing in the region is pipelineable the
    // optimized point is the baseline again — interfaces are a
    // deterministic function of the loop configs, so equal loop vectors
    // mean equal configs.
    if (loops != baselineLoops) {
      hls::IfaceAssignment ifaces = assignInterfaces(region, facts, loops);
      result.push_back(makeConfig(std::move(loops), std::move(ifaces)));
    }
    return result;
  }

  // Roofline-directed unroll-ladder walk. Admission is analytic (MII
  // bounds), estimation is guarded (branch-and-bound on the measured
  // unroll-invariant part), and both preserve the per-region Pareto front:
  // a skipped point is either structurally identical to a kept config or
  // dominated by one (its II term, pipeline depth, and area are all no
  // better than an admitted smaller-width point's).
  const analysis::RegionRoofline& rf = roofline().classify(region);
  struct Point {
    unsigned unroll = 1;
    std::vector<LoopConfig> loops;
    hls::IfaceAssignment ifaces;
    double iiTerm = 0.0;
  };
  std::vector<Point> admitted;
  double bestTerm = std::numeric_limits<double>::infinity();
  for (unsigned unroll : params_.unrollFactors) {
    std::vector<LoopConfig> loops = makeLoopConfigs(region, unroll, true);
    // Structural dedupe: ladder points that bind no loop collapse.
    if (loops == baselineLoops) continue;
    bool duplicate = false;
    for (const Point& p : admitted) duplicate |= p.loops == loops;
    if (duplicate) continue;
    hls::IfaceAssignment ifaces = assignInterfaces(region, facts, loops);
    double term = iiTreeTerm(region, loops, ifaces);
    // MII admission filter: a wider point whose recurrence/resource II term
    // does not strictly improve is dominated — depth and area only grow
    // with width. This is also what skips pipelining/unrolling wholesale
    // when the recurrence MII pins the II (the term is then flat).
    if (term >= bestTerm) {
      // Bandwidth clamp: once a memory-bound region stops improving past
      // the computed saturating factor, the port-limited II term can only
      // ride the flat memory roof — end the ladder scan instead of probing
      // wider points (compute-bound regions keep scanning: their ceil
      // staircase can still step down at the iteration-collapse cliff).
      if (rf.bottleneck == analysis::Bottleneck::MemoryBound &&
          unroll > rf.saturatingUnroll) {
        break;
      }
      continue;
    }
    bestTerm = term;
    admitted.push_back(Point{unroll, std::move(loops), std::move(ifaces), term});
  }

  // Guarded estimation walk (compute-bound regions walk the ladder until a
  // step scores worse than the bound allows): g tracks the measured
  // unroll-invariant-plus-depth part, which only grows with width, so
  // g + iiTerm lower-bounds any later point's cycles. A point whose bound
  // cannot beat the best measured cycles is dominated (it is wider, so its
  // area is no smaller).
  double gLower = -std::numeric_limits<double>::infinity();
  double bestCycles = std::numeric_limits<double>::infinity();
  bool estimatedAny = false;
  for (Point& p : admitted) {
    if (estimatedAny && gLower + p.iiTerm >= bestCycles) continue;
    AcceleratorConfig config =
        makeConfig(std::move(p.loops), std::move(p.ifaces));
    gLower = std::max(gLower, config.cycles - p.iiTerm);
    bestCycles = std::min(bestCycles, config.cycles);
    estimatedAny = true;
    result.push_back(std::move(config));
  }
  return result;
}

const hls::BlockSchedule& AcceleratorModel::scheduleBlockCached(
    const ir::BasicBlock& block, const hls::IfaceAssignment& ifaces,
    unsigned unroll) const {
  // The scheduler reads the assignment only through per-instruction
  // ifaceFor() lookups, so the AccessIface of each memory access (in program
  // order, defaulted like the scheduler defaults unmapped accesses) is a
  // complete cache key for this (block, width). Normalized to the fields the
  // schedule can observe: a promoted access is register-held (latency 0, no
  // port, exempt from memory ordering) regardless of its other fields, and
  // footprintBytes only prices scratchpad area in interfaceCosts(), never the
  // schedule — collapsing them turns nesting-level beta-rule variations of
  // one block into cache hits.
  // Built in a per-thread buffer; a copy is made only when a miss inserts.
  thread_local std::vector<hls::AccessIface> signature;
  signature.clear();
  for (const auto& inst : block.instructions()) {
    if (!inst->isMemoryAccess()) continue;
    auto it = ifaces.find(inst.get());
    hls::AccessIface iface =
        it == ifaces.end() ? hls::AccessIface{} : it->second;
    if (iface.promoted) {
      iface = hls::AccessIface{};
      iface.promoted = true;
    }
    iface.footprintBytes = 0;
    signature.push_back(iface);
  }
  const auto key = std::make_pair(&block, unroll);
  // The lock spans the miss-path scheduling so concurrent callers cannot
  // double-schedule one tuple: the sched.block_calls total must be
  // deterministic across --jobs counts (the metrics exporter's byte-identity
  // contract), and scheduleBlock is cheap enough that contention is noise.
  // The sorted bucket turns the old O(entries) signature scan into
  // O(log entries) comparisons.
  std::lock_guard<std::mutex> lock(schedMutex_);
  SchedBucket& bucket =
      schedBuckets_.try_emplace(key, SigLess{&sigComparisons_}).first->second;
  // Hits are returned by reference: bucket entries are map nodes, never
  // erased and never moved by later insertions, so the schedule stays valid
  // (and immutable) for the model's lifetime after the lock is released.
  auto it = bucket.find(signature);
  if (it != bucket.end()) return it->second;
  return bucket
      .emplace(signature, scheduler_.scheduleBlock(block, ifaces, unroll))
      .first->second;
}

AcceleratorModel::Estimate AcceleratorModel::estimateRegion(
    const Region* region, const AcceleratorConfig& config,
    unsigned unrollContext) const {
  Estimate e;
  const analysis::FunctionAnalyses& fa = analysesFor(region->function());

  switch (region->kind()) {
    case RegionKind::Bb: {
      const ir::BasicBlock* block = region->block();
      double execs = std::ceil(
          static_cast<double>(profile_.blockCount(block)) /
          static_cast<double>(unrollContext));
      const hls::BlockSchedule& sched =
          scheduleBlockCached(*block, config.ifaces, unrollContext);
      e.cycles = execs * static_cast<double>(sched.latency);
      e.area = sched.opAreaUm2 + sched.regAreaUm2 +
               tech_.fsmAreaPerState * sched.latency;
      e.seqBlocks = 1;
      return e;
    }

    case RegionKind::Loop: {
      const Loop* loop = region->loop();
      const LoopConfig* lc = config.configFor(loop);
      unsigned unroll = lc != nullptr ? std::max(1u, lc->unroll) : 1;
      bool pipelined = lc != nullptr && lc->pipelined;
      double entries =
          std::max<double>(1.0, static_cast<double>(profile_.entries(region)));
      double trip = tripCount(loop);
      double iterations = std::ceil(trip / static_cast<double>(unroll));

      if (pipelined) {
        // Single straight-line body block by construction.
        const ir::BasicBlock* body = nullptr;
        for (const auto& child : region->children()) {
          const ir::BasicBlock* block = child->block();
          if (block != loop->header() && block != loop->latch()) body = block;
        }
        CAYMAN_ASSERT(body != nullptr, "pipelined loop without body block");
        unsigned width = unroll * unrollContext;
        const hls::BlockSchedule& sched =
            scheduleBlockCached(*body, config.ifaces, width);
        unsigned depth = sched.latency + 1;  // +1: IV/exit-condition stage
        unsigned ii = std::max(
            scheduler_.recMII(fa.mem.carriedDeps(loop), config.ifaces),
            scheduler_.resMII(*body, config.ifaces, width));
        double perEntry =
            static_cast<double>(hls::Scheduler::pipelinedCycles(
                static_cast<uint64_t>(iterations), depth, ii)) +
            2.0;  // start / drain control
        // Register-promoted accesses bracket the loop: load the cells before
        // the first iteration, write accumulators back after the last.
        for (const auto& inst : body->instructions()) {
          if (!inst->isMemoryAccess()) continue;
          auto it = config.ifaces.find(inst.get());
          if (it == config.ifaces.end() || !it->second.promoted) continue;
          perEntry += inst->opcode() == ir::Opcode::Load
                          ? scheduler_.timing().coupledLoadLatency
                          : scheduler_.timing().coupledStoreLatency;
        }
        // Unrolled reductions combine partial sums in a tree after the loop.
        for (unsigned lanes = width; lanes > 1; lanes /= 2) {
          perEntry += 3.0;  // one FP-add level
        }
        e.cycles = entries * perEntry;
        e.area = sched.opAreaUm2 + sched.regAreaUm2 +
                 tech_.fsmAreaPerState * 4;  // pipeline controller
        e.pipelined = 1;
        return e;
      }

      // Sequential loop: children estimated against profiled counts, plus
      // per-entry enter/exit control.
      for (const auto& child : region->children()) {
        Estimate ce =
            estimateRegion(child.get(), config, unrollContext * unroll);
        e.cycles += ce.cycles;
        e.area += ce.area;
        e.seqBlocks += ce.seqBlocks;
        e.pipelined += ce.pipelined;
      }
      e.cycles += entries * 2.0;
      e.area += tech_.fsmAreaPerState * 2;  // loop control states
      return e;
    }

    case RegionKind::If: {
      for (const auto& child : region->children()) {
        Estimate ce = estimateRegion(child.get(), config, unrollContext);
        e.cycles += ce.cycles;
        e.area += ce.area;
        e.seqBlocks += ce.seqBlocks;
        e.pipelined += ce.pipelined;
      }
      // Branch decision folds into the FSM (one extra state).
      e.area += tech_.fsmAreaPerState;
      return e;
    }

    case RegionKind::Function:
    case RegionKind::Root:
      CAYMAN_ASSERT(false, "estimateRegion on non-candidate region");
  }
  return e;
}

AcceleratorModel::IfaceCosts AcceleratorModel::interfaceCosts(
    const AcceleratorConfig& config) const {
  // One pass over the region's memory accesses in program order (region
  // block order, then instruction order). `config.ifaces` is keyed by
  // instruction pointer, so iterating the map directly would follow heap-
  // address order — which varies between runs and between sequential and
  // threaded executions. The floating-point sums and the "first access per
  // array" decisions below depend on this stable order.
  struct ArrayUse {
    const ir::GlobalArray* array = nullptr;
    bool rd = false;
    bool wr = false;
    uint64_t bytes = 0;     ///< DMA transfer: largest access footprint
    bool charged = false;   ///< buffer + DMA engine area already counted
  };
  std::vector<ArrayUse> arrays;  // scratchpad arrays, first-access order
  IfaceCosts costs;
  size_t visited = 0;
  for (const ir::BasicBlock* block : config.region->blocks()) {
    for (const auto& inst : block->instructions()) {
      if (!inst->isMemoryAccess()) continue;
      auto it = config.ifaces.find(inst.get());
      if (it == config.ifaces.end()) continue;
      ++visited;
      const hls::AccessIface& iface = it->second;

      // DMA: fill before execution for read arrays, drain after for
      // written arrays.
      ArrayUse* use = nullptr;
      if (iface.kind == hls::IfaceKind::Scratchpad && iface.array != nullptr) {
        auto found = std::find_if(
            arrays.begin(), arrays.end(),
            [&](const ArrayUse& u) { return u.array == iface.array; });
        if (found == arrays.end()) {
          found = arrays.insert(arrays.end(), ArrayUse{iface.array});
        }
        use = &*found;
        use->rd |= inst->opcode() == ir::Opcode::Load;
        use->wr |= inst->opcode() == ir::Opcode::Store;
        use->bytes = std::max(use->bytes, iface.footprintBytes);
      }

      if (iface.promoted) {
        // One 64-bit holding register; the bracketing access reuses the
        // loop's control FSM. Register-held: no Table II interface.
        costs.area += tech_.registerAreaPerBit * 64;
        continue;
      }
      switch (iface.kind) {
        case hls::IfaceKind::Coupled:
          costs.area += tech_.lsuArea;
          ++costs.coupled;
          break;
        case hls::IfaceKind::Decoupled: {
          unsigned elemBytes = 8;
          if (inst->opcode() == ir::Opcode::Load) {
            elemBytes = inst->type()->sizeBytes();
          } else if (inst->numOperands() > 0) {
            elemBytes = inst->operand(0)->type()->sizeBytes();
          }
          costs.area += tech_.aguArea +
                        tech_.fifoAreaPerByte *
                            scheduler_.timing().fifoDepthElems * elemBytes;
          ++costs.decoupled;
          break;
        }
        case hls::IfaceKind::Scratchpad:
          // Buffer + DMA costed once per backing array (charged to the
          // first access in program order); banking per access.
          if (use != nullptr && !use->charged) {
            use->charged = true;
            costs.area += tech_.scratchpadAreaPerByte *
                              static_cast<double>(iface.footprintBytes) +
                          tech_.dmaEngineArea;
          }
          costs.area += tech_.scratchpadPortArea * iface.partitions;
          ++costs.scratchpad;
          break;
      }
    }
  }
  CAYMAN_ASSERT(visited == config.ifaces.size(),
                "interface assigned to an access outside the region");
  for (const ArrayUse& use : arrays) {
    double transfer = std::ceil(
        static_cast<double>(use.bytes) /
        static_cast<double>(scheduler_.timing().dmaBytesPerCycle));
    if (use.rd) costs.dmaCyclesPerEntry += transfer;
    if (use.wr) costs.dmaCyclesPerEntry += transfer;
  }
  return costs;
}

void AcceleratorModel::estimate(AcceleratorConfig& config) const {
  CAYMAN_ASSERT(config.region != nullptr, "config without region");
  estimateCalls_.fetch_add(1, std::memory_order_relaxed);
  support::trace::count("model.estimate_calls", 1);
  Estimate e = estimateRegion(config.region, config, 1);
  IfaceCosts ic = interfaceCosts(config);
  double entries = static_cast<double>(profile_.entries(config.region));
  config.cycles = e.cycles + entries * ic.dmaCyclesPerEntry;
  config.cpuCycles = profile_.cycles(config.region);
  config.areaUm2 = e.area + ic.area + tech_.acceleratorWrapperArea;
  config.numSeqBlocks = e.seqBlocks;
  config.numPipelinedRegions = e.pipelined;
  config.numCoupled = ic.coupled;
  config.numDecoupled = ic.decoupled;
  config.numScratchpad = ic.scratchpad;
}

}  // namespace cayman::accel
