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

AcceleratorModel::FunctionTables& AcceleratorModel::tablesFor(
    const ir::Function* function) const {
  for (const std::unique_ptr<FunctionTables>& tables : tables_) {
    if (tables->function == function) return *tables;
  }
  auto tables = std::make_unique<FunctionTables>();
  const analysis::FunctionAnalyses& fa = analysesFor(function);
  tables->function = function;
  tables->analyses = &fa;
  for (const auto& block : function->blocks()) {
    tables->accessBegin.push_back(
        static_cast<uint32_t>(tables->accesses.size()));
    tables->blockCounts.push_back(profile_.blockCount(block.get()));
    const Loop* loop = fa.loops.loopFor(block.get());
    for (const auto& inst : block->instructions()) {
      if (!inst->isMemoryAccess()) continue;
      const analysis::MemAccessInfo* info = fa.mem.infoFor(inst.get());
      AccessEntry entry;
      entry.inst = inst.get();
      entry.array =
          info != nullptr && info->addr.valid ? info->addr.base : nullptr;
      entry.loop = loop;
      tables->accesses.push_back(entry);
    }
  }
  tables->accessBegin.push_back(
      static_cast<uint32_t>(tables->accesses.size()));
  tables->blocks.resize(function->blocks().size());
  for (const std::unique_ptr<Loop>& loop : fa.loops.loops()) {
    LoopEntry entry;
    entry.canUnroll = canUnroll(loop.get(), fa);
    // Static, else profiled, else the fallback.
    analysis::TripCount staticTrip = fa.scev.tripCount(loop.get());
    if (staticTrip.known) {
      entry.tripCount = static_cast<double>(staticTrip.value);
    } else {
      double profiled = profile_.avgTripCount(loop.get());
      entry.tripCount = profiled > 0.0
                            ? profiled
                            : static_cast<double>(params_.unknownTripFallback);
    }
    tables->loops.push_back(entry);
  }
  tables_.push_back(std::move(tables));
  return *tables_.back();
}

std::span<AcceleratorModel::AccessEntry> AcceleratorModel::accessesOf(
    FunctionTables& tables, const ir::BasicBlock* block) {
  return std::span<AccessEntry>(tables.accesses)
      .subspan(tables.accessBegin[block->index()],
               tables.accessBegin[block->index() + 1] -
                   tables.accessBegin[block->index()]);
}

double AcceleratorModel::tripCount(const Loop* loop) const {
  return tablesFor(loop->header()->parent()).loops[loop->index()].tripCount;
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
    FunctionTables& tables, const Region* region, unsigned unroll,
    bool optimize) const {
  std::vector<LoopConfig> configs;
  region->walk([&](const Region& r) {
    if (r.kind() != RegionKind::Loop) return;
    LoopConfig lc;
    lc.loop = r.loop();
    if (optimize && isPipelineable(&r)) {
      lc.unroll = tables.loops[r.loop()->index()].canUnroll ? unroll : 1;
      lc.pipelined = true;
    }
    configs.push_back(lc);
  });
  return configs;
}

std::vector<AcceleratorModel::AccessFacts> AcceleratorModel::accessFacts(
    FunctionTables& tables, const Region* region) const {
  std::vector<AccessFacts> facts;
  const analysis::MemoryAnalysis& mem = tables.analyses->mem;
  uint64_t entries = std::max<uint64_t>(1, profile_.entries(region));
  for (const ir::BasicBlock* block : region->blocks()) {
    double countPerEntry =
        static_cast<double>(tables.blockCounts[block->index()]) /
        static_cast<double>(entries);
    for (AccessEntry& access : accessesOf(tables, block)) {
      AccessFacts f;
      f.access = &access;
      f.countPerEntry = countPerEntry;
      f.footprintElems = mem.footprintElems(access.inst, region,
                                            params_.unknownTripFallback);
      facts.push_back(f);
    }
  }
  // Instruction order, so assignInterfaces() appends every entry at the
  // end of the assignment (the rules are per access, so the visiting order
  // cannot change an assignment).
  std::sort(facts.begin(), facts.end(),
            [](const AccessFacts& a, const AccessFacts& b) {
              return std::less<const ir::Instruction*>{}(a.access->inst,
                                                         b.access->inst);
            });
  return facts;
}

hls::IfaceAssignment AcceleratorModel::assignInterfaces(
    FunctionTables& tables, std::vector<AccessFacts>& facts,
    const std::vector<LoopConfig>& loops) const {
  hls::IfaceAssignment assignment;
  assignment.reserve(facts.size());
  const analysis::FunctionAnalyses& fa = *tables.analyses;

  auto loopConfig = [&](const Loop* loop) -> const LoopConfig* {
    for (const LoopConfig& lc : loops) {
      if (lc.loop == loop) return &lc;
    }
    return nullptr;
  };

  // The rules in priority order; each access takes the first that applies.
  auto choose = [&](const AccessFacts& f) {
    AccessEntry& access = *f.access;
    hls::AccessIface iface;
    iface.kind = hls::IfaceKind::Coupled;
    iface.array = access.array;
    const LoopConfig* lc =
        access.loop != nullptr ? loopConfig(access.loop) : nullptr;
    bool pipelined = lc != nullptr && lc->pipelined;

    // Register promotion inside pipelined loops: a loop-invariant scalar
    // slot is held in a register; the load/store bracket the loop.
    if (pipelined && !access.promotable.has_value()) {
      access.promotable = isPromotable(access.inst, access.loop, fa);
    }
    if (pipelined && *access.promotable) {
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
          footprintBytes <= kMaxScratchpadBytes) {
        iface.kind = hls::IfaceKind::Scratchpad;
        iface.footprintBytes = footprintBytes;
        iface.partitions = lc != nullptr ? std::max(1u, lc->unroll) : 1;
        return iface;
      }
    }

    // Decoupled rule: stream accesses inside pipelined loops reach II=1.
    if (params_.allowDecoupled && pipelined) {
      if (!access.stream.has_value()) {
        access.stream = fa.mem.isStream(access.inst, access.loop);
      }
      if (*access.stream) {
        iface.kind = hls::IfaceKind::Decoupled;
        return iface;
      }
    }
    return iface;  // coupled fallback (area saving)
  };

  // `facts` ascend by instruction, so each entry lands at the end.
  for (const AccessFacts& f : facts) {
    assignment.emplace_hint(assignment.end(), f.access->inst, choose(f));
  }
  return assignment;
}

const std::vector<AcceleratorConfig>& AcceleratorModel::generate(
    const Region* region) const {
  std::optional<std::vector<AcceleratorConfig>>& slot =
      generateSlots_.at(static_cast<size_t>(region->id()));
  if (slot.has_value()) {
    support::trace::count("model.cache_hits", 1);
    return *slot;
  }
  support::trace::count("model.cache_misses", 1);
  // Assigned only once generateUncached returns: a throw leaves the slot
  // empty and the next call retries.
  slot = generateUncached(region);
  return *slot;
}

void AcceleratorModel::warmGenerateCache() const {
  wpst_.root()->walk([&](const Region& region) {
    if (params_.cancel != nullptr) {
      params_.cancel->check(support::Stage::Select, region.label());
    }
    generate(&region);
  });
}

std::vector<AcceleratorConfig> AcceleratorModel::generateUncached(
    const Region* region) const {
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
  candidatesTotal_ += front.size();
  support::trace::count("model.candidates_total", front.size());
  return front;
}

AcceleratorConfig AcceleratorModel::ladderConfig(const Region* region,
                                                 unsigned unroll,
                                                 bool optimize) const {
  FunctionTables& tables = tablesFor(region->function());
  std::vector<AccessFacts> facts = accessFacts(tables, region);
  AcceleratorConfig config;
  config.region = region;
  config.loops = makeLoopConfigs(tables, region, unroll, optimize);
  config.ifaces = assignInterfaces(tables, facts, config.loops);
  return config;
}

double AcceleratorModel::iiTreeTerm(const Region* region,
                                    const std::vector<LoopConfig>& loops,
                                    const hls::IfaceAssignment& ifaces,
                                    std::vector<LoopII>& iis) const {
  FunctionTables& tables = tablesFor(region->function());
  const analysis::FunctionAnalyses& fa = *tables.analyses;
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
    double iterations =
        std::ceil(tables.loops[r.loop()->index()].tripCount /
                  static_cast<double>(unroll));
    const hls::BlockPlan& plan = planFor(tables, *body);
    unsigned ii = std::max(
        scheduler_.recMII(fa.mem.carriedDeps(r.loop()), ifaces),
        scheduler_.resMII(plan, hls::Scheduler::signature(plan, ifaces),
                          unroll));
    iis.push_back(LoopII{r.loop(), ii});
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

  auto makeConfig = [&](std::vector<LoopConfig> loops,
                        hls::IfaceAssignment ifaces,
                        std::span<const LoopII> iis) {
    if (params_.cancel != nullptr) {
      params_.cancel->check(support::Stage::Select, region->label());
    }
    AcceleratorConfig config;
    config.region = region;
    config.loops = std::move(loops);
    config.ifaces = std::move(ifaces);
    estimateWith(config, iis);
    return config;
  };

  FunctionTables& tables = tablesFor(region->function());
  std::vector<AcceleratorConfig> result;
  std::vector<AccessFacts> facts = accessFacts(tables, region);
  // Cheapest point: fully sequential.
  {
    std::vector<LoopConfig> loops =
        makeLoopConfigs(tables, region, 1, false);
    hls::IfaceAssignment ifaces = assignInterfaces(tables, facts, loops);
    result.push_back(makeConfig(std::move(loops), std::move(ifaces), {}));
  }
  const std::vector<LoopConfig>& baselineLoops = result.front().loops;
  if (!hasLoops || !params_.optimizeControlFlow) return result;

  // Unroll-ladder walk. Admission is analytic (MII bounds), estimation is
  // guarded (branch-and-bound on the measured unroll-invariant part), and
  // both preserve the per-region Pareto front: a skipped point is either
  // structurally identical to a kept config or dominated by one (its II
  // term, pipeline depth, and area are all no better than an admitted
  // smaller-width point's).
  struct Point {
    std::vector<LoopConfig> loops;
    hls::IfaceAssignment ifaces;
    double iiTerm = 0.0;
    std::vector<LoopII> iis;
  };
  std::vector<Point> admitted;
  double bestTerm = std::numeric_limits<double>::infinity();
  for (unsigned unroll : kUnrollFactors) {
    std::vector<LoopConfig> loops =
        makeLoopConfigs(tables, region, unroll, true);
    // Structural dedupe: ladder points that bind no loop collapse.
    if (loops == baselineLoops) continue;
    bool duplicate = false;
    for (const Point& p : admitted) duplicate |= p.loops == loops;
    if (duplicate) continue;
    hls::IfaceAssignment ifaces = assignInterfaces(tables, facts, loops);
    std::vector<LoopII> iis;
    double term = iiTreeTerm(region, loops, ifaces, iis);
    // MII admission filter: a wider point whose recurrence/resource II term
    // does not strictly improve is dominated — depth and area only grow
    // with width. This is also what skips pipelining/unrolling wholesale
    // when the recurrence MII pins the II (the term is then flat). The scan
    // goes on past a flat step: the ceil staircase of the iteration count
    // can still step down at the iteration-collapse cliff.
    if (term >= bestTerm) continue;
    bestTerm = term;
    admitted.push_back(
        Point{std::move(loops), std::move(ifaces), term, std::move(iis)});
  }

  // Guarded estimation walk: g tracks the measured unroll-invariant-plus-
  // depth part, which only grows with width, so g + iiTerm lower-bounds any
  // later point's cycles. A point whose bound cannot beat the best measured
  // cycles is dominated (it is wider, so its area is no smaller).
  double gLower = -std::numeric_limits<double>::infinity();
  double bestCycles = std::numeric_limits<double>::infinity();
  bool estimatedAny = false;
  for (Point& p : admitted) {
    if (estimatedAny && gLower + p.iiTerm >= bestCycles) continue;
    AcceleratorConfig config =
        makeConfig(std::move(p.loops), std::move(p.ifaces), p.iis);
    gLower = std::max(gLower, config.cycles - p.iiTerm);
    bestCycles = std::min(bestCycles, config.cycles);
    estimatedAny = true;
    result.push_back(std::move(config));
  }
  return result;
}

hls::BlockSchedule AcceleratorModel::scheduleBlockCached(
    const ir::BasicBlock& block, const hls::IfaceAssignment& ifaces,
    unsigned unroll) const {
  return scheduleBlockCached(tablesFor(block.parent()), block, ifaces,
                             unroll);
}

const hls::BlockPlan& AcceleratorModel::planFor(
    FunctionTables& tables, const ir::BasicBlock& block) const {
  std::unique_ptr<hls::BlockPlan>& plan = tables.blocks[block.index()].plan;
  if (plan == nullptr) {
    plan = std::make_unique<hls::BlockPlan>(scheduler_.plan(block));
  }
  return *plan;
}

hls::BlockSchedule AcceleratorModel::scheduleBlockCached(
    FunctionTables& tables, const ir::BasicBlock& block,
    const hls::IfaceAssignment& ifaces, unsigned unroll) const {
  const hls::BlockPlan& plan = planFor(tables, block);
  // Equal signatures schedule equally, so (width, signature) is a complete
  // key, and collapsing promoted accesses and footprints turns
  // nesting-level beta-rule variations of one block into hits. A block sees
  // few distinct keys, so a scan.
  std::span<const hls::AccessIface> signature =
      hls::Scheduler::signature(plan, ifaces);
  BlockSlot& slot = tables.blocks[block.index()];
  for (const BlockSlot::Entry& entry : slot.entries) {
    if (entry.width == unroll &&
        std::equal(entry.signature.begin(), entry.signature.end(),
                   signature.begin(), signature.end())) {
      return entry.schedule;
    }
  }
  hls::BlockSchedule schedule =
      scheduler_.scheduleBlock(plan, signature, unroll);
  slot.entries.push_back(BlockSlot::Entry{
      unroll, std::vector<hls::AccessIface>(signature.begin(),
                                            signature.end()),
      schedule});
  return schedule;
}

AcceleratorModel::Estimate AcceleratorModel::estimateRegion(
    FunctionTables& tables, const Region* region,
    const AcceleratorConfig& config, unsigned unrollContext,
    std::span<const LoopII> iis) const {
  Estimate e;

  switch (region->kind()) {
    case RegionKind::Bb: {
      const ir::BasicBlock* block = region->block();
      double execs = std::ceil(
          static_cast<double>(tables.blockCounts[block->index()]) /
          static_cast<double>(unrollContext));
      hls::BlockSchedule sched =
          scheduleBlockCached(tables, *block, config.ifaces, unrollContext);
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
      double trip = tables.loops[loop->index()].tripCount;
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
        hls::BlockSchedule sched =
            scheduleBlockCached(tables, *body, config.ifaces, width);
        unsigned depth = sched.latency + 1;  // +1: IV/exit-condition stage
        // iiTreeTerm's bound for this loop, when it computed one at this
        // width (it assumes an unroll context of 1).
        auto known =
            std::find_if(iis.begin(), iis.end(),
                         [&](const LoopII& l) { return l.loop == loop; });
        unsigned ii = 0;
        if (known != iis.end() && unrollContext == 1) {
          ii = known->ii;
        } else {
          const hls::BlockPlan& plan = planFor(tables, *body);
          ii = std::max(
              scheduler_.recMII(tables.analyses->mem.carriedDeps(loop),
                                config.ifaces),
              scheduler_.resMII(
                  plan, hls::Scheduler::signature(plan, config.ifaces),
                  width));
        }
        double perEntry =
            static_cast<double>(hls::Scheduler::pipelinedCycles(
                static_cast<uint64_t>(iterations), depth, ii)) +
            2.0;  // start / drain control
        // Register-promoted accesses bracket the loop: load the cells before
        // the first iteration, write accumulators back after the last.
        for (const AccessEntry& access : accessesOf(tables, body)) {
          auto it = config.ifaces.find(access.inst);
          if (it == config.ifaces.end() || !it->second.promoted) continue;
          perEntry += access.inst->opcode() == ir::Opcode::Load
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
        Estimate ce = estimateRegion(tables, child.get(), config,
                                     unrollContext * unroll, iis);
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
        Estimate ce =
            estimateRegion(tables, child.get(), config, unrollContext, iis);
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
    FunctionTables& tables, const AcceleratorConfig& config) const {
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
    for (const AccessEntry& access : accessesOf(tables, block)) {
      const ir::Instruction* inst = access.inst;
      auto it = config.ifaces.find(inst);
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
  estimateWith(config, {});
}

void AcceleratorModel::estimateWith(AcceleratorConfig& config,
                                    std::span<const LoopII> iis) const {
  CAYMAN_ASSERT(config.region != nullptr, "config without region");
  ++estimateCalls_;
  support::trace::count("model.estimate_calls", 1);
  FunctionTables& tables = tablesFor(config.region->function());
  Estimate e = estimateRegion(tables, config.region, config, 1, iis);
  IfaceCosts ic = interfaceCosts(tables, config);
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
