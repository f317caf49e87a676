// The model's generate cache and schedule cache: each region is generated
// once, and each (block, width, interface signature) is scheduled once,
// with every cached answer equal to a fresh schedule.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "accel/model.h"
#include "hls/interface.h"
#include "support/trace.h"
#include "test_kernels.h"
#include "workloads/workloads.h"

namespace cayman::accel {
namespace {

struct Pipeline {
  explicit Pipeline(std::unique_ptr<ir::Module> m)
      : module(std::move(m)),
        wpst(*module),
        interp(*module),
        run(interp.run()),
        profile(wpst, run, interp.costModel()),
        tech(hls::TechLibrary::nangate45()),
        model(wpst, profile, tech, hls::InterfaceTiming{}) {}

  std::unique_ptr<ir::Module> module;
  analysis::WPst wpst;
  sim::Interpreter interp;
  sim::Interpreter::Result run;
  sim::ProfileData profile;
  hls::TechLibrary tech;
  AcceleratorModel model;
};

std::vector<const analysis::Region*> allRegions(const analysis::WPst& wpst) {
  std::vector<const analysis::Region*> regions;
  for (const analysis::Region* r : wpst.allRegions()) regions.push_back(r);
  return regions;
}

TEST(ParallelGenerateTest, RepeatedGenerateReturnsOneStableList) {
  // The generate cache generates each region once: a repeated call returns
  // a reference to the same cached list and counts a hit, not a miss.
  Pipeline p(testing::dotRowsKernel());
  std::vector<const analysis::Region*> regions = allRegions(p.wpst);
  ASSERT_FALSE(regions.empty());

  support::trace::TraceRecorder& recorder =
      support::trace::TraceRecorder::global();
  recorder.clear();
  recorder.setEnabled(true);
  std::vector<const std::vector<AcceleratorConfig>*> first;
  {
    support::trace::TaskScope scope("dot_rows", 0);
    for (const analysis::Region* region : regions) {
      first.push_back(&p.model.generate(region));
    }
    // Reverse order, so a hit never depends on being the last region asked.
    for (size_t i = regions.size(); i-- > 0;) {
      EXPECT_EQ(&p.model.generate(regions[i]), first[i]) << "region " << i;
    }
  }
  recorder.setEnabled(false);
  std::vector<support::trace::TaskRecord> tasks = recorder.drainTasks();
  recorder.clear();

  ASSERT_EQ(tasks.size(), 1u);
  std::map<std::string, uint64_t> counters(tasks[0].counters.begin(),
                                           tasks[0].counters.end());
  EXPECT_EQ(counters["model.cache_misses"], regions.size());
  EXPECT_EQ(counters["model.cache_hits"], regions.size());
}

TEST(SchedCacheTest, ModelComparisonCountIsDeterministic) {
  // Two fresh identical models do identical schedule-cache work (one
  // scheduleBlock per miss), and a memoized re-generate schedules nothing
  // further.
  Pipeline a(testing::dotRowsKernel());
  Pipeline b(testing::dotRowsKernel());
  a.model.warmGenerateCache();
  b.model.warmGenerateCache();
  EXPECT_GT(a.model.scheduleBlockCalls(), 0u);
  EXPECT_EQ(a.model.scheduleBlockCalls(), b.model.scheduleBlockCalls());

  uint64_t before = a.model.scheduleBlockCalls();
  a.model.warmGenerateCache();  // pure cache hits
  EXPECT_EQ(a.model.scheduleBlockCalls(), before);
}

/// One schedule-cache key: the block, the width and the block's accesses'
/// interfaces in program order, reduced to what a schedule reads (a
/// promoted access is only "promoted"; footprints never matter).
struct SchedKey {
  const ir::BasicBlock* block = nullptr;
  unsigned width = 0;
  std::vector<hls::AccessIface> signature;
  bool operator==(const SchedKey&) const = default;
};

SchedKey keyOf(const ir::BasicBlock& block,
               const hls::IfaceAssignment& ifaces, unsigned width) {
  SchedKey key{&block, width, {}};
  for (const auto& inst : block.instructions()) {
    if (!inst->isMemoryAccess()) continue;
    auto it = ifaces.find(inst.get());
    hls::AccessIface iface =
        it == ifaces.end() ? hls::AccessIface{} : it->second;
    if (iface.promoted) iface = hls::AccessIface{.promoted = true};
    iface.footprintBytes = 0;
    key.signature.push_back(iface);
  }
  return key;
}

TEST(SchedCacheTest, EachKeyIsScheduledOnceAndHitsMatchFreshSchedules) {
  // Every block of every candidate region under every ladder point's
  // interfaces, at each of the ladder's widths: the model schedules a
  // (block, width, signature) key the first time it sees it and never
  // again, and every answer, hit or miss, equals a fresh scheduleBlock on a
  // scheduler of its own.
  for (const char* workload : {"3mm", "cjpeg"}) {
    SCOPED_TRACE(workload);
    Pipeline p(workloads::build(workload));
    hls::Scheduler fresh(p.tech, hls::InterfaceTiming{},
                         p.model.params().clockNs);
    std::vector<SchedKey> seen;
    size_t requests = 0;
    for (const analysis::Region* region : p.wpst.allRegions()) {
      if (!region->isCandidate()) continue;
      std::vector<AcceleratorConfig> points = {
          p.model.ladderConfig(region, 1, /*optimize=*/false)};
      for (unsigned unroll : kUnrollFactors) {
        points.push_back(p.model.ladderConfig(region, unroll, true));
      }
      for (const AcceleratorConfig& point : points) {
        for (const ir::BasicBlock* block : region->blocks()) {
          for (unsigned width : {1u, 4u}) {
            SchedKey key = keyOf(*block, point.ifaces, width);
            bool isNew =
                std::find(seen.begin(), seen.end(), key) == seen.end();
            if (isNew) seen.push_back(key);
            uint64_t before = p.model.scheduleBlockCalls();
            hls::BlockSchedule cached =
                p.model.scheduleBlockCached(*block, point.ifaces, width);
            ++requests;
            ASSERT_EQ(p.model.scheduleBlockCalls(), before + (isNew ? 1 : 0))
                << block->name() << " width " << width;
            hls::BlockSchedule expected =
                fresh.scheduleBlock(*block, point.ifaces, width);
            EXPECT_EQ(cached.latency, expected.latency) << block->name();
            EXPECT_EQ(cached.opAreaUm2, expected.opAreaUm2) << block->name();
            EXPECT_EQ(cached.regAreaUm2, expected.regAreaUm2)
                << block->name();
            EXPECT_EQ(cached.numOps, expected.numOps) << block->name();
          }
        }
      }
    }
    EXPECT_EQ(p.model.scheduleBlockCalls(), seen.size());
    // The sweep hits as well as misses.
    EXPECT_LT(seen.size(), requests);

    // Generation adds only keys it has not seen, and a second warm pass
    // schedules nothing.
    p.model.warmGenerateCache();
    uint64_t warmed = p.model.scheduleBlockCalls();
    p.model.warmGenerateCache();
    EXPECT_EQ(p.model.scheduleBlockCalls(), warmed);
  }
}

}  // namespace
}  // namespace cayman::accel
