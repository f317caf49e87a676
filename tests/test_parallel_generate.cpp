// The model's generate cache and schedule cache: each region is generated
// once and each schedule computed once, plus the container-complexity
// regression for the sorted schedule buckets: lookups cost O(log entries)
// signature comparisons where the old linear bucket scan paid O(entries).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "accel/model.h"
#include "hls/interface.h"
#include "support/trace.h"
#include "test_kernels.h"

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

TEST(SchedCacheComplexityTest, SortedBucketStaysLogarithmic) {
  // The satellite regression: the schedule cache's buckets are sorted maps
  // over interface signatures. n inserts + n lookups must cost O(n log n)
  // signature comparisons; the linear scan this replaced paid O(n^2)
  // (~65k comparisons at n = 256 vs ~5k for a red-black tree).
  struct CountingLess {
    std::atomic<uint64_t>* comparisons = nullptr;
    bool operator()(const std::vector<hls::AccessIface>& a,
                    const std::vector<hls::AccessIface>& b) const {
      comparisons->fetch_add(1, std::memory_order_relaxed);
      return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                          b.end());
    }
  };
  constexpr uint64_t kEntries = 256;
  std::atomic<uint64_t> comparisons{0};
  std::map<std::vector<hls::AccessIface>, int, CountingLess> bucket(
      CountingLess{&comparisons});

  auto signatureAt = [](uint64_t i) {
    std::vector<hls::AccessIface> signature(3);
    signature[2].footprintBytes = i;  // distinct in the last element: worst
    signature[2].partitions = 1 + static_cast<unsigned>(i % 4);  // case order
    return signature;
  };
  for (uint64_t i = 0; i < kEntries; ++i) {
    // Deterministically shuffled insert order (37 is coprime to 256).
    bucket.emplace(signatureAt((i * 37) % kEntries), static_cast<int>(i));
  }
  ASSERT_EQ(bucket.size(), kEntries);
  for (uint64_t i = 0; i < kEntries; ++i) {
    EXPECT_NE(bucket.find(signatureAt(i)), bucket.end());
  }
  // Generous tree bound: 2 ops/entry x (2*log2(n) + 4) comparisons/op.
  const uint64_t logBound = 2 * kEntries *
                            (2 * static_cast<uint64_t>(std::log2(kEntries)) +
                             4);
  EXPECT_LE(comparisons.load(), logBound);           // ~10k ceiling
  EXPECT_GE(comparisons.load(), kEntries);           // the counter is live
  EXPECT_LT(logBound, kEntries * kEntries / 2);      // linear scan would fail
}

TEST(SchedCacheComplexityTest, ModelComparisonCountIsDeterministic) {
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

TEST(SchedCacheComplexityTest, AccessIfaceOrderIsConsistentWithEquality) {
  // Strict-weak-order prerequisite for keying sorted containers: equal iff
  // neither is less.
  std::vector<hls::AccessIface> samples(5);
  samples[1].kind = hls::IfaceKind::Decoupled;
  samples[2].partitions = 8;
  samples[3].footprintBytes = 1024;
  samples[4].promoted = true;
  for (const hls::AccessIface& x : samples) {
    EXPECT_FALSE(x < x);
    for (const hls::AccessIface& y : samples) {
      EXPECT_EQ(x == y, !(x < y) && !(y < x));
      if (x < y) {
        EXPECT_FALSE(y < x);
      }
    }
  }
}

}  // namespace
}  // namespace cayman::accel
