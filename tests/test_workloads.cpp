// Workload registry tests: every benchmark builds, verifies, runs under the
// interpreter, and has the structural properties its suite implies.
// Parameterized across all 28 workloads.
#include <gtest/gtest.h>

#include "analysis/regions.h"
#include "ir/verifier.h"
#include "sim/interpreter.h"
#include "workloads/workloads.h"

namespace cayman::workloads {
namespace {

TEST(RegistryTest, HasTwentyEightWorkloadsInFourSuites) {
  EXPECT_EQ(all().size(), 28u);
  std::map<std::string, int> suites;
  for (const WorkloadInfo& info : all()) ++suites[info.suite];
  EXPECT_EQ(suites["PolyBench"], 16);
  EXPECT_EQ(suites["MachSuite"], 4);
  EXPECT_EQ(suites["MediaBench"], 2);
  EXPECT_EQ(suites["CoreMark-Pro"], 6);
}

TEST(RegistryTest, LookupAndErrors) {
  EXPECT_NE(byName("3mm"), nullptr);
  EXPECT_EQ(byName("nonexistent"), nullptr);
  EXPECT_THROW(build("nonexistent"), Error);
}

TEST(RegistryTest, NamesAreUnique) {
  std::set<std::string> names;
  for (const WorkloadInfo& info : all()) {
    EXPECT_TRUE(names.insert(info.name).second) << info.name;
  }
}

class WorkloadTest : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadTest, BuildsAndVerifies) {
  std::unique_ptr<ir::Module> module = build(GetParam());
  ASSERT_NE(module, nullptr);
  // build() does not verify (Framework's Verify stage does), so check here.
  EXPECT_TRUE(ir::verifyModule(*module).empty());
  EXPECT_EQ(module->name(), GetParam());
  EXPECT_GE(module->functions().size(), 1u);
  EXPECT_GE(module->globals().size(), 1u);
}

TEST_P(WorkloadTest, RunsToCompletionDeterministically) {
  std::unique_ptr<ir::Module> module = build(GetParam());
  sim::Interpreter first(*module);
  sim::Interpreter::Result a = first.run();
  EXPECT_GT(a.totalCycles, 0.0);
  EXPECT_GT(a.instructions, 100u);
  // Kept small enough for fast profiling across the whole suite.
  EXPECT_LT(a.instructions, 20'000'000u);

  sim::Interpreter second(*module);
  sim::Interpreter::Result b = second.run();
  EXPECT_DOUBLE_EQ(a.totalCycles, b.totalCycles);
  EXPECT_EQ(a.instructions, b.instructions);
}

TEST_P(WorkloadTest, HasLoopRegionsAndHotspots) {
  std::unique_ptr<ir::Module> module = build(GetParam());
  analysis::WPst wpst(*module);
  int loops = 0;
  wpst.root()->walk([&](const analysis::Region& r) {
    if (r.kind() == analysis::RegionKind::Loop) ++loops;
  });
  EXPECT_GT(loops, 0) << "every benchmark needs loop candidates";
}

std::vector<std::string> workloadNames() {
  std::vector<std::string> names;
  for (const WorkloadInfo& info : all()) names.push_back(info.name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(
    All, WorkloadTest, ::testing::ValuesIn(workloadNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// --- Spot checks on numerical behaviour -----------------------------------

TEST(WorkloadSemanticsTest, FloydWarshallShrinksDistances) {
  std::unique_ptr<ir::Module> module = build("floyd-warshall");
  const ir::GlobalArray* path = module->globalByName("path");
  ASSERT_NE(path, nullptr);
  sim::Interpreter interp(*module);
  // Record the initial matrix before running.
  std::vector<double> before(path->numElems());
  for (uint64_t i = 0; i < path->numElems(); ++i) {
    before[i] = interp.memory().readElemF64(path, i);
  }
  interp.run();
  for (uint64_t i = 0; i < path->numElems(); ++i) {
    EXPECT_LE(interp.memory().readElemF64(path, i), before[i] + 1e-12);
  }
}

TEST(WorkloadSemanticsTest, NwFillsScoreMatrix) {
  std::unique_ptr<ir::Module> module = build("nw");
  const ir::GlobalArray* score = module->globalByName("score");
  ASSERT_NE(score, nullptr);
  sim::Interpreter interp(*module);
  interp.run();
  // Border is the gap penalty ramp.
  EXPECT_EQ(interp.memory().readElemI64(score, 0), 0);
  EXPECT_EQ(interp.memory().readElemI64(score, 1), -1);
  // Scores are bounded by the sequence length.
  int64_t last = interp.memory().readElemI64(score, score->numElems() - 1);
  EXPECT_LE(last, 48);
  EXPECT_GE(last, -96);
}

TEST(WorkloadSemanticsTest, ParserCountsEveryCharacter) {
  std::unique_ptr<ir::Module> module = build("parser-125k");
  const ir::GlobalArray* counts = module->globalByName("counts");
  ASSERT_NE(counts, nullptr);
  sim::Interpreter interp(*module);
  interp.run();
  int64_t total = 0;
  for (uint64_t i = 0; i < counts->numElems(); ++i) {
    total += interp.memory().readElemI64(counts, i);
  }
  EXPECT_EQ(total, 4096);  // every scanned character lands in one class
}

TEST(WorkloadSemanticsTest, CjpegQuantizationCountsBlocks) {
  std::unique_ptr<ir::Module> module = build("cjpeg");
  const ir::GlobalArray* stats = module->globalByName("stats");
  ASSERT_NE(stats, nullptr);
  sim::Interpreter interp(*module);
  interp.run();
  int64_t zeros = interp.memory().readElemI64(stats, 0);
  int64_t nonzeros = interp.memory().readElemI64(stats, 1);
  EXPECT_EQ(zeros + nonzeros, 32 * 32);  // every coefficient classified
  EXPECT_GT(zeros, 0);  // quantization zeroes high frequencies
}

}  // namespace
}  // namespace cayman::workloads
