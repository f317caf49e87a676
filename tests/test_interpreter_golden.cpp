// Golden-equivalence suite: the pre-decoded register-machine interpreter
// must produce bit-identical profiling results to the tree-walking reference
// oracle (tests/oracles/interpreter.h) on every registered workload — same total cycles (exact double
// equality, since block costs are accumulated in the same order), same
// dynamic instruction count, same per-block execution counts, and the same
// return value.
#include <gtest/gtest.h>

#include <bit>
#include <cctype>

#include "oracles/interpreter.h"
#include "sim/interpreter.h"
#include "workloads/workloads.h"

namespace cayman::sim {
namespace {

class GoldenEquivalenceTest
    : public ::testing::TestWithParam<workloads::WorkloadInfo> {};

TEST_P(GoldenEquivalenceTest, DecodedMatchesReference) {
  const workloads::WorkloadInfo& info = GetParam();
  std::unique_ptr<ir::Module> module = workloads::build(info.name);

  oracles::ReferenceInterpreter reference(*module);
  Interpreter decoded(*module);
  Interpreter::Result ref = reference.run();
  Interpreter::Result dec = decoded.run();

  // Exact, not approximate: both engines add the same per-block costs in the
  // same dynamic block order.
  EXPECT_EQ(std::bit_cast<uint64_t>(ref.totalCycles),
            std::bit_cast<uint64_t>(dec.totalCycles))
      << info.name << ": cycles " << ref.totalCycles << " vs "
      << dec.totalCycles;
  EXPECT_EQ(ref.instructions, dec.instructions) << info.name;

  EXPECT_EQ(ref.blockCounts.size(), dec.blockCounts.size()) << info.name;
  for (const auto& [block, count] : ref.blockCounts) {
    EXPECT_EQ(dec.countOf(block), count)
        << info.name << ": block " << block->name();
  }

  ASSERT_EQ(ref.returnValue.has_value(), dec.returnValue.has_value())
      << info.name;
  if (ref.returnValue.has_value()) {
    EXPECT_EQ(ref.returnValue->i, dec.returnValue->i) << info.name;
    EXPECT_EQ(std::bit_cast<uint64_t>(ref.returnValue->f),
              std::bit_cast<uint64_t>(dec.returnValue->f))
        << info.name;
  }

  // Both engines must also leave the same memory image behind.
  for (const auto& global : module->globals()) {
    for (uint64_t i = 0; i < global->numElems(); ++i) {
      if (global->elemType()->isFloat()) {
        ASSERT_EQ(std::bit_cast<uint64_t>(
                      reference.memory().readElemF64(global.get(), i)),
                  std::bit_cast<uint64_t>(
                      decoded.memory().readElemF64(global.get(), i)))
            << info.name << ": " << global->name() << "[" << i << "]";
      } else {
        ASSERT_EQ(reference.memory().readElemI64(global.get(), i),
                  decoded.memory().readElemI64(global.get(), i))
            << info.name << ": " << global->name() << "[" << i << "]";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, GoldenEquivalenceTest,
    ::testing::ValuesIn(workloads::all()),
    [](const ::testing::TestParamInfo<workloads::WorkloadInfo>& info) {
      std::string name = info.param.name;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

/// Re-running the same interpreter must be deterministic: run() resets memory
/// to the initial image, so mutated globals cannot leak into the next run.
TEST(GoldenEquivalenceTest, RepeatedRunsAreIdentical) {
  for (const char* name : {"atax", "fft", "cjpeg"}) {
    std::unique_ptr<ir::Module> module = workloads::build(name);
    Interpreter interp(*module);
    Interpreter::Result first = interp.run();
    Interpreter::Result second = interp.run();
    EXPECT_EQ(std::bit_cast<uint64_t>(first.totalCycles),
              std::bit_cast<uint64_t>(second.totalCycles))
        << name;
    EXPECT_EQ(first.instructions, second.instructions) << name;
    EXPECT_EQ(first.blockCounts, second.blockCounts) << name;
  }
}

}  // namespace
}  // namespace cayman::sim
