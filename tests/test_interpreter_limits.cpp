// Runaway-guard tests: the interpreter and its reference oracle must both
// trip the instruction limit on divergent programs with a catchable Error,
// stay usable for the next run (memory is reset per run), and honor
// cooperative cancellation.
#include <gtest/gtest.h>

#include <string>
#include <type_traits>

#include "ir/parser.h"
#include "oracles/interpreter.h"
#include "sim/interpreter.h"
#include "support/cancellation.h"

namespace cayman::sim {
namespace {

/// Counts to 1e6 with a store per iteration, then returns the counter.
constexpr const char* kLongLoop = R"(module "long_loop" {
global @out : i64[1] = [0]

func @main() -> i64 {
entry:
  br loop
loop:
  %i = phi i64 [ 0, entry ], [ %next, loop ]
  %next = add i64 %i, 1
  %p = gep @out, 0, elem 8
  store i64 %next, %p
  %done = icmp ge i64 %next, 1000000
  condbr %done, exit, loop
exit:
  %v = load i64, %p
  ret i64 %v
}
}
)";

template <typename Engine>
class InstructionLimitTest : public ::testing::Test {};

using Engines = ::testing::Types<Interpreter, oracles::ReferenceInterpreter>;

struct EngineNames {
  template <typename Engine>
  static std::string GetName(int) {
    return std::is_same_v<Engine, Interpreter> ? "Decoded" : "Reference";
  }
};
TYPED_TEST_SUITE(InstructionLimitTest, Engines, EngineNames);

TYPED_TEST(InstructionLimitTest, DivergentRunTripsLimitWithCatchableError) {
  std::unique_ptr<ir::Module> module = ir::parseModule(kLongLoop);
  TypeParam interpreter(*module);
  interpreter.setInstructionLimit(1000);
  try {
    interpreter.run();
    FAIL() << "expected instruction-limit Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("instruction limit"),
              std::string::npos);
  }
}

TYPED_TEST(InstructionLimitTest, InterpreterIsReusableAfterTrippingTheLimit) {
  std::unique_ptr<ir::Module> module = ir::parseModule(kLongLoop);
  TypeParam interpreter(*module);
  interpreter.setInstructionLimit(1000);
  EXPECT_THROW(interpreter.run(), Error);

  // Raise the limit: the same interpreter (and its SimMemory, reset at run
  // start) must now complete and produce the correct result.
  interpreter.setInstructionLimit(100'000'000);
  auto result = interpreter.run();
  ASSERT_TRUE(result.returnValue.has_value());
  EXPECT_EQ(result.returnValue->i, 1000000);
}

TYPED_TEST(InstructionLimitTest, CancelTokenAbortsTheRun) {
  std::unique_ptr<ir::Module> module = ir::parseModule(kLongLoop);
  TypeParam interpreter(*module);
  support::CancelToken token;
  token.cancel();  // pre-cancelled: the rate-limited poll must still fire
  interpreter.setCancelToken(&token);
  EXPECT_THROW(interpreter.run(), support::CancelledError);

  // Detaching the token restores normal execution.
  interpreter.setCancelToken(nullptr);
  auto result = interpreter.run();
  ASSERT_TRUE(result.returnValue.has_value());
  EXPECT_EQ(result.returnValue->i, 1000000);
}

TYPED_TEST(InstructionLimitTest, LimitBoundaryIsExactAcrossEngines) {
  std::unique_ptr<ir::Module> module = ir::parseModule(kLongLoop);
  // Find the instruction count of a full run, then confirm a limit exactly
  // at that count passes while one below fails — for both engines the same.
  TypeParam interpreter(*module);
  uint64_t total = interpreter.run().instructions;
  interpreter.setInstructionLimit(total);
  EXPECT_NO_THROW(interpreter.run());
  interpreter.setInstructionLimit(total - 1);
  EXPECT_THROW(interpreter.run(), Error);
}

}  // namespace
}  // namespace cayman::sim
