// Tests for the structured status layer: Diagnostic formatting, stage names,
// Expected<T>, DiagnosticError, and cooperative CancelToken semantics.
#include <gtest/gtest.h>

#include <thread>

#include "support/cancellation.h"
#include "support/status.h"

namespace cayman::support {
namespace {

TEST(StatusTest, StageNamesRoundTrip) {
  const Stage stages[] = {Stage::Parse,  Stage::Verify, Stage::Analyze,
                          Stage::Profile, Stage::Select, Stage::Merge,
                          Stage::Baselines, Stage::Internal};
  for (Stage stage : stages) {
    std::optional<Stage> back = stageByName(stageName(stage));
    ASSERT_TRUE(back.has_value()) << stageName(stage);
    EXPECT_EQ(*back, stage);
  }
  EXPECT_FALSE(stageByName("bogus").has_value());
  EXPECT_FALSE(stageByName("cache").has_value());
  EXPECT_FALSE(stageByName("").has_value());
}

TEST(StatusTest, DiagnosticStrIncludesAllPresentParts) {
  Diagnostic full{Stage::Parse, "atax", "unexpected token", 3, 14};
  EXPECT_EQ(full.str(), "parse error in 'atax' at 3:14: unexpected token");

  Diagnostic noPos{Stage::Select, "gemm", "budget infeasible"};
  EXPECT_EQ(noPos.str(), "select error in 'gemm': budget infeasible");

  Diagnostic bare{Stage::Internal, "", "bad_alloc"};
  EXPECT_EQ(bare.str(), "internal error: bad_alloc");
}

TEST(StatusTest, DiagnosticErrorWhatMatchesStr) {
  Diagnostic d{Stage::Verify, "mvt", "phi arity mismatch", 7, 2};
  DiagnosticError error(d);
  EXPECT_EQ(std::string(error.what()), d.str());
  EXPECT_EQ(error.diagnostic().stage, Stage::Verify);
  EXPECT_EQ(error.diagnostic().line, 7);
  // DiagnosticError stays catchable as the legacy Error base.
  try {
    throw DiagnosticError(d);
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("phi arity"), std::string::npos);
  }
}

TEST(StatusTest, ExpectedHoldsValueOrDiagnostic) {
  Expected<int> ok(42);
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(static_cast<bool>(ok));
  EXPECT_EQ(ok.value(), 42);

  Expected<int> bad(Diagnostic{Stage::Parse, "f", "nope", 1, 1});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.diagnostic().message, "nope");
}

TEST(StatusTest, ExpectedTakeValueMovesOut) {
  Expected<std::unique_ptr<int>> ok(std::make_unique<int>(9));
  std::unique_ptr<int> moved = ok.takeValue();
  ASSERT_NE(moved, nullptr);
  EXPECT_EQ(*moved, 9);
}

TEST(CancelTokenTest, FreshTokenNeverExpires) {
  CancelToken token;
  EXPECT_FALSE(token.expired());
  EXPECT_NO_THROW(token.check(Stage::Profile, "unit"));
}

TEST(CancelTokenTest, CancelTripsCheckWithCancelledError) {
  CancelToken token;
  token.cancel();
  EXPECT_TRUE(token.expired());
  try {
    token.check(Stage::Select, "gemm");
    FAIL() << "expected CancelledError";
  } catch (const CancelledError& e) {
    EXPECT_EQ(e.diagnostic().stage, Stage::Select);
    EXPECT_EQ(e.diagnostic().unit, "gemm");
  }
}

TEST(CancelTokenTest, DeadlineExpiresAndReportsTimeout) {
  CancelToken token;
  token.setTimeout(0.01);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ASSERT_TRUE(token.expired());
  try {
    token.check(Stage::Profile, "atax");
    FAIL() << "expected CancelledError";
  } catch (const CancelledError& e) {
    EXPECT_NE(std::string(e.what()).find("timeout"), std::string::npos);
  }
}

TEST(CancelTokenTest, NonPositiveTimeoutDisarms) {
  CancelToken token;
  token.setTimeout(0.001);
  token.setTimeout(0.0);  // disarm again
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(token.expired());
}

TEST(CancelTokenTest, CancelledErrorIsCatchableAsDiagnosticError) {
  CancelToken token;
  token.cancel();
  EXPECT_THROW(token.check(Stage::Merge), DiagnosticError);
}

}  // namespace
}  // namespace cayman::support
