// Closed-form profiling: Interpreter::profile() counts the planned loop
// nests instead of interpreting them block by block (skipping them, or
// running a live nest's value stream), and must still report exactly what
// the reference oracle's full run reports: every block count, the
// instruction total, the cycle total bit for bit, and the same error where
// the run throws. Covered: all workloads, the fuzz crash corpus, and
// seeded random nests (zero-trip, triangular, out-of-bounds, never-ending,
// limit at the run's total and one below, read-modify-writes, reductions,
// invariant arithmetic in inner loops, and nests whose stores or counters
// feed a later branch).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <random>
#include <sstream>
#include <string>

#include "analysis/regions.h"
#include "ir/parser.h"
#include "ir/verifier.h"
#include "oracles/interpreter.h"
#include "sim/counted_nests.h"
#include "sim/interpreter.h"
#include "support/cancellation.h"
#include "workloads/workloads.h"

namespace cayman::sim {
namespace {

/// What a run reports, or the error it throws.
struct Outcome {
  std::optional<std::string> error;
  Interpreter::Result result;
};

template <typename Run>
Outcome outcomeOf(Run&& run) {
  Outcome out;
  try {
    out.result = run();
  } catch (const Error& e) {
    out.error = e.what();
  }
  return out;
}

void expectSameCounts(const Interpreter::Result& expected,
                      const Interpreter::Result& actual,
                      const std::string& what) {
  EXPECT_EQ(std::bit_cast<uint64_t>(expected.totalCycles),
            std::bit_cast<uint64_t>(actual.totalCycles))
      << what << ": cycles " << expected.totalCycles << " vs "
      << actual.totalCycles;
  EXPECT_EQ(expected.instructions, actual.instructions) << what;
  EXPECT_EQ(expected.blockCounts.size(), actual.blockCounts.size()) << what;
  for (const auto& [block, count] : expected.blockCounts) {
    EXPECT_EQ(count, actual.countOf(block))
        << what << ": block " << block->name();
  }
}

void expectSameOutcome(const Outcome& expected, const Outcome& actual,
                       const std::string& what) {
  ASSERT_EQ(expected.error.has_value(), actual.error.has_value())
      << what << ": " << expected.error.value_or("completed") << " vs "
      << actual.error.value_or("completed");
  if (expected.error.has_value()) {
    EXPECT_EQ(*expected.error, *actual.error) << what;
    return;
  }
  expectSameCounts(expected.result, actual.result, what);
  EXPECT_FALSE(actual.result.returnValue.has_value()) << what;
}

/// The outcomes of the oracle's run and of profile() under one limit.
Outcome profileWithLimit(const ir::Module& module,
                         const analysis::WPst& wpst, uint64_t limit) {
  Interpreter interpreter(module);
  interpreter.setInstructionLimit(limit);
  return outcomeOf([&] { return interpreter.profile(wpst); });
}

Outcome referenceWithLimit(const ir::Module& module, uint64_t limit) {
  oracles::ReferenceInterpreter reference(module);
  reference.setInstructionLimit(limit);
  return outcomeOf([&] { return reference.run(); });
}

/// The skipped nests of the module, or its live ones.
std::vector<const NestPlan*> plannedNests(const CountedNestPlan& plan,
                                          const ir::Module& module,
                                          bool live = false) {
  std::vector<const NestPlan*> nests;
  for (const auto& function : module.functions()) {
    for (const NestPlan& nest : plan.nestsOf(*function)) {
      if (nest.live == live) nests.push_back(&nest);
    }
  }
  return nests;
}

// --- Workloads ---------------------------------------------------------------

std::vector<std::string> workloadNames() {
  std::vector<std::string> names;
  for (const workloads::WorkloadInfo& info : workloads::all()) {
    names.push_back(info.name);
  }
  return names;
}

class WorkloadProfileTest : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadProfileTest, ProfileMatchesReferenceRun) {
  const std::string& name = GetParam();
  std::unique_ptr<ir::Module> module = workloads::build(name);
  analysis::WPst wpst(*module);
  oracles::ReferenceInterpreter reference(*module);
  Interpreter::Result expected = reference.run();
  Interpreter interpreter(*module);
  Interpreter::Result profiled = interpreter.profile(wpst);
  expectSameCounts(expected, profiled, name);
  EXPECT_FALSE(profiled.returnValue.has_value());
  // A second profile on the same interpreter reuses the plan.
  expectSameCounts(expected, interpreter.profile(wpst), name + " again");
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadProfileTest, ::testing::ValuesIn(workloadNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

/// The root headers of the workload's skipped nests, or of its live ones.
std::vector<std::string> plannedHeaders(const std::string& workload,
                                        bool live = false) {
  std::unique_ptr<ir::Module> module = workloads::build(workload);
  analysis::WPst wpst(*module);
  CountedNestPlan plan(wpst);
  std::vector<std::string> headers;
  for (const NestPlan* nest : plannedNests(plan, *module, live)) {
    headers.push_back(nest->loops.front().header->name());
  }
  return headers;
}

TEST(CountedNestPlanTest, PlansAffineAndTriangularNests) {
  EXPECT_EQ(plannedHeaders("atax"),
            (std::vector<std::string>{"init.header", "rows.header"}));
  // lu's bounds are the enclosing counters (low < i, k < low).
  EXPECT_EQ(plannedHeaders("lu"), (std::vector<std::string>{"i.header"}));
  EXPECT_TRUE(plannedHeaders("atax", /*live=*/true).empty());
}

TEST(CountedNestPlanTest, KeepsNestsWhoseStoresFeedALaterBranch) {
  // The block-transform nest stores `freq`, and the quantize loop loads it
  // and branches on it: a nest-local rule would skip the transform. It is
  // live instead: counted, then its values are computed.
  EXPECT_TRUE(plannedHeaders("cjpeg-rose7-preset").empty());
  EXPECT_TRUE(plannedHeaders("cjpeg").empty());
  EXPECT_EQ(plannedHeaders("cjpeg", /*live=*/true),
            (std::vector<std::string>{"ycc.header", "dct.by.header"}));
  EXPECT_EQ(plannedHeaders("cjpeg-rose7-preset", /*live=*/true),
            (std::vector<std::string>{"ycc.header", "sub.i.header",
                                      "dct.row.header"}));
}

// --- Semantics kept by run() and the guards ---------------------------------

TEST(ClosedFormProfileTest, RunKeepsItsFullResultAfterProfile) {
  for (const char* name : {"atax", "lu", "loops-all-mid-10k-sp"}) {
    std::unique_ptr<ir::Module> module = workloads::build(name);
    analysis::WPst wpst(*module);
    Interpreter interpreter(*module);
    interpreter.profile(wpst);
    // run() decodes the CountedNest entries as plain jumps.
    Interpreter::Result ran = interpreter.run();
    oracles::ReferenceInterpreter reference(*module);
    Interpreter::Result expected = reference.run();
    expectSameCounts(expected, ran, name);
    ASSERT_EQ(expected.returnValue.has_value(), ran.returnValue.has_value());
    for (const auto& global : module->globals()) {
      for (uint64_t i = 0; i < global->numElems(); ++i) {
        auto word = [&](const SimMemory& memory) {
          return global->elemType()->isFloat()
                     ? std::bit_cast<uint64_t>(
                           memory.readElemF64(global.get(), i))
                     : static_cast<uint64_t>(
                           memory.readElemI64(global.get(), i));
        };
        ASSERT_EQ(word(reference.memory()), word(interpreter.memory()))
            << name << ": " << global->name() << "[" << i << "]";
      }
    }
  }
}

TEST(ClosedFormProfileTest, NestEntryChecksTheCancelToken) {
  // atax runs a dozen blocks outside its two nests, far fewer than the
  // block loop's polling interval: only the nest entry sees the token.
  std::unique_ptr<ir::Module> module = workloads::build("atax");
  analysis::WPst wpst(*module);
  Interpreter interpreter(*module);
  support::CancelToken token;
  token.cancel();
  interpreter.setCancelToken(&token);
  EXPECT_THROW(interpreter.profile(wpst), support::CancelledError);
  interpreter.setCancelToken(nullptr);
  EXPECT_NO_THROW(interpreter.profile(wpst));
}

// 10^8 iterations of 10 instructions; the store feeds the branch after
// the loop, so the nest is live.
constexpr const char* kLongLiveNest = R"(module "long_live" {
global @A : i64[8]

func @main() -> i64 {
entry:
  br sum.header
sum.header:
  %i = phi i64 [ 0, entry ], [ %i.next, sum.latch ]
  %i.cond = icmp lt i64 %i, 100000000
  condbr %i.cond, sum.body, sum.exit
sum.body:
  %p = gep @A, 3, elem 8
  %v = load i64, %p
  %w = add i64 %v, %i
  store i64 %w, %p
  br sum.latch
sum.latch:
  %i.next = add i64 %i, 1
  br sum.header
sum.exit:
  %q = gep @A, 3, elem 8
  %x = load i64, %q
  %small = icmp lt i64 %x, 8
  condbr %small, then, done
then:
  br done
done:
  ret i64 0
}
}
)";

TEST(ClosedFormProfileTest, LongLiveNestIsCancellable) {
  // The nest entry sees no expired token and the run after the nest is too
  // short for a block-head poll, so only the stream's LoopStep can see the
  // deadline pass; without its poll the run would finish normally.
  std::unique_ptr<ir::Module> module = ir::parseModule(kLongLiveNest);
  ir::verifyOrThrow(*module);
  analysis::WPst wpst(*module);
  const CountedNestPlan plan(wpst);
  ASSERT_TRUE(plannedNests(plan, *module).empty());
  ASSERT_EQ(plannedNests(plan, *module, /*live=*/true).size(), 1u);
  Interpreter interpreter(*module);
  support::CancelToken token;
  token.setTimeout(0.005);
  interpreter.setCancelToken(&token);
  EXPECT_THROW(interpreter.profile(wpst), support::CancelledError);
}

TEST(ClosedFormProfileTest, LimitTripsAtTheSameBlockAsTheRun) {
  for (const char* name : {"atax", "lu", "cjpeg-rose7-preset", "cjpeg"}) {
    std::unique_ptr<ir::Module> module = workloads::build(name);
    analysis::WPst wpst(*module);
    const uint64_t total = referenceWithLimit(*module, UINT64_MAX)
                               .result.instructions;
    for (uint64_t limit : {total, total - 1, total / 2}) {
      expectSameOutcome(referenceWithLimit(*module, limit),
                        profileWithLimit(*module, wpst, limit),
                        std::string(name) + " limit " + std::to_string(limit));
    }
  }
}

constexpr const char* kStoreIntoNeighbour = R"(module "neighbour" {
global @A : i64[8]
global @B : i64[8]

func @main() -> i64 {
entry:
  br fill.header
fill.header:
  %i = phi i64 [ 0, entry ], [ %i.next, fill.latch ]
  %i.cond = icmp lt i64 %i, 16
  condbr %i.cond, fill.body, fill.exit
fill.body:
  %p = gep @A, %i, elem 8
  store i64 100, %p
  br fill.latch
fill.latch:
  %i.next = add i64 %i, 1
  br fill.header
fill.exit:
  br scan.header
scan.header:
  %k = phi i64 [ 0, fill.exit ], [ %k.next, scan.latch ]
  %k.cond = icmp lt i64 %k, 8
  condbr %k.cond, scan.body, scan.exit
scan.body:
  %q = gep @B, %k, elem 8
  %v = load i64, %q
  %small = icmp lt i64 %v, 8
  condbr %small, scan.then, scan.latch
scan.then:
  br scan.latch
scan.latch:
  %k.next = add i64 %k, 1
  br scan.header
scan.exit:
  ret i64 0
}
}
)";

TEST(ClosedFormProfileTest, StoresPastTheirArrayStillFeedTheSlice) {
  // A is 64 bytes and B follows it, so A[8..15] are B's bytes: the fill
  // loop changes what the scan branches on although it never names B.
  std::unique_ptr<ir::Module> module = ir::parseModule(kStoreIntoNeighbour);
  ir::verifyOrThrow(*module);
  analysis::WPst wpst(*module);
  const CountedNestPlan plan(wpst);
  EXPECT_TRUE(plannedNests(plan, *module).empty());
  EXPECT_EQ(plannedNests(plan, *module, /*live=*/true).size(), 1u);
  expectSameOutcome(referenceWithLimit(*module, 1'000'000),
                    profileWithLimit(*module, wpst, 1'000'000), "neighbour");
}

constexpr const char* kBoundDefinedLater = R"(module "later" {
global @A : i64[8]

func @main() -> i64 {
entry:
  br outer.header
outer.header:
  %i = phi i64 [ 0, entry ], [ %i.next, outer.latch ]
  %i.cond = icmp lt i64 %i, 4
  condbr %i.cond, outer.body, outer.exit
outer.body:
  br inner.header
inner.header:
  %j = phi i64 [ 0, outer.body ], [ %j.next, inner.latch ]
  %j.cond = icmp lt i64 %j, %bound
  condbr %j.cond, inner.body, inner.exit
inner.body:
  %p = gep @A, %j, elem 8
  store i64 %j, %p
  br inner.latch
inner.latch:
  %j.next = add i64 %j, 1
  br inner.header
inner.exit:
  br outer.latch
outer.latch:
  %bound = add i64 %i, 2
  %i.next = add i64 %i, 1
  br outer.header
outer.exit:
  ret i64 0
}
}
)";

TEST(ClosedFormProfileTest, ValuesUsedBeforeTheirDefinitionAreRejected) {
  // The inner bound is read before the outer latch defines it. The
  // structural verifier passes the module; building its analyses rejects
  // it, since the interpreter would read the previous iteration's value
  // while SCEV and the memory analysis assume SSA.
  std::unique_ptr<ir::Module> module = ir::parseModule(kBoundDefinedLater);
  ir::verifyOrThrow(*module);
  try {
    analysis::WPst wpst(*module);
    FAIL() << "a use not dominated by its definition was accepted";
  } catch (const support::DiagnosticError& e) {
    EXPECT_EQ(e.diagnostic().stage, support::Stage::Verify);
    EXPECT_NE(e.diagnostic().message.find("%bound"), std::string::npos)
        << e.diagnostic().message;
  }
}

// --- Fuzz crash corpus -------------------------------------------------------

TEST(ClosedFormProfileTest, CrashCorpusMatchesTheRun) {
  constexpr uint64_t kLimit = 1'000'000;
  size_t profiled = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(CAYMAN_CRASH_CORPUS_DIR)) {
    if (entry.path().extension() != ".cir") continue;
    std::ifstream in(entry.path());
    std::stringstream text;
    text << in.rdbuf();
    auto parsed = ir::parseModuleExpected(text.str());
    if (!parsed.ok()) continue;
    std::unique_ptr<ir::Module> module = parsed.takeValue();
    if (!ir::verifyModule(*module).empty() ||
        module->entryFunction() == nullptr) {
      continue;
    }
    const std::string what = entry.path().filename().string();
    analysis::WPst wpst(*module);
    Outcome reference = referenceWithLimit(*module, kLimit);
    Outcome profile = profileWithLimit(*module, wpst, kLimit);
    ASSERT_EQ(reference.error.has_value(), profile.error.has_value())
        << what;
    if (profile.error.has_value()) {
      // The oracle's own assertions name its source file, so the error
      // text is pinned against the decoded engine's run().
      Interpreter interpreter(*module);
      interpreter.setInstructionLimit(kLimit);
      EXPECT_EQ(outcomeOf([&] { return interpreter.run(); }).error,
                profile.error)
          << what;
    } else {
      expectSameCounts(reference.result, profile.result, what);
    }
    ++profiled;
  }
  EXPECT_GE(profiled, 3u);
}

// --- Seeded random nests -----------------------------------------------------

/// Emits a random module of counted loop nests in textual IR: affine and
/// triangular bounds, up and down counters, every form of the header test,
/// zero-trip and never-ending loops, accesses (also in headers) that may
/// leave their array or the memory image, read-modify-writes, reductions,
/// invariant arithmetic in inner loops, nests inside a loop that branches,
/// and consumers of a nest's results: a branch on its stores or on its
/// counter's exit value, a later nest bounded by that exit value, and a
/// call that passes it to a function whose loop it bounds.
class NestGenerator {
 public:
  explicit NestGenerator(uint64_t seed) : rng_(seed) {}

  std::string module() {
    const bool withCall = chance(30);
    open("entry");
    // Counters of finished top-level nests: their headers dominate the rest
    // of main, so later bounds, addresses and calls may read their exit
    // values.
    std::vector<std::string> finished;
    for (int segments = pick(1, 3); segments > 0; --segments) {
      if (chance(25)) {
        guardedNest();
        continue;
      }
      const std::string iv = nest(finished, pick(1, 3));
      finished.push_back(iv);
      if (chance(20)) branchOn(iv);
    }
    if (withCall) {
      const std::string result = fresh();
      emit(result + " = call @count(" +
           (finished.empty() ? std::string("5") : finished.back()) + ")");
      // Without the branch, only the callee's loop reads the argument.
      if (chance(50)) branchOn(result);
    }
    if (chance(50)) feed(chance(50) ? "@A" : "@B");
    emit("ret i64 0");

    std::string text =
        "module \"random_nests\" {\nglobal @A : i64[48]\nglobal @B : "
        "i64[48]\n\n";
    if (withCall) {
      // A counted loop bounded by the argument; the result is its exit
      // value.
      text +=
          "func @count(%n: i64) -> i64 {\nentry:\n  br ch\nch:\n"
          "  %j = phi i64 [ 0, entry ], [ %jn, cl ]\n"
          "  %jc = icmp lt i64 %j, %n\n  condbr %jc, cb, cx\ncb:\n"
          "  %jp = gep @B, %j, elem 8\n  store i64 %j, %jp\n  br cl\n"
          "cl:\n  %jn = add i64 %j, 1\n  br ch\ncx:\n  ret i64 %j\n}\n\n";
    }
    text += "func @main() -> i64 {\n";
    for (const auto& [name, lines] : blocks_) {
      text += name + ":\n" + lines;
    }
    return text + "}\n}\n";
  }

 private:
  int pick(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng_);
  }
  bool chance(int percent) { return pick(1, 100) <= percent; }
  std::string fresh() { return "%v" + std::to_string(values_++); }
  void open(const std::string& name) { blocks_.push_back({name, ""}); }
  const std::string& current() const { return blocks_.back().first; }
  void emit(const std::string& line) {
    blocks_.back().second += "  " + line + "\n";
  }

  /// A constant in [lo, hi], or one enclosing counter plus it.
  std::string affine(const std::vector<std::string>& ivs, int lo, int hi) {
    const std::string constant = std::to_string(pick(lo, hi));
    if (ivs.empty() || chance(40)) return constant;
    const std::string sum = fresh();
    emit(sum + " = add i64 " +
         ivs[static_cast<size_t>(pick(0, static_cast<int>(ivs.size()) - 1))] +
         ", " + constant);
    return sum;
  }

  /// A load or a store at an affine index over `ivs`; `stored` is stored
  /// when given.
  void access(const std::vector<std::string>& ivs,
              const std::optional<std::string>& stored = std::nullopt) {
    std::string index = std::to_string(pick(-2, 6));
    for (const std::string& iv : ivs) {
      const int coeff = pick(0, 3);
      if (coeff == 0) continue;
      const std::string scaled = fresh();
      emit(coeff == 2 && chance(50)
               ? scaled + " = shl i64 " + iv + ", 1"
               : scaled + " = mul i64 " + iv + ", " + std::to_string(coeff));
      const std::string sum = fresh();
      emit(sum + " = add i64 " + scaled + ", " + index);
      index = sum;
    }
    const std::string ptr = fresh();
    emit(ptr + " = gep " + (chance(50) ? "@A" : "@B") + ", " + index +
         ", elem 8");
    if (stored.has_value()) {
      emit("store i64 " + *stored + ", " + ptr);
      return;
    }
    if (chance(50)) {
      // A plain load, or one to three read-modify-writes of its element:
      // the stream must keep each store ahead of the loads after it, and
      // no load may leave the loop whose stores it reads.
      std::string loaded = fresh();
      emit(loaded + " = load i64, " + ptr);
      for (int updates = chance(50) ? pick(1, 3) : 0; updates > 0;
           --updates) {
        const std::string sum = fresh();
        emit(sum + " = add i64 " + loaded + ", " + ivs.back());
        emit("store i64 " + sum + ", " + ptr);
        if (updates > 1) {
          loaded = fresh();
          emit(loaded + " = load i64, " + ptr);
        }
      }
      return;
    }
    // Stored values are at least 98; the memory fill is below 48.
    const std::string value = fresh();
    emit(value + " = add i64 " + ivs.back() + ", 100");
    emit("store i64 " + value + ", " + ptr);
  }

  /// Pure arithmetic over the enclosing counters `outer`, stored by the
  /// current loop: invariant in it, so a live nest's stream hoists it,
  /// also out of loops that run zero times. sdiv and srem may divide by
  /// zero, which the interpreter defines.
  void invariantStore(const std::vector<std::string>& outer,
                      const std::vector<std::string>& ivs) {
    auto operand = [&] {
      if (outer.empty() || chance(30)) return std::to_string(pick(-3, 9));
      return outer[static_cast<size_t>(
          pick(0, static_cast<int>(outer.size()) - 1))];
    };
    static constexpr const char* kOps[] = {"add", "sub",  "mul", "and",
                                           "xor", "sdiv", "srem"};
    std::string value = operand();
    for (int ops = pick(1, 3); ops > 0; --ops) {
      const std::string next = fresh();
      emit(next + " = " + kOps[pick(0, 6)] + " i64 " + value + ", " +
           operand());
      value = next;
    }
    access(ivs, value);
  }

  static std::string swapped(const std::string& pred) {
    if (pred == "lt") return "gt";
    if (pred == "le") return "ge";
    if (pred == "gt") return "lt";
    return "le";
  }
  static std::string negated(const std::string& pred) {
    if (pred == "lt") return "ge";
    if (pred == "le") return "gt";
    if (pred == "gt") return "le";
    return "lt";
  }

  /// A counted nest `depth` loops deep; returns its counter.
  std::string nest(const std::vector<std::string>& ivs, int depth) {
    const std::string n = std::to_string(next_++);
    const std::string header = "h" + n, body = "b" + n, latch = "l" + n,
                      exit = "x" + n;
    const std::string iv = "%i" + n, step = "%n" + n, cond = "%c" + n;
    const bool up = chance(75);
    const std::string init = affine(ivs, up ? -2 : 3, up ? 4 : 12);
    const std::string bound = affine(ivs, up ? 0 : -3, up ? 12 : 3);
    const std::string pred =
        up ? (chance(50) ? "lt" : "le") : (chance(50) ? "gt" : "ge");
    const std::string pre = current();
    emit("br " + header);

    open(header);
    emit(iv + " = phi i64 [ " + init + ", " + pre + " ], [ " + step + ", " +
         latch + " ]");
    // A reduction carried across iterations besides the counter; an i32 one
    // wraps, so its update is an operation plus a narrowing.
    const bool reduce = chance(35);
    const bool narrow = chance(50);
    const std::string sum = "%r" + n, sumNext = "%rn" + n;
    if (reduce) {
      emit(sum + " = phi " + (narrow ? "i32" : "i64") + " [ " +
           std::to_string(pick(0, 9)) + ", " + pre + " ], [ " + sumNext +
           ", " + latch + " ]");
    }
    std::vector<std::string> inner = ivs;
    inner.push_back(iv);
    // A header access also runs with the counter's exit value.
    if (chance(15)) access(inner);
    switch (pick(0, 2)) {
      case 0:
        emit(cond + " = icmp " + pred + " i64 " + iv + ", " + bound);
        emit("condbr " + cond + ", " + body + ", " + exit);
        break;
      case 1:
        emit(cond + " = icmp " + swapped(pred) + " i64 " + bound + ", " + iv);
        emit("condbr " + cond + ", " + body + ", " + exit);
        break;
      default:
        emit(cond + " = icmp " + negated(pred) + " i64 " + iv + ", " + bound);
        emit("condbr " + cond + ", " + exit + ", " + body);
        break;
    }

    open(body);
    for (int accesses = pick(0, 2); accesses > 0; --accesses) access(inner);
    if (chance(35)) invariantStore(ivs, inner);
    if (depth > 1) {
      nest(inner, depth - 1);
      if (chance(30)) nest(inner, depth - 1);
      if (chance(30)) access(inner);
    }
    emit("br " + latch);

    // The reduction's value as an i64, for a store.
    auto wide = [&] {
      if (!narrow) return sum;
      const std::string widened = fresh();
      emit(widened + " = sext i32 " + sum + " to i64");
      return widened;
    };
    open(latch);
    if (reduce && narrow) {
      const std::string low = fresh(), added = fresh();
      emit(low + " = trunc i64 " + iv + " to i32");
      emit(added + " = add i32 " + sum + ", " + low);
      emit(sumNext + " = mul i32 " + added + ", 100003");
    } else if (reduce) {
      emit(sumNext + " = add i64 " + sum + ", " + iv);
    }
    // The old value read after the update: its copy must stay a copy.
    if (reduce && chance(50)) access(inner, wide());
    // Now and then the counter runs the wrong way and the loop never ends.
    const bool increasing = up != chance(3);
    const int stride = pick(1, 3);
    if (chance(50)) {
      emit(step + " = add i64 " + iv + ", " +
           std::to_string(increasing ? stride : -stride));
    } else {
      emit(step + " = sub i64 " + iv + ", " +
           std::to_string(increasing ? -stride : stride));
    }
    emit("br " + header);
    open(exit);
    if (reduce && chance(50)) access(inner, wide());
    return iv;
  }

  /// A loop that branches on its counter's parity and runs a nest on even
  /// iterations: the nest is entered several times, with bounds that read
  /// the outer counter.
  void guardedNest() {
    const std::string n = std::to_string(next_++);
    const std::string iv = "%g" + n, step = "%gn" + n;
    const std::string pre = current();
    emit("br gh" + n);
    open("gh" + n);
    emit(iv + " = phi i64 [ 0, " + pre + " ], [ " + step + ", gl" + n + " ]");
    emit("%gc" + n + " = icmp lt i64 " + iv + ", " +
         std::to_string(pick(1, 5)));
    emit("condbr %gc" + n + ", gb" + n + ", gx" + n);
    open("gb" + n);
    emit("%ga" + n + " = and i64 " + iv + ", 1");
    emit("%ge" + n + " = icmp eq i64 %ga" + n + ", 0");
    emit("condbr %ge" + n + ", gt" + n + ", gj" + n);
    open("gt" + n);
    nest({iv}, pick(1, 2));
    emit("br gj" + n);
    open("gj" + n);
    emit("br gl" + n);
    open("gl" + n);
    emit(step + " = add i64 " + iv + ", 1");
    emit("br gh" + n);
    open("gx" + n);
  }

  /// Branches on a nest counter's exit value.
  void branchOn(const std::string& iv) {
    const std::string n = std::to_string(next_++);
    emit("%e" + n + " = icmp lt i64 " + iv + ", " + std::to_string(pick(0, 8)));
    emit("condbr %e" + n + ", et" + n + ", ej" + n);
    open("et" + n);
    emit("br ej" + n);
    open("ej" + n);
  }

  /// Scans the first 16 elements of `array` and branches on each, on its
  /// size and on its parity: a nest storing into them changes this loop's
  /// block counts.
  void feed(const std::string& array) {
    const std::string n = std::to_string(next_++);
    const std::string pre = current();
    emit("br fh" + n);
    open("fh" + n);
    emit("%f" + n + " = phi i64 [ 0, " + pre + " ], [ %fn" + n + ", fl" + n +
         " ]");
    emit("%fc" + n + " = icmp lt i64 %f" + n + ", 16");
    emit("condbr %fc" + n + ", fb" + n + ", fx" + n);
    open("fb" + n);
    emit("%fp" + n + " = gep " + array + ", %f" + n + ", elem 8");
    emit("%fv" + n + " = load i64, %fp" + n);
    emit("%fs" + n + " = icmp lt i64 %fv" + n + ", 48");
    emit("condbr %fs" + n + ", ft" + n + ", fo" + n);
    open("ft" + n);
    emit("br fo" + n);
    open("fo" + n);
    emit("%fa" + n + " = and i64 %fv" + n + ", 1");
    emit("%fe" + n + " = icmp eq i64 %fa" + n + ", 0");
    emit("condbr %fe" + n + ", fq" + n + ", fl" + n);
    open("fq" + n);
    emit("br fl" + n);
    open("fl" + n);
    emit("%fn" + n + " = add i64 %f" + n + ", 1");
    emit("br fh" + n);
    open("fx" + n);
  }

  std::mt19937_64 rng_;
  std::vector<std::pair<std::string, std::string>> blocks_;
  int next_ = 0;
  int values_ = 0;
};

TEST(ClosedFormProfileTest, SeededRandomNestsMatchTheReferenceRun) {
  constexpr uint64_t kLimit = 200'000;
  constexpr int kCases = 600;
  int completed = 0;
  int planned = 0;  // completed runs with at least one skipped nest
  int live = 0;     // completed runs that reach a live nest
  for (int seed = 0; seed < kCases; ++seed) {
    const std::string text = NestGenerator(seed).module();
    std::unique_ptr<ir::Module> module = ir::parseModule(text);
    ASSERT_TRUE(ir::verifyModule(*module).empty()) << text;
    analysis::WPst wpst(*module);
    const std::string what = "seed " + std::to_string(seed);

    Outcome reference = referenceWithLimit(*module, kLimit);
    expectSameOutcome(reference, profileWithLimit(*module, wpst, kLimit),
                      what);
    if (::testing::Test::HasFailure()) {
      FAIL() << what << "\n" << text;
    }
    if (reference.error.has_value()) continue;
    ++completed;
    const CountedNestPlan plan(wpst);
    if (!plannedNests(plan, *module).empty()) ++planned;
    for (const NestPlan* nest : plannedNests(plan, *module, /*live=*/true)) {
      if (reference.result.countOf(nest->loops.front().header) > 0) {
        ++live;
        break;
      }
    }

    // The limit boundary is exact: a run of `total` instructions passes at
    // limit total and trips at total - 1.
    const uint64_t total = reference.result.instructions;
    for (uint64_t limit : {total, total - 1}) {
      expectSameOutcome(referenceWithLimit(*module, limit),
                        profileWithLimit(*module, wpst, limit),
                        what + " limit " + std::to_string(limit));
    }
    if (::testing::Test::HasFailure()) {
      FAIL() << what << "\n" << text;
    }
  }
  // Enough of the cases exercise the closed form, not just the fallback.
  EXPECT_GE(completed, kCases / 4);
  EXPECT_GE(planned, kCases / 8);
  EXPECT_GE(live, kCases / 8);
  std::printf("random nests: %d of %d ran to completion, %d with a skipped "
              "nest, %d reaching a live nest\n",
              completed, kCases, planned, live);
}

}  // namespace
}  // namespace cayman::sim
