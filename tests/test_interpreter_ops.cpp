// Table-driven semantics tests: every arithmetic / comparison / conversion
// opcode is executed through a one-instruction function and checked against
// the host's reference arithmetic.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <span>

#include "ir/builder.h"
#include "oracles/interpreter.h"
#include "sim/interpreter.h"

namespace cayman::sim {
namespace {

/// Runs `fn` through the interpreter and its reference oracle and checks
/// that their results agree bit for bit: cycles, instruction count and the
/// typed return value.
Interpreter::Result runBoth(const ir::Module& m, const ir::Function& fn,
                            std::span<const int64_t> args = {}) {
  Interpreter::Result decoded = Interpreter(m).runFunction(fn, args);
  Interpreter::Result reference =
      oracles::ReferenceInterpreter(m).runFunction(fn, args);
  EXPECT_EQ(std::bit_cast<uint64_t>(decoded.totalCycles),
            std::bit_cast<uint64_t>(reference.totalCycles))
      << fn.name();
  EXPECT_EQ(decoded.instructions, reference.instructions) << fn.name();
  EXPECT_EQ(decoded.returnValue.has_value(), reference.returnValue.has_value())
      << fn.name();
  if (decoded.returnValue.has_value() && reference.returnValue.has_value()) {
    EXPECT_EQ(decoded.returnValue->i, reference.returnValue->i) << fn.name();
    EXPECT_EQ(std::bit_cast<uint64_t>(decoded.returnValue->f),
              std::bit_cast<uint64_t>(reference.returnValue->f))
        << fn.name();
  }
  return decoded;
}

/// Runs `op(a, b)` on integer operands of `type` (i64 by default) through
/// the interpreter and its oracle, which must agree, and returns the result.
int64_t evalInt(ir::Opcode op, int64_t a, int64_t b,
                const ir::Type* type = ir::Type::i64()) {
  ir::Module m("op");
  ir::Function* f = m.addFunction("f", type, {{type, "a"}, {type, "b"}});
  ir::BasicBlock* entry = f->addBlock("entry");
  ir::Instruction* raw = entry->append(std::make_unique<ir::Instruction>(
      op, type, std::vector<ir::Value*>{f->argument(0), f->argument(1)},
      "r"));
  ir::IRBuilder builder(&m);
  builder.setInsertPoint(entry);
  builder.ret(raw);
  int64_t args[] = {a, b};
  return runBoth(m, *f, args).returnValue->i;
}

/// Runs `fop(a, b)` on f64 operands (passed via globals to keep every bit)
/// through the interpreter and its oracle, checks that they store the same
/// bits, and returns the interpreter's result.
double evalF64(ir::Opcode op, double a, double b, bool unary = false) {
  ir::Module m("fop");
  auto* in = m.addGlobal("in", ir::Type::f64(), 2);
  in->setInit({a, b});
  auto* out = m.addGlobal("out", ir::Type::f64(), 1);
  ir::Function* f = m.addFunction("main", ir::Type::voidTy(), {});
  ir::BasicBlock* entry = f->addBlock("entry");
  ir::IRBuilder builder(&m);
  builder.setInsertPoint(entry);
  ir::Value* va =
      builder.load(ir::Type::f64(), builder.gep(in, builder.i64(0),
                                                ir::Type::f64()));
  ir::Value* vb =
      builder.load(ir::Type::f64(), builder.gep(in, builder.i64(1),
                                                ir::Type::f64()));
  std::vector<ir::Value*> operands{va};
  if (!unary) operands.push_back(vb);
  auto inst = std::make_unique<ir::Instruction>(op, ir::Type::f64(),
                                                operands, "r");
  ir::Instruction* raw = entry->append(std::move(inst));
  builder.store(raw, builder.gep(out, builder.i64(0), ir::Type::f64()));
  builder.ret();
  Interpreter interp(m);
  interp.run();
  double decoded = interp.memory().readElemF64(out, 0);
  oracles::ReferenceInterpreter oracle(m);
  oracle.run();
  double reference = oracle.memory().readElemF64(out, 0);
  EXPECT_EQ(std::bit_cast<uint64_t>(decoded),
            std::bit_cast<uint64_t>(reference))
      << ir::opcodeSpelling(op) << "(" << a << ", " << b
      << "): decoded vs reference engine";
  return decoded;
}

struct IntCase {
  ir::Opcode op;
  int64_t a, b, expected;
  const ir::Type* type = ir::Type::i64();
};

class IntOpTest : public ::testing::TestWithParam<IntCase> {};

TEST_P(IntOpTest, MatchesReference) {
  const IntCase& c = GetParam();
  EXPECT_EQ(evalInt(c.op, c.a, c.b, c.type), c.expected)
      << ir::opcodeSpelling(c.op) << "(" << c.a << ", " << c.b << ")";
}

INSTANTIATE_TEST_SUITE_P(
    Arithmetic, IntOpTest,
    ::testing::Values(
        IntCase{ir::Opcode::Add, 40, 2, 42},
        IntCase{ir::Opcode::Add, -5, 3, -2},
        IntCase{ir::Opcode::Sub, 10, 25, -15},
        IntCase{ir::Opcode::Mul, -6, 7, -42},
        IntCase{ir::Opcode::SDiv, 42, 5, 8},
        IntCase{ir::Opcode::SDiv, -42, 5, -8},
        IntCase{ir::Opcode::SDiv, 42, 0, 0},  // guarded: no trap
        // INT64_MIN / -1 overflows in C++; the interpreter defines it as the
        // two's-complement wrap (and the remainder as 0), so UBSan stays
        // quiet and results are deterministic.
        IntCase{ir::Opcode::SDiv, std::numeric_limits<int64_t>::min(), -1,
                std::numeric_limits<int64_t>::min()},
        IntCase{ir::Opcode::SRem, std::numeric_limits<int64_t>::min(), -1, 0},
        IntCase{ir::Opcode::SRem, 42, 5, 2},
        IntCase{ir::Opcode::SRem, 7, 0, 0},
        IntCase{ir::Opcode::And, 0b1100, 0b1010, 0b1000},
        IntCase{ir::Opcode::Or, 0b1100, 0b1010, 0b1110},
        IntCase{ir::Opcode::Xor, 0b1100, 0b1010, 0b0110},
        IntCase{ir::Opcode::Shl, 3, 4, 48},
        IntCase{ir::Opcode::AShr, -16, 2, -4},
        IntCase{ir::Opcode::LShr, -1, 60, 15}));

// The decoded engine computes in 64 bits and wraps i1/i32 results with a
// separate Trunc micro-op; the reference wraps inside each op.
INSTANTIATE_TEST_SUITE_P(
    NarrowWrap, IntOpTest,
    ::testing::Values(
        IntCase{ir::Opcode::Add, 0x7FFFFFFF, 1, -0x80000000LL,
                ir::Type::i32()},
        IntCase{ir::Opcode::Sub, -0x80000000LL, 1, 0x7FFFFFFF,
                ir::Type::i32()},
        IntCase{ir::Opcode::Mul, 0x10000, 0x10000, 0, ir::Type::i32()},
        IntCase{ir::Opcode::Shl, 1, 31, -0x80000000LL, ir::Type::i32()},
        IntCase{ir::Opcode::SDiv, -0x80000000LL, -1, -0x80000000LL,
                ir::Type::i32()},
        IntCase{ir::Opcode::SRem, 7, -3, 1, ir::Type::i32()},
        IntCase{ir::Opcode::Add, 1, 1, 0, ir::Type::i1()},
        IntCase{ir::Opcode::Mul, 1, 1, 1, ir::Type::i1()}));

struct FloatCase {
  ir::Opcode op;
  double a, b, expected;
  bool unary = false;
};

class FloatOpTest : public ::testing::TestWithParam<FloatCase> {};

TEST_P(FloatOpTest, MatchesReference) {
  const FloatCase& c = GetParam();
  double result = evalF64(c.op, c.a, c.b, c.unary);
  // IEEE 754 leaves an arithmetic NaN's payload to the hardware, so a NaN
  // expectation pins only NaN-ness; everything else (signed zeros, the
  // sign-bit ops on NaNs) must match bit for bit.
  if (std::isnan(c.expected) && c.op != ir::Opcode::FNeg &&
      c.op != ir::Opcode::FAbs) {
    EXPECT_TRUE(std::isnan(result)) << ir::opcodeSpelling(c.op);
  } else {
    EXPECT_EQ(std::bit_cast<uint64_t>(result),
              std::bit_cast<uint64_t>(c.expected))
        << ir::opcodeSpelling(c.op) << ": " << result << " vs " << c.expected;
  }
}

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
/// A quiet NaN with a nonzero payload.
const double kNanPayload = std::bit_cast<double>(uint64_t{0x7FF8000000000123});
const double kNegNanPayload =
    std::bit_cast<double>(uint64_t{0xFFF8000000000123});

INSTANTIATE_TEST_SUITE_P(
    Arithmetic, FloatOpTest,
    ::testing::Values(
        FloatCase{ir::Opcode::FAdd, 1.5, 2.25, 3.75},
        FloatCase{ir::Opcode::FSub, 1.0, 0.75, 0.25},
        FloatCase{ir::Opcode::FMul, -2.0, 3.5, -7.0},
        FloatCase{ir::Opcode::FDiv, 1.0, 4.0, 0.25},
        FloatCase{ir::Opcode::FMin, 2.0, -3.0, -3.0},
        FloatCase{ir::Opcode::FMax, 2.0, -3.0, 2.0},
        FloatCase{ir::Opcode::FNeg, 2.5, 0.0, -2.5, true},
        FloatCase{ir::Opcode::FAbs, -2.5, 0.0, 2.5, true},
        FloatCase{ir::Opcode::FSqrt, 9.0, 0.0, 3.0, true}));

INSTANTIATE_TEST_SUITE_P(
    SpecialValues, FloatOpTest,
    ::testing::Values(
        FloatCase{ir::Opcode::FAdd, -0.0, -0.0, -0.0},
        FloatCase{ir::Opcode::FAdd, -0.0, 0.0, 0.0},
        FloatCase{ir::Opcode::FAdd, kInf, 1.0, kInf},
        FloatCase{ir::Opcode::FAdd, -kInf, -kInf, -kInf},
        FloatCase{ir::Opcode::FAdd, kInf, -kInf, kNan},
        FloatCase{ir::Opcode::FAdd, kNanPayload, 1.0, kNan},
        FloatCase{ir::Opcode::FMin, kNanPayload, 1.0, 1.0},
        FloatCase{ir::Opcode::FMin, -kInf, 0.0, -kInf},
        FloatCase{ir::Opcode::FMin, -0.0, -0.0, -0.0},
        FloatCase{ir::Opcode::FMax, 2.0, kNanPayload, 2.0},
        FloatCase{ir::Opcode::FMax, kInf, -1.0, kInf},
        FloatCase{ir::Opcode::FMax, -0.0, -0.0, -0.0},
        FloatCase{ir::Opcode::FNeg, 0.0, 0.0, -0.0, true},
        FloatCase{ir::Opcode::FNeg, -0.0, 0.0, 0.0, true},
        FloatCase{ir::Opcode::FNeg, kInf, 0.0, -kInf, true},
        FloatCase{ir::Opcode::FNeg, kNanPayload, 0.0, kNegNanPayload, true},
        FloatCase{ir::Opcode::FAbs, -0.0, 0.0, 0.0, true},
        FloatCase{ir::Opcode::FAbs, -kInf, 0.0, kInf, true},
        FloatCase{ir::Opcode::FAbs, kNegNanPayload, 0.0, kNanPayload, true}));

TEST(CmpOpTest, IntegerPredicates) {
  ir::Module m("cmp");
  ir::Function* f = m.addFunction(
      "f", ir::Type::i64(), {{ir::Type::i64(), "a"}, {ir::Type::i64(), "b"}});
  ir::BasicBlock* entry = f->addBlock("entry");
  ir::IRBuilder b(&m);
  b.setInsertPoint(entry);
  ir::Value* cmp = b.icmp(ir::CmpPred::LT, f->argument(0), f->argument(1));
  b.ret(b.zext(cmp, ir::Type::i64()));
  Interpreter interp(m);
  {
    int64_t args[] = {1, 2};
    EXPECT_EQ(interp.runFunction(*f, args).returnValue->i, 1);
  }
  {
    int64_t args[] = {2, 2};
    EXPECT_EQ(interp.runFunction(*f, args).returnValue->i, 0);
  }
  {
    int64_t args[] = {-5, 2};
    EXPECT_EQ(interp.runFunction(*f, args).returnValue->i, 1);
  }
}

TEST(ConversionTest, RoundTripsAndTruncation) {
  ir::Module m("conv");
  ir::Function* f =
      m.addFunction("f", ir::Type::i64(), {{ir::Type::i64(), "a"}});
  ir::BasicBlock* entry = f->addBlock("entry");
  ir::IRBuilder b(&m);
  b.setInsertPoint(entry);
  // i64 -> f64 -> scaled -> i64.
  ir::Value* asF = b.sitofp(f->argument(0), ir::Type::f64());
  ir::Value* scaled = b.fmul(asF, b.f64(0.5));
  b.ret(b.fptosi(scaled, ir::Type::i64()));
  Interpreter interp(m);
  int64_t args[] = {9};
  EXPECT_EQ(interp.runFunction(*f, args).returnValue->i, 4);  // trunc toward 0
}

struct FPToSICase {
  double value;
  const ir::Type* to;
  int64_t expected;
};

class FPToSITest : public ::testing::TestWithParam<FPToSICase> {};

// fptosi of NaN, +-inf or anything outside [-2^63, 2^63) is undefined in
// C++; both engines define it as INT64_MIN (what x86 cvttsd2si returns)
// before wrapping to the destination width, which leaves 0 for i32.
TEST_P(FPToSITest, OutOfRangeIsDefinedAndEnginesAgree) {
  const FPToSICase& c = GetParam();
  ir::Module m("fptosi");
  ir::Function* f = m.addFunction("f", c.to, {});
  ir::IRBuilder b(&m);
  b.setInsertPoint(f->addBlock("entry"));
  b.ret(b.fptosi(b.f64(c.value), c.to));
  Interpreter::Result result = runBoth(m, *f);
  ASSERT_TRUE(result.returnValue.has_value());
  EXPECT_EQ(result.returnValue->i, c.expected)
      << c.value << " to " << c.to->spelling();
}

constexpr int64_t kMinI64 = std::numeric_limits<int64_t>::min();

INSTANTIATE_TEST_SUITE_P(
    SpecialValues, FPToSITest,
    ::testing::Values(
        FPToSICase{kNan, ir::Type::i64(), kMinI64},
        FPToSICase{kNan, ir::Type::i32(), 0},
        FPToSICase{kInf, ir::Type::i64(), kMinI64},
        FPToSICase{kInf, ir::Type::i32(), 0},
        FPToSICase{-kInf, ir::Type::i64(), kMinI64},
        FPToSICase{-kInf, ir::Type::i32(), 0},
        FPToSICase{1e30, ir::Type::i64(), kMinI64},
        FPToSICase{1e30, ir::Type::i32(), 0},
        FPToSICase{-1e30, ir::Type::i64(), kMinI64},
        FPToSICase{-1e30, ir::Type::i32(), 0},
        FPToSICase{-0x1p63, ir::Type::i64(), kMinI64},
        FPToSICase{-0x1p63, ir::Type::i32(), 0},
        FPToSICase{-2.75, ir::Type::i64(), -2},
        FPToSICase{4294967301.0, ir::Type::i32(), 5}));

TEST(ConversionTest, TruncAndExtWrapCorrectly) {
  ir::Module m("tw");
  ir::Function* f =
      m.addFunction("f", ir::Type::i64(), {{ir::Type::i64(), "a"}});
  ir::BasicBlock* entry = f->addBlock("entry");
  ir::IRBuilder b(&m);
  b.setInsertPoint(entry);
  ir::Value* narrow = b.trunc(f->argument(0), ir::Type::i32());
  b.ret(b.sext(narrow, ir::Type::i64()));
  Interpreter interp(m);
  // 2^32 + 5 truncates to 5; -1 stays -1 (sign extension).
  {
    int64_t args[] = {(int64_t{1} << 32) + 5};
    EXPECT_EQ(interp.runFunction(*f, args).returnValue->i, 5);
  }
  {
    int64_t args[] = {-1};
    EXPECT_EQ(interp.runFunction(*f, args).returnValue->i, -1);
  }
}

TEST(SelectTest, PicksByCondition) {
  EXPECT_EQ(evalInt(ir::Opcode::Add, 1, 1), 2);  // sanity
  ir::Module m("sel");
  ir::Function* f = m.addFunction(
      "f", ir::Type::i64(), {{ir::Type::i64(), "a"}, {ir::Type::i64(), "b"}});
  ir::BasicBlock* entry = f->addBlock("entry");
  ir::IRBuilder b(&m);
  b.setInsertPoint(entry);
  ir::Value* bigger = b.select(
      b.icmp(ir::CmpPred::GT, f->argument(0), f->argument(1)),
      f->argument(0), f->argument(1), "max");
  b.ret(bigger);
  Interpreter interp(m);
  {
    int64_t args[] = {3, 8};
    EXPECT_EQ(interp.runFunction(*f, args).returnValue->i, 8);
  }
  {
    int64_t args[] = {9, -4};
    EXPECT_EQ(interp.runFunction(*f, args).returnValue->i, 9);
  }
}

// The decoded engine keeps one untyped 8-byte word per value. These cases
// cover the places where a word could lose its type: floats crossing a call,
// select on floats, narrow memory round trips, and the constant pool.

TEST(WordFrameTest, FloatArgumentsAndReturnCrossCalls) {
  ir::Module m("fcall");
  ir::Function* g = m.addFunction(
      "g", ir::Type::f64(),
      {{ir::Type::f64(), "x"}, {ir::Type::i64(), "n"}, {ir::Type::f64(), "y"}});
  ir::IRBuilder b(&m);
  b.setInsertPoint(g->addBlock("entry"));
  b.ret(b.fadd(b.fmul(g->argument(0), b.sitofp(g->argument(1),
                                                ir::Type::f64())),
               g->argument(2)));
  ir::Function* f =
      m.addFunction("f", ir::Type::f64(), {{ir::Type::i64(), "a"}});
  b.setInsertPoint(f->addBlock("entry"));
  ir::Value* x = b.fdiv(b.sitofp(f->argument(0), ir::Type::f64()), b.f64(4.0));
  b.ret(b.call(g, {x, f->argument(0), b.f64(-0.0)}));
  {
    int64_t args[] = {-3};  // (-3/4) * -3 + -0.0
    Interpreter::Result r = runBoth(m, *f, args);
    ASSERT_TRUE(r.returnValue.has_value());
    EXPECT_EQ(r.returnValue->i, 0);
    EXPECT_EQ(std::bit_cast<uint64_t>(r.returnValue->f),
              std::bit_cast<uint64_t>(2.25));
  }
  {
    int64_t args[] = {0};  // +0.0 * 0 + -0.0 keeps +0.0
    Interpreter::Result r = runBoth(m, *f, args);
    EXPECT_EQ(std::bit_cast<uint64_t>(r.returnValue->f),
              std::bit_cast<uint64_t>(0.0));
  }
  {
    // Integer arguments convert to the callee's f64 parameters.
    int64_t args[] = {5, 2, -1};
    Interpreter::Result r = runBoth(m, *g, args);
    EXPECT_EQ(std::bit_cast<uint64_t>(r.returnValue->f),
              std::bit_cast<uint64_t>(9.0));
  }
}

TEST(WordFrameTest, SelectOnFloats) {
  ir::Module m("fsel");
  ir::Function* f = m.addFunction(
      "f", ir::Type::f64(), {{ir::Type::i64(), "a"}, {ir::Type::i64(), "b"}});
  ir::IRBuilder b(&m);
  b.setInsertPoint(f->addBlock("entry"));
  ir::Value* fa = b.fmul(b.sitofp(f->argument(0), ir::Type::f64()),
                         b.f64(0.5));
  b.ret(b.select(b.icmp(ir::CmpPred::LT, f->argument(0), f->argument(1)), fa,
                 b.f64(-0.0)));
  {
    int64_t args[] = {3, 8};
    Interpreter::Result r = runBoth(m, *f, args);
    EXPECT_EQ(std::bit_cast<uint64_t>(r.returnValue->f),
              std::bit_cast<uint64_t>(1.5));
  }
  {
    int64_t args[] = {8, 3};
    Interpreter::Result r = runBoth(m, *f, args);
    EXPECT_EQ(r.returnValue->i, 0);
    EXPECT_EQ(std::bit_cast<uint64_t>(r.returnValue->f),
              std::bit_cast<uint64_t>(-0.0));
  }
}

TEST(WordFrameTest, I1StoreLoadRoundTrip) {
  ir::Module m("i1mem");
  auto* flags = m.addGlobal("flags", ir::Type::i1(), 2);
  ir::Function* f = m.addFunction(
      "f", ir::Type::i64(), {{ir::Type::i64(), "a"}, {ir::Type::i64(), "b"}});
  ir::IRBuilder b(&m);
  b.setInsertPoint(f->addBlock("entry"));
  ir::Value* p0 = b.gep(flags, b.i64(0), ir::Type::i1());
  ir::Value* p1 = b.gep(flags, b.i64(1), ir::Type::i1());
  b.store(b.icmp(ir::CmpPred::LT, f->argument(0), f->argument(1)), p0);
  b.store(b.icmp(ir::CmpPred::GE, f->argument(0), f->argument(1)), p1);
  ir::Value* lt = b.zext(b.load(ir::Type::i1(), p0), ir::Type::i64());
  ir::Value* ge = b.zext(b.load(ir::Type::i1(), p1), ir::Type::i64());
  b.ret(b.add(b.mul(lt, b.i64(10)), ge));
  {
    int64_t args[] = {1, 2};
    EXPECT_EQ(runBoth(m, *f, args).returnValue->i, 10);
  }
  {
    int64_t args[] = {2, 1};
    EXPECT_EQ(runBoth(m, *f, args).returnValue->i, 1);
  }
}

TEST(WordFrameTest, F32StoreLoadRoundTripRoundsToFloat) {
  ir::Module m("f32mem");
  auto* cell = m.addGlobal("cell", ir::Type::f32(), 1);
  ir::Function* f =
      m.addFunction("f", ir::Type::f32(), {{ir::Type::i64(), "a"}});
  ir::IRBuilder b(&m);
  b.setInsertPoint(f->addBlock("entry"));
  // f32 values compute in double precision; only the store rounds.
  ir::Value* v = b.fmul(b.sitofp(f->argument(0), ir::Type::f32()),
                        m.constFP(ir::Type::f32(), 0.1));
  ir::Value* p = b.gep(cell, b.i64(0), ir::Type::f32());
  b.store(v, p);
  b.ret(b.load(ir::Type::f32(), p));
  int64_t args[] = {3};
  Interpreter::Result r = runBoth(m, *f, args);
  ASSERT_TRUE(r.returnValue.has_value());
  EXPECT_EQ(r.returnValue->i, 0);
  EXPECT_EQ(std::bit_cast<uint64_t>(r.returnValue->f),
            std::bit_cast<uint64_t>(
                static_cast<double>(static_cast<float>(3 * 0.1))));
}

TEST(WordFrameTest, ZeroConstantsShareOrSplitPoolWords) {
  ir::Module m("zeros");
  ir::Function* f =
      m.addFunction("f", ir::Type::f64(), {{ir::Type::i64(), "a"}});
  ir::IRBuilder b(&m);
  b.setInsertPoint(f->addBlock("entry"));
  ir::Value* same = b.add(f->argument(0), b.i64(0));
  ir::Value* zero = b.fmul(b.sitofp(same, ir::Type::f64()), b.f64(0.0));
  b.ret(b.fadd(zero, b.f64(-0.0)));
  // i64 0 and f64 0.0 are both the all-zero word; f64 -0.0 is not.
  Interpreter interp(m);
  EXPECT_EQ(interp.predecodeAll().constants, 2u);
  {
    int64_t args[] = {-3};  // -3 * 0.0 = -0.0; -0.0 + -0.0 = -0.0
    EXPECT_EQ(std::bit_cast<uint64_t>(runBoth(m, *f, args).returnValue->f),
              std::bit_cast<uint64_t>(-0.0));
  }
  {
    int64_t args[] = {3};  // 3 * 0.0 = +0.0; +0.0 + -0.0 = +0.0
    EXPECT_EQ(std::bit_cast<uint64_t>(runBoth(m, *f, args).returnValue->f),
              std::bit_cast<uint64_t>(0.0));
  }
}

}  // namespace
}  // namespace cayman::sim
