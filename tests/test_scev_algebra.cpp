// Affine (SCEV-lite) algebra tests: linear-form construction through adds,
// subs, scales, shifts, extensions, and deep GEP chains.
#include <gtest/gtest.h>

#include "analysis/regions.h"
#include "ir/verifier.h"
#include "workloads/kernel_builder.h"

namespace cayman::analysis {
namespace {

using workloads::KernelBuilder;

/// Builds a single loop and hands the body builder to `emit`, which returns
/// the integer value whose affine form the test inspects.
struct LoopFixture {
  LoopFixture() : module(std::make_unique<ir::Module>("scev")),
                  kb(module.get()) {
    array = module->addGlobal("a", ir::Type::f64(), 4096);
    kb.beginFunction("main", ir::Type::voidTy(), {{ir::Type::i64(), "n"}});
    iv = kb.beginLoop(0, 64, "i");
  }

  /// Finishes construction and analyzes `value`.
  Affine analyze(ir::Value* value) {
    // Keep the value alive through a store so DCE-ish checks don't matter.
    kb.storeAt(array, kb.ir().and_(value, kb.ir().i64(4095)), kb.ir().f64(1));
    kb.endLoop();
    kb.endFunction();
    ir::verifyOrThrow(*module);
    fa = std::make_unique<FunctionAnalyses>(*module->entryFunction());
    scev = std::make_unique<ScalarEvolution>(*module->entryFunction(), *fa);
    loop = fa->loops.topLevelLoops()[0];
    return scev->analyze(value);
  }

  std::unique_ptr<ir::Module> module;
  KernelBuilder kb;
  ir::GlobalArray* array = nullptr;
  ir::Value* iv = nullptr;
  std::unique_ptr<FunctionAnalyses> fa;
  std::unique_ptr<ScalarEvolution> scev;
  const Loop* loop = nullptr;
};

TEST(AffineTest, ConstantsFold) {
  LoopFixture fx;
  ir::Value* v = fx.kb.ir().add(fx.kb.ir().i64(10),
                                fx.kb.ir().mul(fx.kb.ir().i64(3),
                                               fx.kb.ir().i64(4)));
  Affine form = fx.analyze(v);
  ASSERT_TRUE(form.valid);
  EXPECT_EQ(form.constant, 22);
  EXPECT_TRUE(form.terms.empty());
}

TEST(AffineTest, LinearInIv) {
  LoopFixture fx;
  // 5*i + 7
  ir::Value* v = fx.kb.ir().add(fx.kb.ir().mul(fx.iv, fx.kb.ir().i64(5)),
                                fx.kb.ir().i64(7));
  Affine form = fx.analyze(v);
  ASSERT_TRUE(form.valid);
  EXPECT_EQ(form.constant, 7);
  EXPECT_EQ(form.coeffForLoop(fx.loop), 5);
}

TEST(AffineTest, SubtractionAndCancellation) {
  LoopFixture fx;
  // (3i + 4) - (3i + 1) = 3 : IV terms cancel exactly.
  ir::Value* a = fx.kb.ir().add(fx.kb.ir().mul(fx.iv, fx.kb.ir().i64(3)),
                                fx.kb.ir().i64(4));
  ir::Value* b = fx.kb.ir().add(fx.kb.ir().mul(fx.iv, fx.kb.ir().i64(3)),
                                fx.kb.ir().i64(1));
  Affine form = fx.analyze(fx.kb.ir().sub(a, b));
  ASSERT_TRUE(form.valid);
  EXPECT_EQ(form.constant, 3);
  EXPECT_TRUE(form.terms.empty());
}

TEST(AffineTest, ShiftIsScale) {
  LoopFixture fx;
  ir::Value* v = fx.kb.ir().shl(fx.iv, fx.kb.ir().i64(3));  // i * 8
  Affine form = fx.analyze(v);
  ASSERT_TRUE(form.valid);
  EXPECT_EQ(form.coeffForLoop(fx.loop), 8);
}

TEST(AffineTest, ArgumentIsSymbol) {
  LoopFixture fx;
  ir::Function* f = fx.module->functionByName("main");
  ir::Value* v = fx.kb.ir().add(fx.iv, f->argument(0));  // i + n
  Affine form = fx.analyze(v);
  ASSERT_TRUE(form.valid);
  EXPECT_EQ(form.coeffForLoop(fx.loop), 1);
  EXPECT_EQ(form.terms.count(f->argument(0)), 1u);
  // n is invariant in the loop -> still a stream.
  EXPECT_TRUE(form.isStreamIn(fx.loop));
}

TEST(AffineTest, ProductOfTwoVariablesIsOpaque) {
  LoopFixture fx;
  ir::Function* f = fx.module->functionByName("main");
  ir::Value* v = fx.kb.ir().mul(fx.iv, f->argument(0));  // i * n: not affine
  Affine form = fx.analyze(v);
  // Falls back to an opaque symbol (the mul itself), still "valid" as a
  // 1-term linear form but with the product as the symbol.
  ASSERT_TRUE(form.valid);
  EXPECT_EQ(form.terms.size(), 1u);
  EXPECT_EQ(form.coeffForLoop(fx.loop), 0);
  // The mul is computed inside the loop -> not a stream.
  EXPECT_FALSE(form.isStreamIn(fx.loop));
}

TEST(AffineTest, LoadResultIsLoopVaryingSymbol) {
  LoopFixture fx;
  ir::GlobalArray* idx = fx.module->addGlobal("idx", ir::Type::i64(), 64);
  ir::Value* loaded = fx.kb.loadAt(idx, fx.iv);
  Affine form = fx.analyze(loaded);
  ASSERT_TRUE(form.valid);
  EXPECT_FALSE(form.isStreamIn(fx.loop));  // indirect index
}

TEST(AddressTest, ChainedGepsAccumulate) {
  auto module = std::make_unique<ir::Module>("geps");
  auto* a = module->addGlobal("a", ir::Type::f64(), 1024);
  KernelBuilder kb(module.get());
  kb.beginFunction("main");
  ir::Value* i = kb.beginLoop(0, 16, "i");
  // &a[0] + i*8 elems, then + 3 elems: address = base + 64i + 24 bytes.
  ir::Value* p1 = kb.ir().gep(a, kb.ir().mul(i, kb.ir().i64(8)),
                              ir::Type::f64());
  ir::Value* p2 = kb.ir().gep(p1, kb.ir().i64(3), ir::Type::f64());
  ir::Value* v = kb.ir().load(ir::Type::f64(), p2);
  kb.storeAt(a, i, v);
  kb.endLoop();
  kb.endFunction();
  ir::verifyOrThrow(*module);

  const ir::Function* f = module->entryFunction();
  FunctionAnalyses fa(*f);
  ScalarEvolution scev(*f, fa);
  const ir::Instruction* load = nullptr;
  for (const auto& block : f->blocks()) {
    for (const auto& inst : block->instructions()) {
      if (inst->opcode() == ir::Opcode::Load) load = inst.get();
    }
  }
  ASSERT_NE(load, nullptr);
  AddressInfo info = scev.addressOf(load);
  ASSERT_TRUE(info.valid);
  EXPECT_EQ(info.base, a);
  EXPECT_EQ(info.offset.constant, 24);
  EXPECT_EQ(info.offset.coeffForLoop(fa.loops.topLevelLoops()[0]), 64);
}

TEST(AddressTest, NegativeStrides) {
  auto module = std::make_unique<ir::Module>("revwalk");
  auto* a = module->addGlobal("a", ir::Type::f64(), 64);
  KernelBuilder kb(module.get());
  kb.beginFunction("main");
  ir::Value* i = kb.beginLoop(0, 64, "i");
  ir::Value* rev = kb.ir().sub(kb.ir().i64(63), i, "rev");
  ir::Value* v = kb.loadAt(a, rev);
  kb.storeAt(a, rev, kb.ir().fmul(v, kb.ir().f64(2.0)));
  kb.endLoop();
  kb.endFunction();
  ir::verifyOrThrow(*module);

  const ir::Function* f = module->entryFunction();
  FunctionAnalyses fa(*f);
  ScalarEvolution scev(*f, fa);
  const ir::Instruction* load = nullptr;
  for (const auto& block : f->blocks()) {
    for (const auto& inst : block->instructions()) {
      if (inst->opcode() == ir::Opcode::Load) load = inst.get();
    }
  }
  AddressInfo info = scev.addressOf(load);
  ASSERT_TRUE(info.valid);
  EXPECT_EQ(info.offset.coeffForLoop(fa.loops.topLevelLoops()[0]), -8);
  EXPECT_EQ(info.offset.constant, 63 * 8);
  EXPECT_TRUE(info.offset.isStreamIn(fa.loops.topLevelLoops()[0]));
}

TEST(IvTest, NegativeStepInduction) {
  auto module = std::make_unique<ir::Module>("countdown");
  auto* out = module->addGlobal("out", ir::Type::i64(), 64);
  KernelBuilder kb(module.get());
  kb.beginFunction("main");
  // Hand-rolled countdown: for (i = 63; i > 0; i -= 2).
  ir::Function* f = module->functionByName("main");
  ir::BasicBlock* entry = kb.ir().insertBlock();
  ir::BasicBlock* header = f->addBlock("header");
  ir::BasicBlock* body = f->addBlock("body");
  ir::BasicBlock* latch = f->addBlock("latch");
  ir::BasicBlock* exit = f->addBlock("exit");
  kb.ir().br(header);
  kb.ir().setInsertPoint(header);
  ir::Instruction* iv = kb.ir().phi(ir::Type::i64(), "i");
  iv->addIncoming(kb.ir().i64(63), entry);
  kb.ir().condBr(kb.ir().icmp(ir::CmpPred::GT, iv, kb.ir().i64(0)), body,
                 exit);
  kb.ir().setInsertPoint(body);
  kb.storeAt(out, iv, iv);
  kb.ir().br(latch);
  kb.ir().setInsertPoint(latch);
  ir::Value* next = kb.ir().sub(iv, kb.ir().i64(2), "i.next");
  kb.ir().br(header);
  iv->addIncoming(next, latch);
  kb.ir().setInsertPoint(exit);
  kb.ir().ret();
  ir::verifyOrThrow(*module);

  const ir::Function* fn = module->entryFunction();
  FunctionAnalyses fa(*fn);
  ScalarEvolution scev(*fn, fa);
  const Loop* loop = fa.loops.topLevelLoops()[0];
  auto ivs = scev.inductionVars(loop);
  ASSERT_EQ(ivs.size(), 1u);
  EXPECT_EQ(ivs[0]->step, -2);
  TripCount trip = scev.tripCount(loop);
  ASSERT_TRUE(trip.known);
  EXPECT_EQ(trip.value, 32u);  // 63, 61, ..., 1
}

/// for (i = 0; ; ++i) { if (icmp pred i, 10) break; body } — the header's
/// true successor leaves the loop.
TripCount exitOnTrueTripCount(ir::CmpPred pred) {
  auto module = std::make_unique<ir::Module>("exit_on_true");
  auto* out = module->addGlobal("out", ir::Type::i64(), 16);
  KernelBuilder kb(module.get());
  kb.beginFunction("main");
  ir::Function* f = module->functionByName("main");
  ir::BasicBlock* entry = kb.ir().insertBlock();
  ir::BasicBlock* header = f->addBlock("header");
  ir::BasicBlock* body = f->addBlock("body");
  ir::BasicBlock* exit = f->addBlock("exit");
  kb.ir().br(header);
  kb.ir().setInsertPoint(header);
  ir::Instruction* iv = kb.ir().phi(ir::Type::i64(), "i");
  iv->addIncoming(kb.ir().i64(0), entry);
  kb.ir().condBr(kb.ir().icmp(pred, iv, kb.ir().i64(10)), exit, body);
  kb.ir().setInsertPoint(body);
  kb.storeAt(out, iv, iv);
  ir::Value* next = kb.ir().add(iv, kb.ir().i64(1), "i.next");
  kb.ir().br(header);
  iv->addIncoming(next, body);
  kb.ir().setInsertPoint(exit);
  kb.ir().ret();
  ir::verifyOrThrow(*module);

  const ir::Function* fn = module->entryFunction();
  FunctionAnalyses fa(*fn);
  ScalarEvolution scev(*fn, fa);
  return scev.tripCount(fa.loops.topLevelLoops()[0]);
}

TEST(IvTest, ExitOnTrueNegatesThePredicate) {
  // `icmp ge i, 10; condbr %c, exit, body` runs the body for i = 0..9.
  TripCount ge = exitOnTrueTripCount(ir::CmpPred::GE);
  ASSERT_TRUE(ge.known);
  EXPECT_EQ(ge.value, 10u);
  // `icmp gt i, 10` stays while i <= 10: 11 iterations.
  TripCount gt = exitOnTrueTripCount(ir::CmpPred::GT);
  ASSERT_TRUE(gt.known);
  EXPECT_EQ(gt.value, 11u);
  // `icmp lt i, 10` leaves at once (0 < 10): no positive trip count, not 10.
  EXPECT_FALSE(exitOnTrueTripCount(ir::CmpPred::LT).known);
}

}  // namespace
}  // namespace cayman::analysis
