// Unit tests for the analysis substrate: CFG, dominators, loops, regions
// (wPST), scalar evolution, and memory dependence analysis.
#include <gtest/gtest.h>

#include "analysis/memdep.h"
#include "analysis/regions.h"
#include "analysis/scev.h"
#include "ir/builder.h"
#include "ir/parser.h"
#include "ir/verifier.h"
#include "workloads/kernel_builder.h"

namespace cayman::analysis {
namespace {

using workloads::KernelBuilder;

/// y[i] = k * x[i] + b over i in [0, 64).
std::unique_ptr<ir::Module> buildLinear() {
  auto module = std::make_unique<ir::Module>("linear");
  auto* x = module->addGlobal("x", ir::Type::f64(), 64);
  auto* y = module->addGlobal("y", ir::Type::f64(), 64);
  KernelBuilder kb(module.get());
  kb.beginFunction("main");
  ir::Value* i = kb.beginLoop(0, 64, "i");
  ir::Value* xi = kb.loadAt(x, i);
  ir::Value* scaled = kb.ir().fmul(xi, kb.ir().f64(2.0));
  ir::Value* shifted = kb.ir().fadd(scaled, kb.ir().f64(1.0));
  kb.storeAt(y, i, shifted);
  kb.endLoop();
  kb.endFunction();
  ir::verifyOrThrow(*module);
  return module;
}

/// z[i] += A[i*M+j] * B[i*M+j] — two nested loops with a carried dep on j.
std::unique_ptr<ir::Module> buildDotRows() {
  auto module = std::make_unique<ir::Module>("dotrows");
  auto* a = module->addGlobal("A", ir::Type::f64(), 16 * 8);
  auto* bArr = module->addGlobal("B", ir::Type::f64(), 16 * 8);
  auto* z = module->addGlobal("z", ir::Type::f64(), 16);
  KernelBuilder kb(module.get());
  kb.beginFunction("main");
  ir::Value* i = kb.beginLoop(0, 16, "i");
  ir::Value* j = kb.beginLoop(0, 8, "j");
  ir::Value* idx = kb.idx2(i, j, 8);
  ir::Value* av = kb.loadAt(a, idx);
  ir::Value* bv = kb.loadAt(bArr, idx);
  ir::Value* prod = kb.ir().fmul(av, bv);
  ir::Value* zv = kb.loadAt(z, i);
  ir::Value* sum = kb.ir().fadd(zv, prod);
  kb.storeAt(z, i, sum);
  kb.endLoop();
  kb.endLoop();
  kb.endFunction();
  ir::verifyOrThrow(*module);
  return module;
}

/// Loop with an if/else diamond in the body.
std::unique_ptr<ir::Module> buildBranchy() {
  auto module = std::make_unique<ir::Module>("branchy");
  auto* v = module->addGlobal("v", ir::Type::i64(), 32);
  auto* out = module->addGlobal("out", ir::Type::i64(), 32);
  KernelBuilder kb(module.get());
  kb.beginFunction("main");
  ir::Value* i = kb.beginLoop(0, 32, "i");
  ir::Value* value = kb.loadAt(v, i);
  ir::Value* isNeg = kb.ir().icmp(ir::CmpPred::LT, value, kb.ir().i64(0));
  kb.beginIf(isNeg, /*withElse=*/true);
  kb.storeAt(out, i, kb.ir().sub(kb.ir().i64(0), value));
  kb.beginElse();
  kb.storeAt(out, i, value);
  kb.endIf();
  kb.endLoop();
  kb.endFunction();
  ir::verifyOrThrow(*module);
  return module;
}

// --------------------------------------------------------------------------
// CFG and dominators
// --------------------------------------------------------------------------

/// for (i = 0; i < 32; ++i) { a[i] = 1; if (i == 7) return; a[i + 1] = 2; }
/// built by hand: the loop has two exits, created in the opposite order to
/// the one the loop reaches them in, and the store in the later block is
/// built first, so creation order disagrees with program order both ways.
struct TwoExitLoop {
  std::unique_ptr<ir::Module> module;
  const ir::BasicBlock* earlyExit = nullptr;  ///< left from `first`
  const ir::BasicBlock* exit = nullptr;       ///< left from the header
  const ir::Instruction* firstStore = nullptr;   ///< a[i] = 1
  const ir::Instruction* secondStore = nullptr;  ///< a[i + 1] = 2
};

TwoExitLoop buildTwoExitLoop() {
  TwoExitLoop t;
  t.module = std::make_unique<ir::Module>("two-exit");
  auto* a = t.module->addGlobal("a", ir::Type::i64(), 64);
  ir::Function* f = t.module->addFunction("main", ir::Type::voidTy(), {});
  ir::BasicBlock* entry = f->addBlock("entry");
  ir::BasicBlock* header = f->addBlock("header");
  ir::BasicBlock* first = f->addBlock("first");
  ir::BasicBlock* second = f->addBlock("second");
  ir::BasicBlock* earlyExit = f->addBlock("early.exit");
  ir::BasicBlock* exit = f->addBlock("exit");
  ir::IRBuilder ir(t.module.get());
  ir.setInsertPoint(entry);
  ir.br(header);
  ir.setInsertPoint(header);
  ir::Instruction* i = ir.phi(ir::Type::i64(), "i");
  i->addIncoming(ir.i64(0), entry);
  ir.condBr(ir.icmp(ir::CmpPred::LT, i, ir.i64(32)), first, exit);
  ir.setInsertPoint(second);
  ir::Value* next = ir.add(i, ir.i64(1), "i.next");
  t.secondStore = ir.store(ir.i64(2), ir.gep(a, next, ir::Type::i64()));
  ir.br(header);
  i->addIncoming(next, second);
  ir.setInsertPoint(first);
  t.firstStore = ir.store(ir.i64(1), ir.gep(a, i, ir::Type::i64()));
  ir.condBr(ir.icmp(ir::CmpPred::EQ, i, ir.i64(7)), earlyExit, second);
  ir.setInsertPoint(earlyExit);
  ir.ret();
  ir.setInsertPoint(exit);
  ir.ret();
  ir::verifyOrThrow(*t.module);
  t.earlyExit = earlyExit;
  t.exit = exit;
  return t;
}

TEST(CfgTest, RpoStartsAtEntryAndCoversAllBlocks) {
  auto module = buildLinear();
  const ir::Function* f = module->entryFunction();
  Cfg cfg(*f);
  EXPECT_EQ(cfg.rpo().front(), f->entry());
  EXPECT_EQ(cfg.rpo().size(), f->numBlocks());
  EXPECT_EQ(cfg.rpoIndex(f->entry()), 0);
}

TEST(CfgTest, PredecessorsAreInverted) {
  auto module = buildLinear();
  const ir::Function* f = module->entryFunction();
  Cfg cfg(*f);
  const ir::BasicBlock* header = f->blockByName("i.header");
  ASSERT_NE(header, nullptr);
  EXPECT_EQ(cfg.predecessors(header).size(), 2u);  // entry + latch
  EXPECT_EQ(cfg.exitBlocks().size(), 1u);
}

TEST(DomTest, HeaderDominatesBodyAndExit) {
  auto module = buildLinear();
  const ir::Function* f = module->entryFunction();
  Cfg cfg(*f);
  DominatorTree dom = DominatorTree::dominators(cfg);
  const ir::BasicBlock* header = f->blockByName("i.header");
  const ir::BasicBlock* body = f->blockByName("i.body");
  const ir::BasicBlock* exit = f->blockByName("i.exit");
  EXPECT_TRUE(dom.dominates(f->entry(), header));
  EXPECT_TRUE(dom.dominates(header, body));
  EXPECT_TRUE(dom.dominates(header, exit));
  EXPECT_FALSE(dom.dominates(body, exit));
  EXPECT_TRUE(dom.dominates(header, header));
  EXPECT_FALSE(dom.strictlyDominates(header, header));
}

TEST(DomTest, PostDominanceOfJoin) {
  auto module = buildBranchy();
  const ir::Function* f = module->entryFunction();
  Cfg cfg(*f);
  DominatorTree postDom = DominatorTree::postDominators(cfg);
  const ir::BasicBlock* branch = f->blockByName("i.body");
  const ir::BasicBlock* join = f->blockByName("if.join");
  ASSERT_NE(branch, nullptr);
  ASSERT_NE(join, nullptr);
  EXPECT_EQ(postDom.idom(branch), join);
  EXPECT_TRUE(postDom.dominates(join, branch));
}

/// The message of the Stage::Verify diagnostic verifiedDominators raises
/// for `text` (which the structural verifier accepts); "" when it accepts.
std::string dominanceError(const char* text) {
  std::unique_ptr<ir::Module> module = ir::parseModule(text);
  ir::verifyOrThrow(*module);
  try {
    verifiedDominators(Cfg(*module->entryFunction()));
  } catch (const support::DiagnosticError& e) {
    EXPECT_EQ(e.diagnostic().stage, support::Stage::Verify);
    return e.diagnostic().message;
  }
  return "";
}

TEST(DomTest, UseAheadOfItsDefinitionInOneBlockIsRejected) {
  EXPECT_EQ(dominanceError(R"(module "order" {
func @main() -> i64 {
entry:
  %a = add i64 %b, 1
  %b = add i64 2, 3
  ret i64 %a
}
}
)"),
            "in @main: %b does not dominate its use in entry");
}

TEST(DomTest, FarDefinitionsInALongBlockAreOrdered) {
  // A definition 40 instructions before its use, and one right after it.
  auto longBlock = [](const char* useOperand) {
    std::string text = "module \"long\" {\nfunc @main() -> i64 {\nentry:\n";
    text += "  %first = add i64 1, 1\n";
    for (int i = 0; i < 40; ++i) {
      text += "  %v" + std::to_string(i) + " = add i64 %first, 1\n";
    }
    text += "  %use = add i64 " + std::string(useOperand) + ", 1\n";
    text += "  %last = add i64 %use, 1\n  ret i64 %last\n}\n}\n";
    return text;
  };
  EXPECT_EQ(dominanceError(longBlock("%first").c_str()), "");
  EXPECT_EQ(dominanceError(longBlock("%last").c_str()),
            "in @main: %last does not dominate its use in entry");
}

constexpr const char* kDiamondPhi = R"(module "diamond" {
func @main(%x: i64) -> i64 {
entry:
  %c = icmp lt i64 %x, 4
  condbr %c, then, else
then:
  %t = add i64 %x, 1
  br join
else:
  br join
join:
  %r = phi i64 [ %t, then ], [ ELSE, else ]
  ret i64 %r
}
}
)";

TEST(DomTest, PhiOperandsAreCheckedAtTheEndOfTheirIncomingBlock) {
  std::string text = kDiamondPhi;
  const size_t at = text.find("ELSE");
  // %t dominates the end of `then`, not the end of `else`.
  EXPECT_EQ(dominanceError(std::string(text).replace(at, 4, "0").c_str()),
            "");
  EXPECT_EQ(dominanceError(std::string(text).replace(at, 4, "%t").c_str()),
            "in @main: %t does not dominate its use in join");
}

TEST(DomTest, UsesInUnreachableBlocksAreExempt) {
  // `dead` is unreachable: neither its own use of %l nor the phi operand
  // arriving from it is checked.
  EXPECT_EQ(dominanceError(R"(module "dead" {
func @main(%x: i64) -> i64 {
entry:
  %e = add i64 %x, 1
  br join
dead:
  %d = add i64 %l, 1
  br join
join:
  %p = phi i64 [ %e, entry ], [ %l, dead ]
  %l = add i64 %p, 1
  ret i64 %l
}
}
)"),
            "");
}

// --------------------------------------------------------------------------
// Loops
// --------------------------------------------------------------------------

TEST(LoopTest, SingleLoopCanonicalForm) {
  auto module = buildLinear();
  const ir::Function* f = module->entryFunction();
  FunctionAnalyses fa(*f);
  ASSERT_EQ(fa.loops.loops().size(), 1u);
  const Loop* loop = fa.loops.loops()[0].get();
  EXPECT_EQ(loop->header(), f->blockByName("i.header"));
  EXPECT_EQ(loop->preheader(), f->entry());
  EXPECT_EQ(loop->latch(), f->blockByName("i.latch"));
  ASSERT_EQ(loop->exitBlocks().size(), 1u);
  EXPECT_EQ(loop->exitBlocks()[0], f->blockByName("i.exit"));
  EXPECT_EQ(loop->depth(), 1u);
  EXPECT_TRUE(loop->isInnermost());
}

TEST(LoopTest, ExitBlocksComeInBlockOrder) {
  TwoExitLoop t = buildTwoExitLoop();
  FunctionAnalyses fa(*t.module->entryFunction());
  ASSERT_EQ(fa.loops.loops().size(), 1u);
  const Loop* loop = fa.loops.loops()[0].get();
  // The header's exit is reached first, but early.exit was created first.
  EXPECT_EQ(loop->exitBlocks(),
            (std::vector<const ir::BasicBlock*>{t.earlyExit, t.exit}));
  EXPECT_EQ(fa.cfg.exitBlocks().size(), 2u);
}

TEST(LoopTest, NestingDepths) {
  auto module = buildDotRows();
  const ir::Function* f = module->entryFunction();
  FunctionAnalyses fa(*f);
  ASSERT_EQ(fa.loops.loops().size(), 2u);
  ASSERT_EQ(fa.loops.topLevelLoops().size(), 1u);
  const Loop* outer = fa.loops.topLevelLoops()[0];
  ASSERT_EQ(outer->subLoops().size(), 1u);
  const Loop* inner = outer->subLoops()[0];
  EXPECT_EQ(outer->depth(), 1u);
  EXPECT_EQ(inner->depth(), 2u);
  EXPECT_TRUE(outer->contains(inner));
  EXPECT_FALSE(inner->contains(outer));
  EXPECT_EQ(fa.loops.loopFor(f->blockByName("j.body")), inner);
  EXPECT_EQ(fa.loops.loopFor(f->blockByName("i.body")), inner->parent());
  EXPECT_EQ(fa.loops.loopDepth(f->blockByName("j.body")), 2u);
  EXPECT_EQ(fa.loops.loopDepth(f->entry()), 0u);
}

// --------------------------------------------------------------------------
// Regions / wPST
// --------------------------------------------------------------------------

TEST(RegionTest, WPstShapeForNestedLoops) {
  auto module = buildDotRows();
  WPst wpst(*module);
  const Region* root = wpst.root();
  EXPECT_EQ(root->kind(), RegionKind::Root);
  ASSERT_EQ(root->children().size(), 1u);  // one function
  const Region* funcRegion = root->children()[0].get();
  EXPECT_EQ(funcRegion->kind(), RegionKind::Function);

  // Function scope: entry bb, outer loop region, exit bb.
  int loopRegions = 0;
  funcRegion->walk([&](const Region& r) {
    if (r.kind() == RegionKind::Loop) ++loopRegions;
  });
  EXPECT_EQ(loopRegions, 2);

  const ir::Function* f = module->entryFunction();
  const FunctionAnalyses& fa = wpst.analyses(f);
  const Loop* outer = fa.loops.topLevelLoops()[0];
  const Region* outerRegion = wpst.loopRegion(outer);
  ASSERT_NE(outerRegion, nullptr);
  EXPECT_EQ(outerRegion->kind(), RegionKind::Loop);
  EXPECT_EQ(outerRegion->parent(), funcRegion);
  const Region* innerRegion = wpst.loopRegion(outer->subLoops()[0]);
  ASSERT_NE(innerRegion, nullptr);
  EXPECT_EQ(innerRegion->parent(), outerRegion);
  EXPECT_TRUE(outerRegion->isCandidate());
}

TEST(RegionTest, IfDiamondBecomesCtrlFlowRegion) {
  auto module = buildBranchy();
  WPst wpst(*module);
  int ifRegions = 0;
  const Region* ifRegion = nullptr;
  wpst.root()->walk([&](const Region& r) {
    if (r.kind() == RegionKind::If) {
      ++ifRegions;
      ifRegion = &r;
    }
  });
  ASSERT_EQ(ifRegions, 1);
  // The if region holds the branch bb plus both arms.
  EXPECT_GE(ifRegion->blocks().size(), 3u);
  EXPECT_TRUE(ifRegion->isCandidate());
  // It nests inside the loop region.
  EXPECT_EQ(ifRegion->parent()->kind(), RegionKind::Loop);
}

TEST(RegionTest, BbRegionLookupAndAnchors) {
  auto module = buildLinear();
  WPst wpst(*module);
  const ir::Function* f = module->entryFunction();
  const ir::BasicBlock* body = f->blockByName("i.body");
  const Region* bb = wpst.bbRegion(body);
  ASSERT_NE(bb, nullptr);
  EXPECT_EQ(bb->kind(), RegionKind::Bb);
  EXPECT_EQ(bb->profileAnchor(), body);
  EXPECT_EQ(bb->parent()->kind(), RegionKind::Loop);
  EXPECT_EQ(bb->parent()->profileAnchor(), f->entry());  // preheader
}

TEST(RegionTest, RegionsWithCallsAreNotCandidates) {
  auto module = std::make_unique<ir::Module>("calls");
  KernelBuilder kb(module.get());
  kb.beginFunction("callee");
  kb.endFunction();
  kb.beginFunction("main");
  kb.beginLoop(0, 8, "i");
  kb.ir().call(module->functionByName("callee"), {});
  kb.endLoop();
  kb.endFunction();
  ir::verifyOrThrow(*module);

  WPst wpst(*module);
  const ir::Function* main = module->functionByName("main");
  const FunctionAnalyses& fa = wpst.analyses(main);
  const Region* loopRegion = wpst.loopRegion(fa.loops.topLevelLoops()[0]);
  ASSERT_NE(loopRegion, nullptr);
  EXPECT_TRUE(loopRegion->containsCall());
  EXPECT_FALSE(loopRegion->isCandidate());
}

TEST(RegionTest, IdsAreDenseAndStable) {
  auto module = buildDotRows();
  WPst wpst(*module);
  const auto& all = wpst.allRegions();
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i]->id(), static_cast<int>(i));
    EXPECT_EQ(wpst.regionById(static_cast<int>(i)), all[i]);
  }
}

// --------------------------------------------------------------------------
// Scalar evolution
// --------------------------------------------------------------------------

TEST(ScevTest, RecognizesInductionVariable) {
  auto module = buildLinear();
  const ir::Function* f = module->entryFunction();
  FunctionAnalyses fa(*f);
  ScalarEvolution scev(*f, fa);
  const Loop* loop = fa.loops.loops()[0].get();
  auto ivs = scev.inductionVars(loop);
  ASSERT_EQ(ivs.size(), 1u);
  EXPECT_EQ(ivs[0]->step, 1);
  ASSERT_TRUE(ivs[0]->init.has_value());
  EXPECT_EQ(*ivs[0]->init, 0);
}

TEST(ScevTest, StaticTripCount) {
  auto module = buildDotRows();
  const ir::Function* f = module->entryFunction();
  FunctionAnalyses fa(*f);
  ScalarEvolution scev(*f, fa);
  const Loop* outer = fa.loops.topLevelLoops()[0];
  const Loop* inner = outer->subLoops()[0];
  TripCount outerTrip = scev.tripCount(outer);
  TripCount innerTrip = scev.tripCount(inner);
  ASSERT_TRUE(outerTrip.known);
  EXPECT_EQ(outerTrip.value, 16u);
  ASSERT_TRUE(innerTrip.known);
  EXPECT_EQ(innerTrip.value, 8u);
}

TEST(ScevTest, AffineAddressOfNestedAccess) {
  auto module = buildDotRows();
  const ir::Function* f = module->entryFunction();
  FunctionAnalyses fa(*f);
  ScalarEvolution scev(*f, fa);

  // Find the load from A.
  const ir::Instruction* loadA = nullptr;
  for (const auto& block : f->blocks()) {
    for (const auto& inst : block->instructions()) {
      if (inst->opcode() != ir::Opcode::Load) continue;
      AddressInfo info = scev.addressOf(inst.get());
      if (info.valid && info.base->name() == "A") loadA = inst.get();
    }
  }
  ASSERT_NE(loadA, nullptr);

  AddressInfo info = scev.addressOf(loadA);
  ASSERT_TRUE(info.valid);
  const Loop* outer = fa.loops.topLevelLoops()[0];
  const Loop* inner = outer->subLoops()[0];
  // Byte strides: 8*8=64 for i, 8 for j.
  EXPECT_EQ(info.offset.coeffForLoop(outer), 64);
  EXPECT_EQ(info.offset.coeffForLoop(inner), 8);
  EXPECT_TRUE(info.offset.isStreamIn(inner));
  EXPECT_TRUE(info.offset.isStreamIn(outer));
}

TEST(ScevTest, TripCountDirectionsAndSteps) {
  auto module = std::make_unique<ir::Module>("steps");
  KernelBuilder kb(module.get());
  kb.beginFunction("main");
  kb.beginLoop(0, 10, "a", 3);  // 0,3,6,9 -> 4 iters
  kb.endLoop();
  kb.endFunction();
  ir::verifyOrThrow(*module);
  const ir::Function* f = module->entryFunction();
  FunctionAnalyses fa(*f);
  ScalarEvolution scev(*f, fa);
  TripCount trip = scev.tripCount(fa.loops.topLevelLoops()[0]);
  ASSERT_TRUE(trip.known);
  EXPECT_EQ(trip.value, 4u);
}

// --------------------------------------------------------------------------
// Memory dependence
// --------------------------------------------------------------------------

TEST(MemDepTest, ReductionCreatesInnerLoopDep) {
  auto module = buildDotRows();
  const ir::Function* f = module->entryFunction();
  FunctionAnalyses fa(*f);
  ScalarEvolution scev(*f, fa);
  MemoryAnalysis mem(*f, fa, scev);

  const Loop* outer = fa.loops.topLevelLoops()[0];
  const Loop* inner = outer->subLoops()[0];
  // z[i] += ...: the store/load to z repeat the same address every j
  // iteration -> inner-loop carried dep; i-loop has none.
  EXPECT_TRUE(mem.hasCarriedDep(inner));
  EXPECT_FALSE(mem.hasCarriedDep(outer));

  const auto& deps = mem.carriedDeps(inner);
  bool sawMemoryDep = false;
  for (const auto& dep : deps) {
    if (dep.kind == LoopCarriedDep::Kind::Memory) {
      sawMemoryDep = true;
      EXPECT_EQ(dep.distance, 1u);
      EXPECT_FALSE(dep.chain.empty());
    }
  }
  EXPECT_TRUE(sawMemoryDep);
}

TEST(MemDepTest, ElementwiseLoopHasNoCarriedDep) {
  auto module = buildLinear();
  const ir::Function* f = module->entryFunction();
  FunctionAnalyses fa(*f);
  ScalarEvolution scev(*f, fa);
  MemoryAnalysis mem(*f, fa, scev);
  EXPECT_FALSE(mem.hasCarriedDep(fa.loops.topLevelLoops()[0]));
}

TEST(MemDepTest, ShiftedStoreCreatesDistanceDep) {
  // out[i+1] = out[i] * 0.5 : carried dep with distance 1.
  auto module = std::make_unique<ir::Module>("shift");
  auto* out = module->addGlobal("out", ir::Type::f64(), 64);
  KernelBuilder kb(module.get());
  kb.beginFunction("main");
  ir::Value* i = kb.beginLoop(0, 63, "i");
  ir::Value* cur = kb.loadAt(out, i);
  ir::Value* scaled = kb.ir().fmul(cur, kb.ir().f64(0.5));
  ir::Value* next = kb.ir().add(i, kb.ir().i64(1));
  kb.storeAt(out, next, scaled);
  kb.endLoop();
  kb.endFunction();
  ir::verifyOrThrow(*module);

  const ir::Function* f = module->entryFunction();
  FunctionAnalyses fa(*f);
  ScalarEvolution scev(*f, fa);
  MemoryAnalysis mem(*f, fa, scev);
  const Loop* loop = fa.loops.topLevelLoops()[0];
  const auto& deps = mem.carriedDeps(loop);
  ASSERT_EQ(deps.size(), 1u);
  EXPECT_EQ(deps[0].kind, LoopCarriedDep::Kind::Memory);
  EXPECT_EQ(deps[0].distance, 1u);
}

TEST(MemDepTest, StorePairSourceIsTheEarlierStoreInProgramOrder) {
  // a[i] = 1 and a[i + 1] = 2 collide one iteration apart. The pair is
  // reported once, from the store that comes first in program order, not
  // from whichever store object sits at the lower heap address.
  TwoExitLoop t = buildTwoExitLoop();
  FunctionAnalyses fa(*t.module->entryFunction());
  const Loop* loop = fa.loops.topLevelLoops()[0];
  const auto& deps = fa.mem.carriedDeps(loop);
  ASSERT_EQ(deps.size(), 1u);
  EXPECT_EQ(deps[0].kind, LoopCarriedDep::Kind::Memory);
  EXPECT_EQ(deps[0].src, t.firstStore);
  EXPECT_EQ(deps[0].dst, t.secondStore);
  EXPECT_EQ(deps[0].distance, 1u);
}

TEST(MemDepTest, ScalarReductionDetected) {
  // acc += x[i] via a reduction phi (no memory round-trip).
  auto module = std::make_unique<ir::Module>("reduce");
  auto* x = module->addGlobal("x", ir::Type::f64(), 64);
  auto* out = module->addGlobal("out", ir::Type::f64(), 1);
  KernelBuilder kb(module.get());
  kb.beginFunction("main");
  ir::Value* i = kb.beginLoop(0, 64, "i");
  ir::Instruction* acc =
      kb.reduction(ir::Type::f64(), kb.ir().f64(0.0), "acc");
  ir::Value* xi = kb.loadAt(x, i);
  ir::Value* sum = kb.ir().fadd(acc, xi, "acc.next");
  kb.setReductionNext(acc, sum);
  kb.endLoop();
  kb.storeAt(out, kb.ir().i64(0), kb.reductionResult(acc));
  kb.endFunction();
  ir::verifyOrThrow(*module);

  const ir::Function* f = module->entryFunction();
  FunctionAnalyses fa(*f);
  ScalarEvolution scev(*f, fa);
  MemoryAnalysis mem(*f, fa, scev);
  const Loop* loop = fa.loops.topLevelLoops()[0];
  const auto& deps = mem.carriedDeps(loop);
  ASSERT_EQ(deps.size(), 1u);
  EXPECT_EQ(deps[0].kind, LoopCarriedDep::Kind::Scalar);
  // The chain must include the fadd.
  bool hasFAdd = false;
  for (const ir::Instruction* inst : deps[0].chain) {
    if (inst->opcode() == ir::Opcode::FAdd) hasFAdd = true;
  }
  EXPECT_TRUE(hasFAdd);
}

TEST(MemDepTest, StreamAndFootprint) {
  auto module = buildDotRows();
  const ir::Function* f = module->entryFunction();
  WPst wpst(*module);
  const FunctionAnalyses& fa = wpst.analyses(f);
  ScalarEvolution scev(*f, fa);
  MemoryAnalysis mem(*f, fa, scev);

  const Loop* outer = fa.loops.topLevelLoops()[0];
  const Loop* inner = outer->subLoops()[0];
  const Region* outerRegion = wpst.loopRegion(outer);
  const Region* innerRegion = wpst.loopRegion(inner);

  const ir::Instruction* loadA = nullptr;
  const ir::Instruction* loadZ = nullptr;
  for (const MemAccessInfo& info : mem.accesses()) {
    if (!info.addr.valid || info.isStore) continue;
    if (info.addr.base->name() == "A") loadA = info.inst;
    if (info.addr.base->name() == "z") loadZ = info.inst;
  }
  ASSERT_NE(loadA, nullptr);
  ASSERT_NE(loadZ, nullptr);

  EXPECT_TRUE(mem.isStream(loadA, inner));
  EXPECT_TRUE(mem.isStream(loadZ, inner));  // invariant = degenerate stream

  // Paper Fig. 2d: ld A footprint M in the inner loop; ld z footprint 1.
  auto fpA = mem.footprintElems(loadA, innerRegion, 1);
  auto fpZ = mem.footprintElems(loadZ, innerRegion, 1);
  ASSERT_TRUE(fpA.has_value());
  ASSERT_TRUE(fpZ.has_value());
  EXPECT_EQ(*fpA, 8u);
  EXPECT_EQ(*fpZ, 1u);

  // Over the whole nest: A touches 16*8 elements, z touches 16.
  auto fpAOuter = mem.footprintElems(loadA, outerRegion, 1);
  auto fpZOuter = mem.footprintElems(loadZ, outerRegion, 1);
  ASSERT_TRUE(fpAOuter.has_value());
  EXPECT_EQ(*fpAOuter, 128u);
  ASSERT_TRUE(fpZOuter.has_value());
  EXPECT_EQ(*fpZOuter, 16u);
}

TEST(MemDepTest, IndirectAccessHasUnknownFootprint) {
  // y[idx[i]] = x[i]: indirect store footprint unknown.
  auto module = std::make_unique<ir::Module>("indirect");
  auto* x = module->addGlobal("x", ir::Type::f64(), 64);
  auto* y = module->addGlobal("y", ir::Type::f64(), 64);
  auto* idx = module->addGlobal("idx", ir::Type::i64(), 64);
  KernelBuilder kb(module.get());
  kb.beginFunction("main");
  ir::Value* i = kb.beginLoop(0, 64, "i");
  ir::Value* xi = kb.loadAt(x, i);
  ir::Value* target = kb.loadAt(idx, i);
  kb.storeAt(y, target, xi);
  kb.endLoop();
  kb.endFunction();
  ir::verifyOrThrow(*module);

  const ir::Function* f = module->entryFunction();
  WPst wpst(*module);
  const FunctionAnalyses& fa = wpst.analyses(f);
  ScalarEvolution scev(*f, fa);
  MemoryAnalysis mem(*f, fa, scev);
  const Loop* loop = fa.loops.topLevelLoops()[0];
  const Region* region = wpst.loopRegion(loop);

  const ir::Instruction* store = nullptr;
  for (const MemAccessInfo& info : mem.accesses()) {
    if (info.isStore) store = info.inst;
  }
  ASSERT_NE(store, nullptr);
  EXPECT_FALSE(mem.isStream(store, loop));
  EXPECT_FALSE(mem.footprintElems(store, region, 1).has_value());
}

}  // namespace
}  // namespace cayman::analysis
