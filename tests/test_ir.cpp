// Unit tests for the IR substrate: construction, printing, parsing
// round-trips, and the verifier.
#include <gtest/gtest.h>

#include "ir/builder.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "ir/verifier.h"

namespace cayman::ir {
namespace {

/// Builds: func @axpb(%n: i64) with loop  y[i] = k * x[i] + b.
std::unique_ptr<Module> buildLinearKernel() {
  auto module = std::make_unique<Module>("linear");
  GlobalArray* x = module->addGlobal("x", Type::f64(), 64);
  GlobalArray* y = module->addGlobal("y", Type::f64(), 64);
  Function* f =
      module->addFunction("axpb", Type::voidTy(), {{Type::i64(), "n"}});
  BasicBlock* entry = f->addBlock("entry");
  BasicBlock* header = f->addBlock("header");
  BasicBlock* body = f->addBlock("body");
  BasicBlock* exit = f->addBlock("exit");

  IRBuilder b(module.get());
  b.setInsertPoint(entry);
  b.br(header);

  b.setInsertPoint(header);
  Instruction* iv = b.phi(Type::i64(), "i");
  Value* cond = b.icmp(CmpPred::LT, iv, f->argument(0), "cond");
  b.condBr(cond, body, exit);

  b.setInsertPoint(body);
  Value* xPtr = b.gep(x, iv, Type::f64(), "x.ptr");
  Value* xi = b.load(Type::f64(), xPtr, "xi");
  Value* scaled = b.fmul(xi, b.f64(2.5), "scaled");
  Value* shifted = b.fadd(scaled, b.f64(1.0), "shifted");
  Value* yPtr = b.gep(y, iv, Type::f64(), "y.ptr");
  b.store(shifted, yPtr);
  Value* next = b.add(iv, b.i64(1), "i.next");
  b.br(header);

  iv->addIncoming(b.i64(0), entry);
  iv->addIncoming(next, body);

  b.setInsertPoint(exit);
  b.ret();
  return module;
}

TEST(TypeTest, SingletonsAreInterned) {
  EXPECT_EQ(Type::i64(), Type::i64());
  EXPECT_NE(Type::i64(), Type::i32());
  EXPECT_EQ(Type::byName("f64"), Type::f64());
  EXPECT_EQ(Type::byName("bogus"), nullptr);
}

TEST(TypeTest, SizesAndWidths) {
  EXPECT_EQ(Type::i1()->sizeBytes(), 1u);
  EXPECT_EQ(Type::i32()->sizeBytes(), 4u);
  EXPECT_EQ(Type::i64()->sizeBytes(), 8u);
  EXPECT_EQ(Type::f32()->bitWidth(), 32u);
  EXPECT_EQ(Type::ptr()->bitWidth(), 64u);
  EXPECT_TRUE(Type::i1()->isInteger());
  EXPECT_FALSE(Type::ptr()->isInteger());
  EXPECT_TRUE(Type::f32()->isFloat());
}

TEST(ModuleTest, ConstantsAreInterned) {
  Module m("m");
  EXPECT_EQ(m.constI64(42), m.constI64(42));
  EXPECT_NE(m.constI64(42), m.constI64(43));
  EXPECT_NE(m.constI64(42), m.constI32(42));
  EXPECT_EQ(m.constF64(1.5), m.constF64(1.5));
}

TEST(ModuleTest, LookupByName) {
  auto module = buildLinearKernel();
  EXPECT_NE(module->globalByName("x"), nullptr);
  EXPECT_EQ(module->globalByName("z"), nullptr);
  EXPECT_NE(module->functionByName("axpb"), nullptr);
  EXPECT_EQ(module->entryFunction(), module->functionByName("axpb"));
}

TEST(ModuleTest, DuplicateFunctionThrows) {
  Module m("m");
  m.addFunction("f", Type::voidTy(), {});
  EXPECT_THROW(m.addFunction("f", Type::voidTy(), {}), Error);
}

TEST(BasicBlockTest, TerminatorAndPartitions) {
  auto module = buildLinearKernel();
  Function* f = module->functionByName("axpb");
  BasicBlock* header = f->blockByName("header");
  ASSERT_NE(header, nullptr);
  ASSERT_TRUE(header->hasTerminator());
  EXPECT_EQ(header->terminator()->opcode(), Opcode::CondBr);
  EXPECT_EQ(header->phis().size(), 1u);
  // Phi, icmp, condbr: one body instruction between the phi and terminator.
  ASSERT_EQ(header->instructions().size(), 3u);
  EXPECT_EQ(header->instructions()[1]->opcode(), Opcode::ICmp);
  EXPECT_EQ(header->terminator()->successors().size(), 2u);
}

TEST(BasicBlockTest, AppendingPastTerminatorThrows) {
  Module m("m");
  Function* f = m.addFunction("f", Type::voidTy(), {});
  BasicBlock* entry = f->addBlock("entry");
  IRBuilder b(&m);
  b.setInsertPoint(entry);
  b.ret();
  EXPECT_THROW(b.ret(), Error);
}

TEST(BuilderTest, TypeChecksRejectMismatches) {
  Module m("m");
  Function* f = m.addFunction("f", Type::voidTy(),
                              {{Type::i64(), "a"}, {Type::f64(), "x"}});
  BasicBlock* entry = f->addBlock("entry");
  IRBuilder b(&m);
  b.setInsertPoint(entry);
  EXPECT_THROW(b.add(f->argument(0), f->argument(1)), Error);
  EXPECT_THROW(b.fadd(f->argument(0), f->argument(0)), Error);
  EXPECT_THROW(b.icmp(CmpPred::LT, f->argument(1), f->argument(1)), Error);
  EXPECT_THROW(b.load(Type::f64(), f->argument(0)), Error);
}

TEST(PhiTest, IncomingLookup) {
  auto module = buildLinearKernel();
  Function* f = module->functionByName("axpb");
  BasicBlock* header = f->blockByName("header");
  Instruction* phi = header->phis()[0];
  BasicBlock* entry = f->blockByName("entry");
  BasicBlock* body = f->blockByName("body");
  EXPECT_EQ(phi->incomingValueFor(entry), module->constI64(0));
  EXPECT_EQ(phi->incomingValueFor(body)->name(), "i.next");
}

TEST(VerifierTest, WellFormedModulePasses) {
  auto module = buildLinearKernel();
  EXPECT_TRUE(verifyModule(*module).empty());
  EXPECT_NO_THROW(verifyOrThrow(*module));
}

TEST(VerifierTest, MissingTerminatorReported) {
  Module m("m");
  Function* f = m.addFunction("f", Type::voidTy(), {});
  f->addBlock("entry");
  std::vector<std::string> errors = verifyModule(m);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("terminator"), std::string::npos);
  EXPECT_THROW(verifyOrThrow(m), Error);
}

TEST(VerifierTest, PhiPredMismatchReported) {
  Module m("m");
  Function* f = m.addFunction("f", Type::voidTy(), {});
  BasicBlock* entry = f->addBlock("entry");
  BasicBlock* next = f->addBlock("next");
  IRBuilder b(&m);
  b.setInsertPoint(entry);
  b.br(next);
  b.setInsertPoint(next);
  Instruction* phi = b.phi(Type::i64(), "p");
  phi->addIncoming(m.constI64(0), next);  // wrong: `next` is not a pred
  b.ret();
  std::vector<std::string> errors = verifyModule(m);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("phi"), std::string::npos);
}

TEST(VerifierTest, RetTypeMismatchReported) {
  Module m("m");
  Function* f = m.addFunction("f", Type::i64(), {});
  BasicBlock* entry = f->addBlock("entry");
  IRBuilder b(&m);
  b.setInsertPoint(entry);
  b.ret();  // missing value
  std::vector<std::string> errors = verifyModule(m);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("ret"), std::string::npos);
}

TEST(PrinterTest, ContainsStructure) {
  auto module = buildLinearKernel();
  std::string text = printModule(*module);
  EXPECT_NE(text.find("module \"linear\""), std::string::npos);
  EXPECT_NE(text.find("global @x : f64[64]"), std::string::npos);
  EXPECT_NE(text.find("func @axpb"), std::string::npos);
  EXPECT_NE(text.find("phi i64"), std::string::npos);
  EXPECT_NE(text.find("condbr"), std::string::npos);
}

TEST(ParserTest, RoundTripIsStable) {
  auto module = buildLinearKernel();
  std::string once = printModule(*module);
  auto reparsed = parseModule(once);
  EXPECT_TRUE(verifyModule(*reparsed).empty());
  std::string twice = printModule(*reparsed);
  EXPECT_EQ(once, twice);
}

TEST(ParserTest, ParsesCallsAndConversions) {
  const char* text = R"(module "callconv" {
global @buf : i32[16]

func @helper(%v: i64) -> i64 {
entry:
  %doubled = add i64 %v, %v
  ret i64 %doubled
}

func @main() -> void {
entry:
  %r = call @helper(21)
  %f = sitofp i64 %r to f64
  %half = fmul f64 %f, 0.5
  %back = fptosi f64 %half to i64
  %small = trunc i64 %back to i32
  %ptr = gep @buf, 0, elem 4
  store i32 %small, %ptr
  ret
}
}
)";
  auto module = parseModule(text);
  EXPECT_TRUE(verifyModule(*module).empty());
  Function* main = module->functionByName("main");
  ASSERT_NE(main, nullptr);
  // Round-trip again for stability.
  std::string printed = printModule(*module);
  auto reparsed = parseModule(printed);
  EXPECT_EQ(printed, printModule(*reparsed));
}

TEST(ParserTest, ForwardReferencesInPhisResolve) {
  auto module = buildLinearKernel();
  std::string text = printModule(*module);
  auto reparsed = parseModule(text);
  Function* f = reparsed->functionByName("axpb");
  BasicBlock* header = f->blockByName("header");
  ASSERT_NE(header, nullptr);
  Instruction* phi = header->phis().at(0);
  // The loop-carried incoming value must resolve to the add in the body.
  Value* carried = phi->incomingValueFor(f->blockByName("body"));
  const Instruction* carriedInst = dynCast<Instruction>(carried);
  ASSERT_NE(carriedInst, nullptr);
  EXPECT_EQ(carriedInst->opcode(), Opcode::Add);
}

TEST(ParserTest, SyntaxErrorsThrow) {
  EXPECT_THROW(parseModule("not a module"), Error);
  EXPECT_THROW(parseModule("module \"m\" {\nfunc @f() -> void {\nentry:\n"
                           "  bogus i64 %x\n}\n}\n"),
               Error);
  EXPECT_THROW(parseModule("module \"m\" {\nfunc @f() -> void {\nentry:\n"
                           "  %x = add i64 %undefined, 1\n  ret\n}\n}\n"),
               Error);
}

}  // namespace
}  // namespace cayman::ir
