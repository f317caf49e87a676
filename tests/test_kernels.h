// Shared kernel builders for the test suite.
#pragma once

#include "hls/interface.h"
#include "ir/verifier.h"
#include "workloads/kernel_builder.h"

namespace cayman::testing {

/// y[i] = 2*x[i] + 1 over [0, n): dependence-free streaming loop
/// (the paper's Fig. 4 example shape).
inline std::unique_ptr<ir::Module> linearKernel(int64_t n = 64) {
  auto module = std::make_unique<ir::Module>("linear");
  auto* x = module->addGlobal("x", ir::Type::f64(), static_cast<uint64_t>(n));
  auto* y = module->addGlobal("y", ir::Type::f64(), static_cast<uint64_t>(n));
  workloads::KernelBuilder kb(module.get());
  kb.beginFunction("main");
  ir::Value* i = kb.beginLoop(0, n, "i");
  ir::Value* v = kb.ir().fadd(
      kb.ir().fmul(kb.loadAt(x, i), kb.ir().f64(2.0)), kb.ir().f64(1.0));
  kb.storeAt(y, i, v);
  kb.endLoop();
  kb.endFunction();
  ir::verifyOrThrow(*module);
  return module;
}

/// z[i] += A[i][j]*B[i][j]: nested loops, inner accumulation into z[i]
/// (the paper's Fig. 2 "dot-product" example shape).
inline std::unique_ptr<ir::Module> dotRowsKernel(int64_t n = 16,
                                                 int64_t m = 8) {
  auto module = std::make_unique<ir::Module>("dotrows");
  auto* a = module->addGlobal("A", ir::Type::f64(),
                              static_cast<uint64_t>(n * m));
  auto* b = module->addGlobal("B", ir::Type::f64(),
                              static_cast<uint64_t>(n * m));
  auto* z = module->addGlobal("z", ir::Type::f64(), static_cast<uint64_t>(n));
  workloads::KernelBuilder kb(module.get());
  kb.beginFunction("main");
  ir::Value* i = kb.beginLoop(0, n, "i");
  ir::Value* j = kb.beginLoop(0, m, "j");
  ir::Value* idx = kb.idx2(i, j, m);
  ir::Value* prod = kb.ir().fmul(kb.loadAt(a, idx), kb.loadAt(b, idx));
  ir::Value* sum = kb.ir().fadd(kb.loadAt(z, i), prod);
  kb.storeAt(z, i, sum);
  kb.endLoop();
  kb.endLoop();
  kb.endFunction();
  ir::verifyOrThrow(*module);
  return module;
}

/// out[i+1] = out[i]*0.5: genuine cross-iteration dependence, never
/// unrollable.
inline std::unique_ptr<ir::Module> chainKernel(int64_t n = 64) {
  auto module = std::make_unique<ir::Module>("chain");
  auto* out = module->addGlobal("out", ir::Type::f64(),
                                static_cast<uint64_t>(n));
  workloads::KernelBuilder kb(module.get());
  kb.beginFunction("main");
  ir::Value* i = kb.beginLoop(0, n - 1, "i");
  ir::Value* scaled = kb.ir().fmul(kb.loadAt(out, i), kb.ir().f64(0.5));
  kb.storeAt(out, kb.ir().add(i, kb.ir().i64(1)), scaled);
  kb.endLoop();
  kb.endFunction();
  ir::verifyOrThrow(*module);
  return module;
}

/// One-block function `f` whose single block `body` the caller fills, with
/// two f64 globals x and y. Loads and stores address the globals directly,
/// so hand-scheduled blocks need no address arithmetic.
struct HandBlock {
  ir::Module module{"hand"};
  ir::GlobalArray* x = module.addGlobal("x", ir::Type::f64(), 8);
  ir::GlobalArray* y = module.addGlobal("y", ir::Type::f64(), 8);
  ir::Function* fn = module.addFunction("f", ir::Type::voidTy(), {});
  ir::BasicBlock* body = fn->addBlock("body");
  ir::IRBuilder b{&module};

  HandBlock() { b.setInsertPoint(body); }

  static hls::AccessIface iface(hls::IfaceKind kind,
                                const ir::GlobalArray* array,
                                unsigned partitions = 1) {
    hls::AccessIface result;
    result.kind = kind;
    result.array = array;
    result.partitions = partitions;
    return result;
  }
};

inline const ir::Instruction* asInst(const ir::Value* value) {
  return ir::dynCast<ir::Instruction>(value);
}

}  // namespace cayman::testing
