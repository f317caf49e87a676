#include "ir/verifier.h"

#include <algorithm>
#include <sstream>

#include "support/status.h"

namespace cayman::ir {

namespace {

/// Untrusted input can produce arbitrarily many violations; cap the report
/// so verification stays linear in module size.
constexpr size_t kMaxErrors = 64;

class Verifier {
 public:
  explicit Verifier(const Module& module) : module_(module) {}

  std::vector<std::string> run() {
    for (const auto& function : module_.functions()) {
      if (errors_.size() >= kMaxErrors) {
        errors_.push_back("(further errors suppressed)");
        break;
      }
      check(*function);
    }
    return std::move(errors_);
  }

 private:
  void error(const Function& f, const std::string& message) {
    if (errors_.size() >= kMaxErrors) return;
    errors_.push_back("in @" + f.name() + ": " + message);
  }

  void check(const Function& f) {
    if (f.blocks().empty()) {
      error(f, "function has no blocks");
      return;
    }

    // Predecessors per block index, sorted and de-duplicated, for phi
    // validation.
    std::vector<std::vector<const BasicBlock*>> preds(f.numBlocks());
    for (const auto& block : f.blocks()) {
      const Instruction* term = block->terminator();
      if (term == nullptr) {
        error(f, "block " + block->name() + " has no terminator");
        continue;
      }
      for (const BasicBlock* succ : term->successors()) {
        if (succ == nullptr || succ->parent() != &f) {
          error(f, "block " + block->name() +
                       " branches to a block outside the function");
        } else {
          preds[succ->index()].push_back(block.get());
        }
      }
    }
    for (std::vector<const BasicBlock*>& list : preds) {
      std::sort(list.begin(), list.end());
      list.erase(std::unique(list.begin(), list.end()), list.end());
    }

    if (!preds[f.entry()->index()].empty()) {
      error(f, "entry block has predecessors");
    }

    // A value is defined in `f` when it is one of f's arguments or an
    // instruction placed in one of f's blocks.
    auto definedHere = [&f](const Value* value) {
      if (const auto* inst = dynCast<Instruction>(value)) {
        return inst->parent() != nullptr && inst->parent()->parent() == &f;
      }
      const auto* arg = dynCast<Argument>(value);
      return arg == nullptr || (arg->index() < f.numArguments() &&
                                f.argument(arg->index()) == arg);
    };

    for (const auto& block : f.blocks()) {
      bool seenNonPhi = false;
      for (size_t i = 0; i < block->instructions().size(); ++i) {
        const Instruction& inst = *block->instructions()[i];
        const bool isLast = i + 1 == block->instructions().size();

        if (inst.isTerminator() && !isLast) {
          error(f, "terminator mid-block in " + block->name());
        }
        if (inst.opcode() == Opcode::Phi) {
          if (seenNonPhi) {
            error(f, "phi after non-phi in " + block->name());
          }
          checkPhi(f, *block, inst, preds[block->index()]);
        } else {
          seenNonPhi = true;
        }

        for (const Value* operand : inst.operands()) {
          if (!definedHere(operand)) {
            error(f, "instruction in " + block->name() +
                         " uses a value from another function");
          }
        }

        if (inst.opcode() == Opcode::Ret) {
          const bool wantsValue = !f.returnType()->isVoid();
          if (wantsValue != (inst.numOperands() == 1)) {
            error(f, "ret arity does not match return type");
          } else if (wantsValue &&
                     inst.operand(0)->type() != f.returnType()) {
            error(f, "ret value type does not match return type");
          }
        }
        if (inst.opcode() == Opcode::Gep && inst.gepElemSize() == 0) {
          error(f, "gep with zero element size in " + block->name());
        }
        checkStructure(f, *block, inst);
        checkValueKinds(f, *block, inst);
      }
    }
  }

  /// Shape checks that downstream consumers (interpreter, decoder, HLS)
  /// assume without re-validating: successor/operand arity per opcode, call
  /// signature agreement, i1 branch conditions.
  void checkStructure(const Function& f, const BasicBlock& block,
                      const Instruction& inst) {
    auto wantSuccessors = [&](size_t n) {
      if (inst.successors().size() != n) {
        error(f, "terminator in " + block.name() + " has " +
                     std::to_string(inst.successors().size()) +
                     " successor(s), expected " + std::to_string(n));
      }
    };
    auto wantOperands = [&](size_t n, const char* what) {
      if (inst.numOperands() != n) {
        error(f, std::string(what) + " in " + block.name() + " has " +
                     std::to_string(inst.numOperands()) +
                     " operand(s), expected " + std::to_string(n));
        return false;
      }
      return true;
    };
    switch (inst.opcode()) {
      case Opcode::Br:
        wantSuccessors(1);
        break;
      case Opcode::CondBr:
        wantSuccessors(2);
        if (wantOperands(1, "condbr") &&
            inst.operand(0)->type() != Type::i1()) {
          error(f, "condbr condition in " + block.name() + " is not i1");
        }
        break;
      case Opcode::Load:
        wantOperands(1, "load");
        break;
      case Opcode::Store:
        wantOperands(2, "store");
        break;
      case Opcode::Call: {
        const Function* callee = inst.callee();
        if (callee == nullptr) {
          error(f, "call without callee in " + block.name());
          break;
        }
        if (inst.numOperands() != callee->numArguments()) {
          error(f, "call to @" + callee->name() + " in " + block.name() +
                       " passes " + std::to_string(inst.numOperands()) +
                       " argument(s), expected " +
                       std::to_string(callee->numArguments()));
          break;
        }
        for (size_t i = 0; i < inst.numOperands(); ++i) {
          if (inst.operand(i)->type() != callee->argument(i)->type()) {
            error(f, "call to @" + callee->name() + " in " + block.name() +
                         " argument " + std::to_string(i) +
                         " type mismatch");
          }
        }
        break;
      }
      default:
        if (!inst.isTerminator() && !inst.successors().empty()) {
          error(f, "non-terminator with successors in " + block.name());
        }
        break;
    }
  }

  /// Every value is either integer-like (i1, i32, i64, ptr) or float (f32,
  /// f64), and each opcode reads and writes fixed kinds. The decoded
  /// interpreter keeps one untyped 8-byte word per value, so it agrees bit
  /// for bit with the typed reference engine only on IR that never reads a
  /// value as the other kind.
  void checkValueKinds(const Function& f, const BasicBlock& block,
                       const Instruction& inst) {
    enum class Kind { Int, Float, Void };
    auto kindOf = [](const Type* type) {
      if (type->isFloat()) return Kind::Float;
      return type->isVoid() ? Kind::Void : Kind::Int;
    };
    auto want = [&](const Value* value, Kind kind, const char* what) {
      if (kindOf(value->type()) == kind) return;
      error(f, std::string(opcodeSpelling(inst.opcode())) + " in " +
                   block.name() + ": " + what + " has type " +
                   value->type()->spelling());
    };
    auto wantOperands = [&](Kind kind) {
      for (const Value* operand : inst.operands()) {
        want(operand, kind, "operand");
      }
    };
    const Kind result = kindOf(inst.type());
    switch (inst.opcode()) {
      case Opcode::Add: case Opcode::Sub: case Opcode::Mul:
      case Opcode::SDiv: case Opcode::SRem: case Opcode::And:
      case Opcode::Or: case Opcode::Xor: case Opcode::Shl:
      case Opcode::AShr: case Opcode::LShr: case Opcode::ZExt:
      case Opcode::SExt: case Opcode::Trunc: case Opcode::Gep:
      case Opcode::ICmp:
        want(&inst, Kind::Int, "result");
        wantOperands(Kind::Int);
        break;
      case Opcode::FAdd: case Opcode::FSub: case Opcode::FMul:
      case Opcode::FDiv: case Opcode::FNeg: case Opcode::FSqrt:
      case Opcode::FAbs: case Opcode::FMin: case Opcode::FMax:
        want(&inst, Kind::Float, "result");
        wantOperands(Kind::Float);
        break;
      case Opcode::FCmp:
        want(&inst, Kind::Int, "result");
        wantOperands(Kind::Float);
        break;
      case Opcode::SIToFP:
        want(&inst, Kind::Float, "result");
        wantOperands(Kind::Int);
        break;
      case Opcode::FPToSI:
        want(&inst, Kind::Int, "result");
        wantOperands(Kind::Float);
        break;
      case Opcode::Select:
        for (size_t i = 0; i < inst.numOperands(); ++i) {
          want(inst.operand(i), i == 0 ? Kind::Int : result, "operand");
        }
        break;
      case Opcode::Phi:
        wantOperands(result);
        break;
      case Opcode::Load:
        if (inst.numOperands() == 1) {
          want(inst.operand(0), Kind::Int, "address");
        }
        break;
      case Opcode::Store:
        if (inst.numOperands() == 2) {
          want(inst.operand(1), Kind::Int, "address");
        }
        break;
      case Opcode::Call:
        if (inst.callee() != nullptr &&
            inst.type() != inst.callee()->returnType()) {
          error(f, "call to @" + inst.callee()->name() + " in " +
                       block.name() + " has a result type other than the "
                       "callee's return type");
        }
        break;
      default:
        break;
    }
  }

  /// `preds` is sorted and free of duplicates.
  void checkPhi(const Function& f, const BasicBlock& block,
                const Instruction& phi,
                const std::vector<const BasicBlock*>& preds) {
    std::vector<const BasicBlock*> incoming(phi.incomingBlocks().begin(),
                                            phi.incomingBlocks().end());
    std::sort(incoming.begin(), incoming.end());
    if (std::adjacent_find(incoming.begin(), incoming.end()) !=
        incoming.end()) {
      error(f, "phi in " + block.name() + " lists a block twice");
      incoming.erase(std::unique(incoming.begin(), incoming.end()),
                     incoming.end());
    }
    if (incoming != preds) {
      error(f, "phi in " + block.name() +
                   " incoming blocks do not match predecessors");
    }
  }

  const Module& module_;
  std::vector<std::string> errors_;
};

}  // namespace

std::vector<std::string> verifyModule(const Module& module) {
  return Verifier(module).run();
}

void verifyOrThrow(const Module& module) {
  std::vector<std::string> errors = verifyModule(module);
  if (errors.empty()) return;
  std::ostringstream os;
  os << "module " << module.name() << " failed verification:";
  for (const std::string& e : errors) os << "\n  " << e;
  throw support::DiagnosticError(support::Diagnostic{
      support::Stage::Verify, module.name(), os.str()});
}

}  // namespace cayman::ir
