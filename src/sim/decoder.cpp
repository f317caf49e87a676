#include "sim/decoder.h"

#include <bit>
#include <cmath>
#include <unordered_map>
#include <utility>

#include "support/error.h"

namespace cayman::sim {

using ir::Opcode;

namespace {

/// Builder state for one decode() invocation.
struct DecodeCtx {
  DecodedFunction df;
  std::unordered_map<const ir::Value*, uint32_t> valueSlot;
  // Constants interned by word (covers int, fp, and global bases).
  std::unordered_map<uint64_t, uint32_t> constSlot;
  std::unordered_map<const ir::BasicBlock*, uint32_t> blockId;
  std::vector<uint32_t> blockEntryPc;
  // Jump/CondJump fields to patch with a block's entry pc once known.
  struct Fixup {
    size_t opIndex;
    int field;  // 1 = b, 2 = c
    uint32_t targetBlock;
  };
  std::vector<Fixup> fixups;
  // CondJump edges that need a phi parallel-copy trampoline.
  struct Trampoline {
    size_t opIndex;
    int field;
    const ir::BasicBlock* pred;
    const ir::BasicBlock* succ;
  };
  std::vector<Trampoline> trampolines;
};

MicroOpcode computeOpcodeFor(const ir::Instruction& inst) {
  switch (inst.opcode()) {
    case Opcode::Add: return MicroOpcode::Add;
    case Opcode::Sub: return MicroOpcode::Sub;
    case Opcode::Mul: return MicroOpcode::Mul;
    case Opcode::SDiv: return MicroOpcode::SDiv;
    case Opcode::SRem: return MicroOpcode::SRem;
    case Opcode::And: return MicroOpcode::And;
    case Opcode::Or: return MicroOpcode::Or;
    case Opcode::Xor: return MicroOpcode::Xor;
    case Opcode::Shl: return MicroOpcode::Shl;
    case Opcode::AShr: return MicroOpcode::AShr;
    case Opcode::LShr: return MicroOpcode::LShr;
    case Opcode::FAdd: return MicroOpcode::FAdd;
    case Opcode::FSub: return MicroOpcode::FSub;
    case Opcode::FMul: return MicroOpcode::FMul;
    case Opcode::FDiv: return MicroOpcode::FDiv;
    case Opcode::FNeg: return MicroOpcode::FNeg;
    case Opcode::FSqrt: return MicroOpcode::FSqrt;
    case Opcode::FAbs: return MicroOpcode::FAbs;
    case Opcode::FMin: return MicroOpcode::FMin;
    case Opcode::FMax: return MicroOpcode::FMax;
    case Opcode::ICmp: return MicroOpcode::ICmp;
    case Opcode::FCmp: return MicroOpcode::FCmp;
    case Opcode::Select: return MicroOpcode::SelectOp;
    case Opcode::ZExt: return MicroOpcode::ZExt;
    case Opcode::SExt: return MicroOpcode::MoveI;
    case Opcode::Trunc: return MicroOpcode::Trunc;
    case Opcode::SIToFP: return MicroOpcode::SIToFP;
    case Opcode::FPToSI: return MicroOpcode::FPToSI;
    case Opcode::Gep: return MicroOpcode::Gep;
    default:
      CAYMAN_ASSERT(false, "not a compute opcode");
  }
}

MicroOpcode loadOpcodeFor(const ir::Type* type) {
  switch (type->kind()) {
    case ir::Type::Kind::I1: return MicroOpcode::LoadI1;
    case ir::Type::Kind::I32: return MicroOpcode::LoadI32;
    case ir::Type::Kind::I64:
    case ir::Type::Kind::Ptr: return MicroOpcode::LoadI64;
    case ir::Type::Kind::F32: return MicroOpcode::LoadF32;
    case ir::Type::Kind::F64: return MicroOpcode::LoadF64;
    default:
      CAYMAN_ASSERT(false, "load of unsupported type");
  }
}

MicroOpcode storeOpcodeFor(const ir::Type* type) {
  switch (type->kind()) {
    case ir::Type::Kind::I1: return MicroOpcode::StoreI1;
    case ir::Type::Kind::I32: return MicroOpcode::StoreI32;
    case ir::Type::Kind::I64:
    case ir::Type::Kind::Ptr: return MicroOpcode::StoreI64;
    case ir::Type::Kind::F32: return MicroOpcode::StoreF32;
    case ir::Type::Kind::F64: return MicroOpcode::StoreF64;
    default:
      CAYMAN_ASSERT(false, "store of unsupported type");
  }
}

}  // namespace

DecodedFunction Decoder::decode(const ir::Function& function,
                                std::span<const NestPlan> nests) const {
  DecodeCtx ctx;
  DecodedFunction& df = ctx.df;
  df.source = &function;
  df.returnsValue = !function.returnType()->isVoid();

  // --- Slot assignment: arguments, then value-producing instructions. ------
  df.numArgs = static_cast<uint32_t>(function.numArguments());
  uint32_t nextSlot = 0;
  for (const auto& arg : function.arguments()) {
    ctx.valueSlot[arg.get()] = nextSlot++;
  }
  for (const auto& block : function.blocks()) {
    for (const auto& inst : block->instructions()) {
      if (!inst->type()->isVoid()) ctx.valueSlot[inst.get()] = nextSlot++;
    }
  }
  df.constBase = nextSlot;

  auto slotOf = [&](const ir::Value* value) -> uint32_t {
    uint64_t constant;
    switch (value->valueKind()) {
      case ir::ValueKind::ConstantInt:
        constant = static_cast<uint64_t>(
            static_cast<const ir::ConstantInt*>(value)->value());
        break;
      case ir::ValueKind::ConstantFP:
        constant = std::bit_cast<uint64_t>(
            static_cast<const ir::ConstantFP*>(value)->value());
        break;
      case ir::ValueKind::GlobalArray:
        constant =
            memory_.baseOf(static_cast<const ir::GlobalArray*>(value));
        break;
      default: {
        auto it = ctx.valueSlot.find(value);
        CAYMAN_ASSERT(it != ctx.valueSlot.end(),
                      "value not numbered in " + function.name());
        return it->second;
      }
    }
    auto [it, inserted] = ctx.constSlot.emplace(
        constant, df.constBase + static_cast<uint32_t>(df.constPool.size()));
    if (inserted) df.constPool.push_back(constant);
    return it->second;
  };

  // --- Dense block ids. -----------------------------------------------------
  for (const auto& block : function.blocks()) {
    ctx.blockId[block.get()] = static_cast<uint32_t>(df.blockOf.size());
    df.blockOf.push_back(block.get());
  }
  ctx.blockEntryPc.assign(df.numBlocks(), 0);
  CAYMAN_ASSERT(function.entry()->phis().empty(), "phi in entry block");

  // Nests to enter through CountedNest: those whose every block costs a
  // multiple of 0.5 cycles, so the counter's products are exact.
  std::vector<const NestPlan*> counted;
  std::unordered_map<const ir::BasicBlock*, uint32_t> nestEnteredFrom;
  std::vector<uint32_t> condJumpAt(df.numBlocks(), 0);
  for (const NestPlan& nest : nests) {
    bool exact = true;
    auto halves = [&](const ir::BasicBlock* block) {
      const double twice = 2.0 * model_.blockCost(*block);
      exact &= std::floor(twice) == twice;
    };
    for (const NestLoopPlan& loop : nest.loops) {
      halves(loop.header);
      for (const ir::BasicBlock* block : loop.body) halves(block);
    }
    if (!exact) continue;
    nestEnteredFrom.emplace(nest.preheader,
                            static_cast<uint32_t>(counted.size()));
    counted.push_back(&nest);
  }

  // Sequentializes the parallel copy set of edge pred->succ. Emitted copies
  // never read a slot already written by an earlier copy of the sequence;
  // cycles are broken through the scratch slot (set post-layout, see below).
  constexpr uint32_t kScratch = UINT32_MAX;
  auto emitEdgeCopies = [&](const ir::BasicBlock* pred,
                            const ir::BasicBlock* succ) {
    std::vector<std::pair<uint32_t, uint32_t>> pending;  // (dst, src)
    for (const ir::Instruction* phi : succ->phis()) {
      uint32_t dst = ctx.valueSlot.at(phi);
      uint32_t src = slotOf(phi->incomingValueFor(pred));
      if (dst != src) pending.emplace_back(dst, src);
    }
    auto emitCopy = [&](uint32_t dst, uint32_t src) {
      MicroOp op;
      op.op = MicroOpcode::Copy;
      op.dst = dst;
      op.a = src;
      df.ops.push_back(op);
    };
    while (!pending.empty()) {
      bool progressed = false;
      for (size_t i = 0; i < pending.size(); ++i) {
        uint32_t dst = pending[i].first;
        bool isSource = false;
        for (size_t j = 0; j < pending.size(); ++j) {
          if (j != i && pending[j].second == dst) { isSource = true; break; }
        }
        if (isSource) continue;
        emitCopy(dst, pending[i].second);
        pending.erase(pending.begin() + static_cast<long>(i));
        progressed = true;
        --i;
      }
      if (progressed || pending.empty()) continue;
      // Every remaining destination is still needed as a source: a cycle.
      // Park one destination in scratch and redirect its readers there.
      uint32_t parked = pending.front().first;
      emitCopy(kScratch, parked);
      for (auto& copy : pending) {
        if (copy.second == parked) copy.second = kScratch;
      }
    }
  };

  // --- Emit blocks in layout order. -----------------------------------------
  for (const auto& blockPtr : function.blocks()) {
    const ir::BasicBlock* block = blockPtr.get();
    uint32_t id = ctx.blockId.at(block);
    ctx.blockEntryPc[id] = static_cast<uint32_t>(df.ops.size());
    {
      MicroOp head;
      head.op = MicroOpcode::BlockHead;
      head.a = static_cast<uint32_t>(block->size());
      head.b = id;
      head.imm = std::bit_cast<int64_t>(model_.blockCost(*block));
      df.ops.push_back(head);
    }
    CAYMAN_ASSERT(block->hasTerminator(),
                  "block " + block->name() + " lacks a terminator");
    for (const auto& instPtr : block->instructions()) {
      const ir::Instruction* inst = instPtr.get();
      switch (inst->opcode()) {
        case Opcode::Phi:
          continue;  // materialized on incoming edges
        case Opcode::Br: {
          const ir::BasicBlock* succ = inst->successors()[0];
          emitEdgeCopies(block, succ);
          MicroOp op;
          op.op = MicroOpcode::Jump;
          if (auto it = nestEnteredFrom.find(block);
              it != nestEnteredFrom.end()) {
            op.op = MicroOpcode::CountedNest;
            op.a = it->second;
          }
          ctx.fixups.push_back({df.ops.size(), 1, ctx.blockId.at(succ)});
          df.ops.push_back(op);
          break;
        }
        case Opcode::CondBr: {
          MicroOp op;
          op.op = MicroOpcode::CondJump;
          op.a = slotOf(inst->operand(0));
          size_t opIndex = df.ops.size();
          condJumpAt[id] = static_cast<uint32_t>(opIndex);
          df.ops.push_back(op);
          const ir::BasicBlock* succs[2] = {inst->successors()[0],
                                            inst->successors()[1]};
          for (int field = 1; field <= 2; ++field) {
            const ir::BasicBlock* succ = succs[field - 1];
            if (succ->phis().empty()) {
              ctx.fixups.push_back({opIndex, field, ctx.blockId.at(succ)});
            } else {
              ctx.trampolines.push_back({opIndex, field, block, succ});
            }
          }
          break;
        }
        case Opcode::Ret: {
          MicroOp op;
          op.op = MicroOpcode::Ret;
          if (inst->numOperands() == 1) {
            op.aux = 1;
            op.a = slotOf(inst->operand(0));
          }
          df.ops.push_back(op);
          break;
        }
        case Opcode::Call: {
          MicroOp op;
          op.op = MicroOpcode::Call;
          op.imm = static_cast<int64_t>(df.callees.size());
          df.callees.push_back(inst->callee());
          op.a = static_cast<uint32_t>(df.callArgSlots.size());
          op.b = static_cast<uint32_t>(inst->numOperands());
          for (const ir::Value* operand : inst->operands()) {
            df.callArgSlots.push_back(slotOf(operand));
          }
          if (!inst->type()->isVoid()) {
            op.aux = 1;
            op.dst = ctx.valueSlot.at(inst);
          }
          df.ops.push_back(op);
          break;
        }
        case Opcode::Load: {
          MicroOp op;
          op.op = loadOpcodeFor(inst->type());
          op.dst = ctx.valueSlot.at(inst);
          op.a = slotOf(inst->operand(0));
          df.ops.push_back(op);
          break;
        }
        case Opcode::Store: {
          MicroOp op;
          op.op = storeOpcodeFor(inst->operand(0)->type());
          op.a = slotOf(inst->operand(0));
          op.b = slotOf(inst->operand(1));
          df.ops.push_back(op);
          break;
        }
        default: {
          MicroOp op;
          op.op = computeOpcodeFor(*inst);
          op.dst = ctx.valueSlot.at(inst);
          op.a = slotOf(inst->operand(0));
          if (inst->numOperands() > 1) op.b = slotOf(inst->operand(1));
          if (inst->numOperands() > 2) op.c = slotOf(inst->operand(2));
          const ir::Type::Kind kind = inst->type()->kind();
          bool wrapResult = false;
          switch (inst->opcode()) {
            case Opcode::Add: case Opcode::Sub: case Opcode::Mul:
            case Opcode::SDiv: case Opcode::SRem: case Opcode::Shl:
              wrapResult =
                  kind == ir::Type::Kind::I1 || kind == ir::Type::Kind::I32;
              break;
            case Opcode::Trunc: case Opcode::FPToSI:
              op.aux = static_cast<uint16_t>(kind);
              break;
            case Opcode::ZExt:
              op.aux = static_cast<uint16_t>(inst->operand(0)->type()->kind());
              break;
            case Opcode::ICmp:
              op.aux = icmpOutcomeMask(inst->cmpPred());
              break;
            case Opcode::FCmp:
              op.aux = static_cast<uint16_t>(inst->cmpPred());
              break;
            case Opcode::Gep:
              op.imm = static_cast<int64_t>(inst->gepElemSize());
              break;
            default:
              break;
          }
          df.ops.push_back(op);
          if (wrapResult) {
            // Arithmetic micro-ops compute in 64 bits; a narrow result
            // wraps in place, as the reference engine's wrapInt does.
            MicroOp wrap;
            wrap.op = MicroOpcode::Trunc;
            wrap.aux = static_cast<uint16_t>(kind);
            wrap.dst = op.dst;
            wrap.a = op.dst;
            df.ops.push_back(wrap);
          }
          break;
        }
      }
    }
  }

  // --- Phi-edge trampolines for conditional branches. -----------------------
  for (const DecodeCtx::Trampoline& tramp : ctx.trampolines) {
    uint32_t pc = static_cast<uint32_t>(df.ops.size());
    emitEdgeCopies(tramp.pred, tramp.succ);
    MicroOp op;
    op.op = MicroOpcode::Jump;
    ctx.fixups.push_back({df.ops.size(), 1, ctx.blockId.at(tramp.succ)});
    df.ops.push_back(op);
    MicroOp& site = df.ops[tramp.opIndex];
    (tramp.field == 1 ? site.b : site.c) = pc;
  }

  // --- Patch direct jump targets. -------------------------------------------
  for (const DecodeCtx::Fixup& fixup : ctx.fixups) {
    MicroOp& site = df.ops[fixup.opIndex];
    (fixup.field == 1 ? site.b : site.c) = ctx.blockEntryPc[fixup.targetBlock];
  }

  // --- Counted nests, resolved against the frame layout. -------------------
  for (const NestPlan* plan : counted) {
    DecodedNest& nest = df.nests.emplace_back();
    const ir::BasicBlock* rootHeader = plan->loops.front().header;
    const MicroOp& test = df.ops[condJumpAt[ctx.blockId.at(rootHeader)]];
    nest.exitPc =
        rootHeader->terminator()->successors()[0] == plan->exit ? test.b
                                                                 : test.c;
    auto resolve = [&](const LinearForm& form) {
      FrameLinear out;
      out.constant = form.constant;
      for (const auto& [symbol, coeff] : form.terms) {
        if (const auto* global = ir::dynCast<ir::GlobalArray>(symbol)) {
          out.constant += coeff * memory_.baseOf(global);
          continue;
        }
        FrameLinear::Term term;
        term.coeff = coeff;
        term.index = ctx.valueSlot.at(symbol);
        for (uint32_t i = 0; i < plan->loops.size(); ++i) {
          if (plan->loops[i].iv == symbol) {
            term.iv = true;
            term.index = i;
          }
        }
        out.terms.push_back(term);
      }
      return out;
    };
    for (const NestLoopPlan& loopPlan : plan->loops) {
      DecodedNestLoop& loop = nest.loops.emplace_back();
      loop.header = ctx.blockId.at(loopPlan.header);
      loop.headerSize = loopPlan.header->size();
      loop.headerCost = model_.blockCost(*loopPlan.header);
      for (const ir::BasicBlock* block : loopPlan.body) {
        loop.body.push_back(ctx.blockId.at(block));
        loop.bodySize += block->size();
        loop.bodyCost += model_.blockCost(*block);
      }
      loop.init = resolve(loopPlan.init);
      loop.bound = resolve(loopPlan.bound);
      loop.step = loopPlan.step;
      loop.pred = loopPlan.pred;
      for (const FrameLinear* form : {&loop.init, &loop.bound}) {
        for (const FrameLinear::Term& term : form->terms) {
          if (term.iv) loop.ivUses |= uint64_t{1} << term.index;
        }
      }
    }
    // Pre-order: children follow their parent, so one backward pass
    // links them and folds each subtree's counter uses upward.
    for (size_t i = nest.loops.size(); i-- > 1;) {
      DecodedNestLoop& parent =
          nest.loops[static_cast<size_t>(plan->loops[i].parent)];
      parent.children.insert(parent.children.begin(),
                             static_cast<uint32_t>(i));
      parent.ivUses |= nest.loops[i].ivUses;
    }
    for (const NestAccessPlan& accessPlan : plan->accesses) {
      DecodedNest::Access& access = nest.accesses.emplace_back();
      access.address = resolve(accessPlan.address);
      access.bytes = accessPlan.bytes;
      access.loop = accessPlan.loop;
      access.inHeader = accessPlan.inHeader;
    }
  }

  // --- Final frame layout; rewrite parked scratch references. ---------------
  df.scratchSlot = df.constBase + static_cast<uint32_t>(df.constPool.size());
  df.frameSize = df.scratchSlot + 1;
  for (MicroOp& op : df.ops) {
    if (op.op != MicroOpcode::Copy) continue;
    if (op.dst == kScratch) op.dst = df.scratchSlot;
    if (op.a == kScratch) op.a = df.scratchSlot;
  }
  return df;
}

}  // namespace cayman::sim
