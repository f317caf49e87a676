#include "sim/decoder.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "support/error.h"

namespace cayman::sim {

using ir::Opcode;

namespace {

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

/// Arithmetic, compare, cast, select and gep: total functions of their
/// operand words in this interpreter, so a live nest's stream may hoist them.
bool isPure(Opcode op) {
  switch (op) {
    case Opcode::Load: case Opcode::Store: case Opcode::Br:
    case Opcode::CondBr: case Opcode::Phi: case Opcode::Call:
    case Opcode::Ret:
      return false;
    default:
      return true;
  }
}


/// Frame-slot placeholders, rewritten once the constant pool is final: the
/// scratch slot that breaks phi-copy cycles and, counting down below it, the
/// temporaries of live-nest streams. No pc or other field comes near them.
constexpr uint32_t kScratch = UINT32_MAX;

/// The state of one Decoder::decode() call.
class FunctionDecoder {
 public:
  FunctionDecoder(const ir::Function& function, const SimMemory& memory,
                  const CpuCostModel& model);

  DecodedFunction decode(std::span<const NestPlan> nests) &&;

  // Shared by block lowering and the live-nest streams.
  std::vector<MicroOp>& ops() { return df_.ops; }
  const ir::Function& function() const { return function_; }
  const ir::BasicBlock* blockOf(uint32_t id) const { return df_.blockOf[id]; }
  uint32_t blockId(const ir::BasicBlock* block) const {
    return blockId_.at(block);
  }
  uint32_t valueSlot(const ir::Value* value) const {
    return valueSlot_.at(value);
  }
  uint32_t slotOf(const ir::Value* value);
  uint32_t constantSlot(uint64_t constant);
  uint32_t newTemp() { return kScratch - 1 - numTemps_++; }
  void emitEdgeCopies(const ir::BasicBlock* pred, const ir::BasicBlock* succ);
  void emitValueOp(const ir::Instruction* inst);

 private:
  void emitBlock(const ir::BasicBlock* block);
  DecodedNest resolveNest(const NestPlan& plan);

  const ir::Function& function_;
  const SimMemory& memory_;
  const CpuCostModel& model_;
  DecodedFunction df_;
  std::unordered_map<const ir::Value*, uint32_t> valueSlot_;
  // Constants interned by word (covers int, fp, and global bases).
  std::unordered_map<uint64_t, uint32_t> constSlot_;
  std::unordered_map<const ir::BasicBlock*, uint32_t> blockId_;
  std::vector<uint32_t> blockEntryPc_;
  // Jump/CondJump fields to patch with a block's entry pc once known.
  struct Fixup {
    size_t opIndex;
    int field;  // 1 = b, 2 = c
    uint32_t targetBlock;
  };
  std::vector<Fixup> fixups_;
  // CondJump edges that need a phi parallel-copy trampoline.
  struct Trampoline {
    size_t opIndex;
    int field;
    const ir::BasicBlock* pred;
    const ir::BasicBlock* succ;
  };
  std::vector<Trampoline> trampolines_;
  // Preheaders that enter a counted nest, by DecodedFunction::nests index.
  std::unordered_map<const ir::BasicBlock*, uint32_t> nestEnteredFrom_;
  std::vector<uint32_t> condJumpAt_;  ///< by block id
  uint32_t numTemps_ = 0;
};

/// Emits the value stream of one live nest (DESIGN.md §20). A counted entry
/// has already added the nest's block counts, so the stream runs only the
/// value operations: no BlockHead, no jump between blocks, and one LoopStep
/// per iteration that evaluates the header test. Each loop is rotated: the
/// operations hoisted to its entry, a jump to its test, one iteration in
/// NestBuilder's walk order (own blocks, child loops inline, the latch)
/// with the phi copies of each edge it takes, then the header's operations
/// and the LoopStep, which branches back to the iteration.
class LiveStream {
 public:
  LiveStream(FunctionDecoder& decoder, const NestPlan& plan,
             const DecodedNest& nest);

  /// Appends the stream to the decoder's ops; returns its first pc.
  uint32_t emit();

 private:
  /// A loop's iteration after its header: a block id, or ~index of a child.
  using Step = int64_t;
  struct Address {
    uint32_t slot = 0;
    std::optional<MicroOp> inPlace;  ///< adds the access loop's counter
  };

  uint32_t parentOf(uint32_t loop) const {
    return static_cast<uint32_t>(plan_.loops[loop].parent);
  }
  const ir::Instruction* inNest(const ir::Value* value) const;
  void findNeeded();
  void hoistFrom(const ir::BasicBlock* block);
  void planHoisting(uint32_t loop);
  void planAddresses();
  void emitLoop(uint32_t loop);
  void emitInPlace(const ir::Instruction* inst);
  void coalesce(size_t iteration, const std::vector<size_t>& own,
                size_t copies);

  FunctionDecoder& decoder_;
  std::vector<MicroOp>& ops_;
  const NestPlan& plan_;
  const DecodedNest& nest_;
  std::vector<uint32_t> depth_;  ///< by nest loop; the root is 0
  std::unordered_map<const ir::BasicBlock*, uint32_t> loopOf_;
  std::vector<std::vector<Step>> steps_;
  std::unordered_set<const ir::Instruction*> needed_;
  std::unordered_map<const ir::Instruction*, uint32_t> hoistedTo_;
  std::vector<std::vector<const ir::Instruction*>> hoisted_;
  std::unordered_map<const ir::Instruction*, Address> addresses_;
  std::vector<std::vector<MicroOp>> entryOps_;  ///< address partial sums
};

// --- FunctionDecoder ---------------------------------------------------------

FunctionDecoder::FunctionDecoder(const ir::Function& function,
                                 const SimMemory& memory,
                                 const CpuCostModel& model)
    : function_(function), memory_(memory), model_(model) {
  df_.source = &function;
  df_.returnsValue = !function.returnType()->isVoid();

  // Slot assignment: arguments, then value-producing instructions.
  df_.numArgs = static_cast<uint32_t>(function.numArguments());
  uint32_t nextSlot = 0;
  for (const auto& arg : function.arguments()) {
    valueSlot_[arg.get()] = nextSlot++;
  }
  for (const auto& block : function.blocks()) {
    for (const auto& inst : block->instructions()) {
      if (!inst->type()->isVoid()) valueSlot_[inst.get()] = nextSlot++;
    }
  }
  df_.constBase = nextSlot;

  // Dense block ids.
  for (const auto& block : function.blocks()) {
    blockId_[block.get()] = static_cast<uint32_t>(df_.blockOf.size());
    df_.blockOf.push_back(block.get());
  }
  blockEntryPc_.assign(df_.numBlocks(), 0);
  condJumpAt_.assign(df_.numBlocks(), 0);
  CAYMAN_ASSERT(function.entry()->phis().empty(), "phi in entry block");
}

uint32_t FunctionDecoder::constantSlot(uint64_t constant) {
  auto [it, inserted] = constSlot_.emplace(
      constant, df_.constBase + static_cast<uint32_t>(df_.constPool.size()));
  if (inserted) df_.constPool.push_back(constant);
  return it->second;
}

uint32_t FunctionDecoder::slotOf(const ir::Value* value) {
  switch (value->valueKind()) {
    case ir::ValueKind::ConstantInt:
      return constantSlot(static_cast<uint64_t>(
          static_cast<const ir::ConstantInt*>(value)->value()));
    case ir::ValueKind::ConstantFP:
      return constantSlot(std::bit_cast<uint64_t>(
          static_cast<const ir::ConstantFP*>(value)->value()));
    case ir::ValueKind::GlobalArray:
      return constantSlot(
          memory_.baseOf(static_cast<const ir::GlobalArray*>(value)));
    default: {
      auto it = valueSlot_.find(value);
      CAYMAN_ASSERT(it != valueSlot_.end(),
                    "value not numbered in " + function_.name());
      return it->second;
    }
  }
}

// Sequentializes the parallel copy set of edge pred->succ. Emitted copies
// never read a slot already written by an earlier copy of the sequence;
// cycles are broken through the scratch slot (set post-layout, see below).
void FunctionDecoder::emitEdgeCopies(const ir::BasicBlock* pred,
                                     const ir::BasicBlock* succ) {
  std::vector<std::pair<uint32_t, uint32_t>> pending;  // (dst, src)
  for (const ir::Instruction* phi : succ->phis()) {
    uint32_t dst = valueSlot_.at(phi);
    uint32_t src = slotOf(phi->incomingValueFor(pred));
    if (dst != src) pending.emplace_back(dst, src);
  }
  auto emitCopy = [&](uint32_t dst, uint32_t src) {
    MicroOp op;
    op.op = MicroOpcode::Copy;
    op.dst = dst;
    op.a = src;
    df_.ops.push_back(op);
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
}

// Loads, stores and the pure operations: everything that computes a value,
// as opposed to control flow, phis and calls.
void FunctionDecoder::emitValueOp(const ir::Instruction* inst) {
  MicroOp op;
  if (inst->opcode() == Opcode::Load) {
    op.op = loadOpcodeFor(inst->type());
    op.dst = valueSlot_.at(inst);
    op.a = slotOf(inst->operand(0));
    df_.ops.push_back(op);
    return;
  }
  if (inst->opcode() == Opcode::Store) {
    op.op = storeOpcodeFor(inst->operand(0)->type());
    op.a = slotOf(inst->operand(0));
    op.b = slotOf(inst->operand(1));
    df_.ops.push_back(op);
    return;
  }
  op.op = computeOpcodeFor(*inst);
  op.dst = valueSlot_.at(inst);
  op.a = slotOf(inst->operand(0));
  if (inst->numOperands() > 1) op.b = slotOf(inst->operand(1));
  if (inst->numOperands() > 2) op.c = slotOf(inst->operand(2));
  const ir::Type::Kind kind = inst->type()->kind();
  bool wrapResult = false;
  switch (inst->opcode()) {
    case Opcode::Add: case Opcode::Sub: case Opcode::Mul:
    case Opcode::SDiv: case Opcode::SRem: case Opcode::Shl:
      wrapResult = kind == ir::Type::Kind::I1 || kind == ir::Type::Kind::I32;
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
  df_.ops.push_back(op);
  if (wrapResult) {
    // Arithmetic micro-ops compute in 64 bits; a narrow result wraps in
    // place, as the reference engine's wrapInt does.
    MicroOp wrap;
    wrap.op = MicroOpcode::Trunc;
    wrap.aux = static_cast<uint16_t>(kind);
    wrap.dst = op.dst;
    wrap.a = op.dst;
    df_.ops.push_back(wrap);
  }
}

void FunctionDecoder::emitBlock(const ir::BasicBlock* block) {
  const uint32_t id = blockId_.at(block);
  blockEntryPc_[id] = static_cast<uint32_t>(df_.ops.size());
  {
    MicroOp head;
    head.op = MicroOpcode::BlockHead;
    head.a = static_cast<uint32_t>(block->size());
    head.b = id;
    head.imm = std::bit_cast<int64_t>(model_.blockCost(*block));
    df_.ops.push_back(head);
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
        if (auto it = nestEnteredFrom_.find(block);
            it != nestEnteredFrom_.end()) {
          op.op = MicroOpcode::CountedNest;
          op.a = it->second;
        }
        fixups_.push_back({df_.ops.size(), 1, blockId_.at(succ)});
        df_.ops.push_back(op);
        break;
      }
      case Opcode::CondBr: {
        MicroOp op;
        op.op = MicroOpcode::CondJump;
        op.a = slotOf(inst->operand(0));
        size_t opIndex = df_.ops.size();
        condJumpAt_[id] = static_cast<uint32_t>(opIndex);
        df_.ops.push_back(op);
        const ir::BasicBlock* succs[2] = {inst->successors()[0],
                                          inst->successors()[1]};
        for (int field = 1; field <= 2; ++field) {
          const ir::BasicBlock* succ = succs[field - 1];
          if (succ->phis().empty()) {
            fixups_.push_back({opIndex, field, blockId_.at(succ)});
          } else {
            trampolines_.push_back({opIndex, field, block, succ});
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
        df_.ops.push_back(op);
        break;
      }
      case Opcode::Call: {
        MicroOp op;
        op.op = MicroOpcode::Call;
        op.imm = static_cast<int64_t>(df_.callees.size());
        df_.callees.push_back(inst->callee());
        op.a = static_cast<uint32_t>(df_.callArgSlots.size());
        op.b = static_cast<uint32_t>(inst->numOperands());
        for (const ir::Value* operand : inst->operands()) {
          df_.callArgSlots.push_back(slotOf(operand));
        }
        if (!inst->type()->isVoid()) {
          op.aux = 1;
          op.dst = valueSlot_.at(inst);
        }
        df_.ops.push_back(op);
        break;
      }
      default:
        emitValueOp(inst);
        break;
    }
  }
}

// A planned nest resolved against the frame layout: global bases fold into
// constants, other outside values become frame slots.
DecodedNest FunctionDecoder::resolveNest(const NestPlan& plan) {
  DecodedNest nest;
  const ir::BasicBlock* rootHeader = plan.loops.front().header;
  const MicroOp& test = df_.ops[condJumpAt_[blockId_.at(rootHeader)]];
  nest.exitPc =
      rootHeader->terminator()->successors()[0] == plan.loops.front().exit
          ? test.b
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
      term.index = valueSlot_.at(symbol);
      for (uint32_t i = 0; i < plan.loops.size(); ++i) {
        if (plan.loops[i].iv == symbol) {
          term.iv = true;
          term.index = i;
        }
      }
      out.terms.push_back(term);
    }
    return out;
  };
  for (const NestLoopPlan& loopPlan : plan.loops) {
    DecodedNestLoop& loop = nest.loops.emplace_back();
    loop.header = blockId_.at(loopPlan.header);
    loop.headerSize = loopPlan.header->size();
    loop.headerCost = model_.blockCost(*loopPlan.header);
    for (const ir::BasicBlock* block : loopPlan.body) {
      loop.body.push_back(blockId_.at(block));
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
  // Pre-order: children follow their parent, so one backward pass links
  // them and folds each subtree's counter uses upward.
  for (size_t i = nest.loops.size(); i-- > 1;) {
    DecodedNestLoop& parent =
        nest.loops[static_cast<size_t>(plan.loops[i].parent)];
    parent.children.insert(parent.children.begin(), static_cast<uint32_t>(i));
    parent.ivUses |= nest.loops[i].ivUses;
  }
  for (const NestAccessPlan& accessPlan : plan.accesses) {
    DecodedNest::Access& access = nest.accesses.emplace_back();
    access.address = resolve(accessPlan.address);
    access.bytes = accessPlan.bytes;
    access.loop = accessPlan.loop;
    access.inHeader = accessPlan.inHeader;
  }
  return nest;
}

DecodedFunction FunctionDecoder::decode(std::span<const NestPlan> nests) && {
  // Nests to enter through CountedNest: those whose every block costs a
  // multiple of 0.5 cycles, so the counter's products are exact.
  std::vector<const NestPlan*> counted;
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
    nestEnteredFrom_.emplace(nest.preheader,
                             static_cast<uint32_t>(counted.size()));
    counted.push_back(&nest);
  }

  // Blocks in layout order.
  for (const auto& block : function_.blocks()) emitBlock(block.get());

  // Phi-edge trampolines for conditional branches.
  for (const Trampoline& tramp : trampolines_) {
    uint32_t pc = static_cast<uint32_t>(df_.ops.size());
    emitEdgeCopies(tramp.pred, tramp.succ);
    MicroOp op;
    op.op = MicroOpcode::Jump;
    fixups_.push_back({df_.ops.size(), 1, blockId_.at(tramp.succ)});
    df_.ops.push_back(op);
    MicroOp& site = df_.ops[tramp.opIndex];
    (tramp.field == 1 ? site.b : site.c) = pc;
  }

  // Direct jump targets.
  for (const Fixup& fixup : fixups_) {
    MicroOp& site = df_.ops[fixup.opIndex];
    (fixup.field == 1 ? site.b : site.c) = blockEntryPc_[fixup.targetBlock];
  }

  // Counted nests, and the value streams of the live ones.
  for (const NestPlan* plan : counted) {
    DecodedNest& nest = df_.nests.emplace_back(resolveNest(*plan));
    nest.streamPc =
        plan->live ? LiveStream(*this, *plan, nest).emit() : nest.exitPc;
  }

  // Final frame layout [... | constant pool | scratch | temporaries]; the
  // placeholders become slots.
  df_.scratchSlot =
      df_.constBase + static_cast<uint32_t>(df_.constPool.size());
  df_.frameSize = df_.scratchSlot + 1 + numTemps_;
  const uint32_t lowest = kScratch - numTemps_;
  for (MicroOp& op : df_.ops) {
    for (uint32_t* field : {&op.dst, &op.a, &op.b}) {
      if (*field >= lowest) *field = df_.scratchSlot + (kScratch - *field);
    }
  }
  return std::move(df_);
}

// --- LiveStream --------------------------------------------------------------

LiveStream::LiveStream(FunctionDecoder& decoder, const NestPlan& plan,
                       const DecodedNest& nest)
    : decoder_(decoder),
      ops_(decoder.ops()),
      plan_(plan),
      nest_(nest),
      depth_(plan.loops.size(), 0),
      steps_(plan.loops.size()),
      hoisted_(plan.loops.size()),
      entryOps_(plan.loops.size()) {
  const uint32_t n = static_cast<uint32_t>(plan.loops.size());
  for (uint32_t k = 0; k < n; ++k) {
    const NestLoopPlan& loop = plan.loops[k];
    if (loop.parent >= 0) depth_[k] = depth_[parentOf(k)] + 1;
    loopOf_[loop.header] = k;
    for (const ir::BasicBlock* block : loop.body) loopOf_[block] = k;
  }
  // The iteration NestBuilder walked: every own block ends in a jump, and a
  // child loop continues at its exit.
  for (uint32_t k = 0; k < n; ++k) {
    const NestLoopPlan& loop = plan.loops[k];
    const ir::Instruction* test = loop.header->terminator();
    const ir::BasicBlock* cur = test->successors()[0] == loop.exit
                                    ? test->successors()[1]
                                    : test->successors()[0];
    while (cur != loop.header) {
      const uint32_t owner = loopOf_.at(cur);
      if (owner == k) {
        steps_[k].push_back(decoder.blockId(cur));
        cur = cur->terminator()->successors()[0];
      } else {
        steps_[k].push_back(~static_cast<Step>(owner));
        cur = plan.loops[owner].exit;
      }
    }
  }
}

const ir::Instruction* LiveStream::inNest(const ir::Value* value) const {
  const auto* inst = ir::dynCast<ir::Instruction>(value);
  return inst != nullptr && loopOf_.contains(inst->parent()) ? inst : nullptr;
}

// The pure operations the stream computes: those read by something other
// than an access address, in or after the nest. The stream forms each
// address from the access's linear form, which NestBuilder proved exact in
// the interpreter's arithmetic, so arithmetic that only feeds addresses is
// not run.
void LiveStream::findNeeded() {
  std::vector<const ir::Instruction*> work;
  auto need = [&](const ir::Value* value) {
    const ir::Instruction* inst = inNest(value);
    if (inst != nullptr && needed_.insert(inst).second) work.push_back(inst);
  };
  for (const auto& block : decoder_.function().blocks()) {
    const bool inside = loopOf_.contains(block.get());
    for (const auto& inst : block->instructions()) {
      const Opcode op = inst->opcode();
      if (inside && isPure(op)) continue;  // needed only if its value is
      for (size_t i = 0; i < inst->numOperands(); ++i) {
        const bool address = inside && ((op == Opcode::Load && i == 0) ||
                                        (op == Opcode::Store && i == 1));
        if (!address) need(inst->operand(i));
      }
    }
  }
  while (!work.empty()) {
    const ir::Instruction* inst = work.back();
    work.pop_back();
    if (!isPure(inst->opcode())) continue;  // its operands are roots above
    for (const ir::Value* operand : inst->operands()) need(operand);
  }
}

// A needed pure operation runs at the entry of the outermost nest loop in
// which each operand is defined outside the loop or hoisted to its entry or
// further out. A hoisted body operation is read only by blocks it
// dominates, so when its loop runs zero times nothing reads its slot; a
// header operation runs at least once per entry anyway.
void LiveStream::hoistFrom(const ir::BasicBlock* block) {
  const uint32_t k = loopOf_.at(block);
  for (const auto& inst : block->instructions()) {
    if (!isPure(inst->opcode()) || !needed_.contains(inst.get())) continue;
    uint32_t outermost = 0;  // depth of the outermost loop it may run at
    for (const ir::Value* operand : inst->operands()) {
      const ir::Instruction* def = inNest(operand);
      if (def == nullptr) continue;
      // A loop holding the definition cannot hoist its use.
      uint32_t a = loopOf_.at(def->parent());
      uint32_t b = k;
      while (depth_[a] > depth_[b]) a = parentOf(a);
      while (depth_[b] > depth_[a]) b = parentOf(b);
      while (a != b) {
        a = parentOf(a);
        b = parentOf(b);
      }
      uint32_t ready = depth_[a] + 1;
      if (auto it = hoistedTo_.find(def); it != hoistedTo_.end()) {
        ready = std::min(ready, depth_[it->second]);
      }
      outermost = std::max(outermost, ready);
    }
    if (outermost > depth_[k]) continue;
    uint32_t target = k;
    while (depth_[target] > outermost) target = parentOf(target);
    hoistedTo_.emplace(inst.get(), target);
    hoisted_[target].push_back(inst.get());
  }
}

// In walk order, the header first: definitions come before their uses.
void LiveStream::planHoisting(uint32_t loop) {
  hoistFrom(plan_.loops[loop].header);
  for (Step step : steps_[loop]) {
    if (step >= 0) {
      hoistFrom(decoder_.blockOf(static_cast<uint32_t>(step)));
    } else {
      planHoisting(static_cast<uint32_t>(~step));
    }
  }
}

// Each access's address: the constant and outside terms at the root's
// entry, one partial sum per enclosing loop formed at the entry of the loop
// below it, and the access loop's own counter term in place. Each is a Gep
// (a + b * imm), which wraps exactly like the linear form.
void LiveStream::planAddresses() {
  for (size_t i = 0; i < plan_.accesses.size(); ++i) {
    const FrameLinear& form = nest_.accesses[i].address;
    Address& address = addresses_[plan_.accesses[i].inst];
    address.slot = decoder_.constantSlot(form.constant);
    auto term = [&](uint32_t symbol, uint64_t coeff) {
      MicroOp op;
      op.op = MicroOpcode::Gep;
      op.dst = decoder_.newTemp();
      op.a = address.slot;
      op.b = symbol;
      op.imm = static_cast<int64_t>(coeff);
      address.slot = op.dst;
      return op;
    };
    for (const FrameLinear::Term& t : form.terms) {
      if (!t.iv) entryOps_[0].push_back(term(t.index, t.coeff));
    }
    std::vector<uint32_t> chain;  // the root first
    for (int k = static_cast<int>(plan_.accesses[i].loop); k >= 0;
         k = plan_.loops[static_cast<size_t>(k)].parent) {
      chain.insert(chain.begin(), static_cast<uint32_t>(k));
    }
    for (size_t level = 0; level < chain.size(); ++level) {
      for (const FrameLinear::Term& t : form.terms) {
        if (!t.iv || t.index != chain[level] || t.coeff == 0) continue;
        const MicroOp op =
            term(decoder_.valueSlot(plan_.loops[t.index].iv), t.coeff);
        if (level + 1 < chain.size()) {
          entryOps_[chain[level + 1]].push_back(op);
        } else {
          address.inPlace = op;
        }
      }
    }
  }
}

uint32_t LiveStream::emit() {
  findNeeded();
  planHoisting(0);
  planAddresses();
  const uint32_t start = static_cast<uint32_t>(ops_.size());
  emitLoop(0);
  return start;
}

void LiveStream::emitInPlace(const ir::Instruction* inst) {
  const Opcode op = inst->opcode();
  if (op == Opcode::Phi || inst->isTerminator() || hoistedTo_.contains(inst) ||
      (isPure(op) && !needed_.contains(inst))) {
    return;
  }
  if (op != Opcode::Load && op != Opcode::Store) {
    decoder_.emitValueOp(inst);
    return;
  }
  const Address& address = addresses_.at(inst);
  if (address.inPlace.has_value()) ops_.push_back(*address.inPlace);
  decoder_.emitValueOp(inst);
  (op == Opcode::Load ? ops_.back().a : ops_.back().b) = address.slot;
}

void LiveStream::emitLoop(uint32_t k) {
  const NestLoopPlan& loop = plan_.loops[k];
  ops_.insert(ops_.end(), entryOps_[k].begin(), entryOps_[k].end());
  for (const ir::Instruction* inst : hoisted_[k]) decoder_.emitValueOp(inst);
  const size_t toTest = ops_.size();
  ops_.push_back(MicroOp{MicroOpcode::Jump});
  const uint32_t iteration = static_cast<uint32_t>(ops_.size());
  const ir::Instruction* branch = loop.header->terminator();
  const bool trueStays = branch->successors()[0] != loop.exit;
  decoder_.emitEdgeCopies(loop.header,
                          branch->successors()[trueStays ? 0 : 1]);
  std::vector<size_t> own;  // the ops of this loop's own blocks
  size_t latchCopies = 0;
  for (Step step : steps_[k]) {
    if (step < 0) {
      const uint32_t child = static_cast<uint32_t>(~step);
      emitLoop(child);
      decoder_.emitEdgeCopies(plan_.loops[child].header,
                              plan_.loops[child].exit);
      continue;
    }
    const ir::BasicBlock* block =
        decoder_.blockOf(static_cast<uint32_t>(step));
    for (const auto& inst : block->instructions()) {
      const size_t from = ops_.size();
      emitInPlace(inst.get());
      for (size_t at = from; at < ops_.size(); ++at) own.push_back(at);
    }
    latchCopies = ops_.size();  // the latch is the last own block
    decoder_.emitEdgeCopies(block, block->terminator()->successors()[0]);
  }
  coalesce(iteration, own, latchCopies);
  ops_[toTest].b = static_cast<uint32_t>(ops_.size());

  // The header's operations, then its test, which the LoopStep evaluates
  // itself when nothing after it in the header could read its result.
  const auto* cmp = static_cast<const ir::Instruction*>(branch->operand(0));
  const auto& insts = loop.header->instructions();
  for (const auto& inst : insts) {
    if (inst.get() == cmp && insts[insts.size() - 2].get() == cmp) break;
    emitInPlace(inst.get());
  }
  MicroOp stepOp;
  stepOp.op = MicroOpcode::LoopStep;
  stepOp.dst = decoder_.valueSlot(cmp);
  stepOp.a = decoder_.slotOf(cmp->operand(0));
  stepOp.b = decoder_.slotOf(cmp->operand(1));
  const uint16_t mask = icmpOutcomeMask(cmp->cmpPred());
  const uint16_t stay = trueStays ? mask : static_cast<uint16_t>(~mask & 7);
  stepOp.aux = static_cast<uint16_t>(mask | stay << 3);
  stepOp.c = iteration;
  // The root leaves the nest; an inner loop falls through to its exit edge.
  stepOp.imm =
      k == 0 ? nest_.exitPc : static_cast<int64_t>(ops_.size() + 1);
  ops_.push_back(stepOp);
}

// A latch copy `phi <- v` is dropped when v is written once per iteration,
// by an op of the loop's own blocks, and nothing after that op in the
// iteration reads or writes the phi: the op then writes the phi's slot
// itself and later readers of v read it there.
void LiveStream::coalesce(size_t iteration, const std::vector<size_t>& own,
                          size_t copies) {
  auto writes = [](const MicroOp& op) {
    return op.op != MicroOpcode::Jump &&
           (op.op < MicroOpcode::StoreI1 || op.op > MicroOpcode::StoreF64);
  };
  auto forEachRead = [](MicroOp& op, auto&& visit) {
    if (op.op == MicroOpcode::Jump) return;
    visit(op.a);
    visit(op.b);
    if (op.op != MicroOpcode::LoopStep) visit(op.c);
  };
  for (const MicroOp& op : std::span(ops_).subspan(copies)) {
    if (op.dst == kScratch || op.a == kScratch) return;
  }
  std::vector<uint32_t> merged;  // phis whose slot an op now writes
  for (size_t at = copies; at < ops_.size();) {
    const uint32_t phi = ops_[at].dst;
    const uint32_t value = ops_[at].a;
    size_t writer = SIZE_MAX;
    bool single =
        std::find(merged.begin(), merged.end(), value) == merged.end();
    for (size_t i = iteration; i < copies; ++i) {
      if (!writes(ops_[i]) || ops_[i].dst != value) continue;
      const bool wrap = i == writer + 1 && ops_[i].op == MicroOpcode::Trunc &&
                        ops_[i].a == value;
      if (wrap) continue;
      single &= writer == SIZE_MAX;
      writer = i;
    }
    bool clear = single && writer != SIZE_MAX &&
                 std::find(own.begin(), own.end(), writer) != own.end();
    for (size_t i = writer + 1; clear && i < ops_.size(); ++i) {
      if (i == at) continue;
      clear &= !(writes(ops_[i]) && ops_[i].dst == phi);
      forEachRead(ops_[i], [&](uint32_t slot) { clear &= slot != phi; });
    }
    if (!clear) {
      ++at;
      continue;
    }
    for (size_t i = writer; i < ops_.size(); ++i) {
      if (ops_[i].dst == value && writes(ops_[i])) ops_[i].dst = phi;
      forEachRead(ops_[i], [&](uint32_t& slot) {
        if (slot == value) slot = phi;
      });
    }
    ops_.erase(ops_.begin() + static_cast<std::ptrdiff_t>(at));
    merged.push_back(phi);
  }
}

}  // namespace

DecodedFunction Decoder::decode(const ir::Function& function,
                                std::span<const NestPlan> nests) const {
  return FunctionDecoder(function, memory_, model_).decode(nests);
}

}  // namespace cayman::sim
