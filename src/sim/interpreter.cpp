#include "sim/interpreter.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

#include "support/trace.h"

namespace cayman::sim {

using ir::Opcode;

namespace {

/// Fresh activation frame: zeroed, with the constant pool copied in; the
/// caller fills the argument words.
std::vector<uint64_t> newFrame(const DecodedFunction& df) {
  std::vector<uint64_t> frame(df.frameSize);
  std::copy(df.constPool.begin(), df.constPool.end(),
            frame.begin() + df.constBase);
  return frame;
}

}  // namespace

Interpreter::Interpreter(const ir::Module& module, CpuCostModel model)
    : module_(module), model_(model), memory_(module) {}

Interpreter::DecodedEntry& Interpreter::decodedFor(
    const ir::Function& function) {
  auto it = decoded_.find(&function);
  if (it != decoded_.end()) return *it->second;
  auto entry = std::make_unique<DecodedEntry>();
  entry->df = Decoder(memory_, model_)
                  .decode(function, plan_ != nullptr
                                        ? std::span(plan_->nestsOf(function))
                                        : std::span<const NestPlan>());
  entry->counts.assign(entry->df.numBlocks(), 0);
  return *decoded_.emplace(&function, std::move(entry)).first->second;
}

Interpreter::DecodeStats Interpreter::predecodeAll(bool force) {
  if (force) decoded_.clear();
  DecodeStats stats;
  for (const auto& function : module_.functions()) {
    const DecodedEntry& entry = decodedFor(*function);
    ++stats.functions;
    stats.microOps += entry.df.ops.size();
    stats.constants += entry.df.constPool.size();
  }
  return stats;
}

Interpreter::Result Interpreter::run(std::span<const int64_t> args) {
  return runFunction(*module_.entryFunction(), args);
}

Interpreter::Result Interpreter::runFunction(const ir::Function& function,
                                             std::span<const int64_t> args) {
  Result result;
  uint64_t word = execute(function, args, /*counting=*/false, result);
  // The typed view of the returned word.
  if (function.returnType()->isFloat()) {
    result.returnValue = Slot{0, std::bit_cast<double>(word)};
  } else if (!function.returnType()->isVoid()) {
    result.returnValue = Slot{static_cast<int64_t>(word), 0.0};
  }
  return result;
}

Interpreter::Result Interpreter::profile(const analysis::WPst& wpst) {
  CAYMAN_ASSERT(&wpst.module() == &module_,
                "profile() needs the wPST of the interpreter's module");
  if (plan_ == nullptr) {
    plan_ = std::make_unique<CountedNestPlan>(wpst);
    decoded_.clear();  // re-decode with the CountedNest entries
  }
  Result result;
  execute(*module_.entryFunction(), {}, /*counting=*/true, result);
  return result;
}

uint64_t Interpreter::execute(const ir::Function& function,
                              std::span<const int64_t> args, bool counting,
                              Result& result) {
  memory_.reset();
  executed_ = 0;
  cancelTick_ = 0;
  counting_ = counting;
  // Zeroed here, not after the run: a run that throws leaves partial counts.
  for (auto& [fn, decoded] : decoded_) {
    std::fill(decoded->counts.begin(), decoded->counts.end(), 0);
  }
  DecodedEntry& entry = decodedFor(function);
  std::vector<uint64_t> frame = newFrame(entry.df);
  for (size_t i = 0; i < function.numArguments() && i < args.size(); ++i) {
    frame[i] = function.argument(i)->type()->isFloat()
                   ? std::bit_cast<uint64_t>(static_cast<double>(args[i]))
                   : static_cast<uint64_t>(args[i]);
  }
  uint64_t word = execDecoded(entry, std::move(frame), result, 0);
  // Map dense per-function counts back onto BasicBlock pointers.
  for (auto& [fn, decoded] : decoded_) {
    for (size_t i = 0; i < decoded->counts.size(); ++i) {
      if (decoded->counts[i] == 0) continue;
      result.blockCounts[decoded->df.blockOf[i]] += decoded->counts[i];
    }
  }
  if (support::trace::on()) {
    support::trace::count("interp.runs", 1);
    support::trace::count("interp.instructions", result.instructions);
    uint64_t blocks = 0;
    for (const auto& [block, blockCount] : result.blockCounts) {
      (void)block;
      blocks += blockCount;
    }
    support::trace::count("interp.blocks", blocks);
  }
  return word;
}

namespace {

/// Integer wrap to the Type::Kind baked into MicroOp::aux.
int64_t wrapKind(uint16_t kind, int64_t value) {
  switch (static_cast<ir::Type::Kind>(kind)) {
    case ir::Type::Kind::I1: return value & 1;
    case ir::Type::Kind::I32: return static_cast<int32_t>(value);
    default: return value;
  }
}

/// Division guarded against the two C++-undefined cases: x/0 (defined here as
/// 0, matching the pre-existing contract) and INT64_MIN / -1 (defined as the
/// two's-complement wrap, INT64_MIN).
int64_t safeSDiv(int64_t a, int64_t b) {
  if (b == 0) return 0;
  if (a == std::numeric_limits<int64_t>::min() && b == -1) return a;
  return a / b;
}

int64_t safeSRem(int64_t a, int64_t b) {
  if (b == 0) return 0;
  if (a == std::numeric_limits<int64_t>::min() && b == -1) return 0;
  return a % b;
}

/// fptosi with every input defined: NaN, +-inf and values outside
/// [-2^63, 2^63) give INT64_MIN, the "integer indefinite" that x86
/// cvttsd2si returns for them. In-range values truncate toward zero.
int64_t safeFPToSI(double value) {
  if (value >= -0x1p63 && value < 0x1p63) return static_cast<int64_t>(value);
  return std::numeric_limits<int64_t>::min();
}

bool compareFloat(ir::CmpPred pred, double a, double b) {
  switch (pred) {
    case ir::CmpPred::EQ: return a == b;
    case ir::CmpPred::NE: return a != b;
    case ir::CmpPred::LT: return a < b;
    case ir::CmpPred::LE: return a <= b;
    case ir::CmpPred::GT: return a > b;
    case ir::CmpPred::GE: return a >= b;
  }
  return false;
}

[[noreturn]] void throwInstructionLimit(const std::string& functionName,
                                        uint64_t limit) {
  throw Error("instruction limit exceeded in " + functionName + " (" +
              std::to_string(limit) + " dynamic instructions)");
}

}  // namespace

// Direct threading needs labels-as-values (`&&label`, `goto *p`). GCC and
// Clang both provide it; there is deliberately no portable switch fallback.
#if !defined(__GNUC__)
#error "sim/interpreter.cpp needs GCC or Clang (labels-as-values dispatch)"
#endif

// One entry per MicroOpcode, in enum order: the dispatch table is generated
// from this list, and kDispatchOrder lets the compiler check the order.
#define CAYMAN_SIM_MICRO_OPS(X)                                              \
  X(BlockHead) X(Add) X(Sub) X(Mul) X(SDiv) X(SRem) X(And) X(Or) X(Xor)      \
  X(Shl) X(AShr) X(LShr) X(FAdd) X(FSub) X(FMul) X(FDiv) X(FNeg) X(FSqrt)    \
  X(FAbs) X(FMin) X(FMax) X(ICmp) X(FCmp) X(SelectOp) X(ZExt) X(MoveI)       \
  X(Trunc) X(SIToFP) X(FPToSI) X(Gep) X(LoadI1) X(LoadI32) X(LoadI64)        \
  X(LoadF32) X(LoadF64) X(StoreI1) X(StoreI32) X(StoreI64) X(StoreF32)       \
  X(StoreF64) X(Copy) X(Jump) X(CondJump) X(CountedNest) X(LoopStep)         \
  X(Call) X(Ret)

namespace {

#define CAYMAN_SIM_ORDER(name) MicroOpcode::name,
constexpr MicroOpcode kDispatchOrder[] = {
    CAYMAN_SIM_MICRO_OPS(CAYMAN_SIM_ORDER)};
#undef CAYMAN_SIM_ORDER

constexpr bool dispatchCoversEveryOpcode() {
  if (std::size(kDispatchOrder) != kNumMicroOpcodes) return false;
  for (size_t i = 0; i < std::size(kDispatchOrder); ++i) {
    if (static_cast<size_t>(kDispatchOrder[i]) != i) return false;
  }
  return true;
}
static_assert(dispatchCoversEveryOpcode(),
              "the dispatch table must list every MicroOpcode in enum order");

// Frame words <-> typed values.
int64_t asInt(uint64_t word) { return static_cast<int64_t>(word); }
double asFloat(uint64_t word) { return std::bit_cast<double>(word); }
uint64_t intWord(int64_t value) { return static_cast<uint64_t>(value); }
uint64_t floatWord(double value) { return std::bit_cast<uint64_t>(value); }

}  // namespace

uint64_t Interpreter::execDecoded(DecodedEntry& entry,
                                  std::vector<uint64_t> frame, Result& result,
                                  int depth) {
  CAYMAN_ASSERT(depth < 64, "interpreter call depth exceeded");
  const DecodedFunction& df = entry.df;
  uint64_t* const f = frame.data();
  uint64_t* const counts = entry.counts.data();
  const MicroOp* const ops = df.ops.data();
  std::byte* const mem = memory_.data();
  const uint64_t memSize = memory_.sizeBytes();
  const uint64_t limit = instructionLimit_;
  const support::CancelToken* const cancel = cancel_;
  const bool counting = counting_;

  // Accounting lives in locals, so the compiler can keep it in registers:
  // through Result& and this, every byte store into simulated memory might
  // alias it. Result::instructions and executed_ advance together from 0 in
  // every run. The members are written back before a call, a return, and a
  // throw, and re-read after a call.
  double cycles = result.totalCycles;
  uint64_t executed = executed_;
  uint64_t tick = cancelTick_;
  auto writeBack = [this, &result](double c, uint64_t n, uint64_t t) {
    result.totalCycles = c;
    result.instructions = n;
    executed_ = n;
    cancelTick_ = t;
  };
  auto at = [mem, memSize](uint64_t address, size_t size) {
    if (address < SimMemory::kBase ||
        address - SimMemory::kBase + size > memSize) [[unlikely]] {
      SimMemory::throwOutOfBounds(address);
    }
    return mem + (address - SimMemory::kBase);
  };

#define CAYMAN_SIM_LABEL(name) &&op_##name,
  static const void* const kLabels[] = {
      CAYMAN_SIM_MICRO_OPS(CAYMAN_SIM_LABEL)};
#undef CAYMAN_SIM_LABEL
#define DISPATCH() goto* kLabels[static_cast<size_t>(ip->op)]
#define NEXT()  \
  do {          \
    ++ip;       \
    DISPATCH(); \
  } while (false)

  const MicroOp* ip = ops;
  DISPATCH();

op_BlockHead:
  ++counts[ip->b];
  cycles += std::bit_cast<double>(ip->imm);
  executed += ip->a;
  if (executed > limit) [[unlikely]] {
    writeBack(cycles, executed, tick);
    throwInstructionLimit(df.source->name(), limit);
  }
  if (cancel != nullptr && (++tick & 0x3FF) == 0) [[unlikely]] {
    writeBack(cycles, executed, tick);
    cancel->check(support::Stage::Profile, df.source->name());
  }
  NEXT();
op_Add:
  f[ip->dst] = f[ip->a] + f[ip->b];
  NEXT();
op_Sub:
  f[ip->dst] = f[ip->a] - f[ip->b];
  NEXT();
op_Mul:
  f[ip->dst] = f[ip->a] * f[ip->b];
  NEXT();
op_SDiv:
  f[ip->dst] = intWord(safeSDiv(asInt(f[ip->a]), asInt(f[ip->b])));
  NEXT();
op_SRem:
  f[ip->dst] = intWord(safeSRem(asInt(f[ip->a]), asInt(f[ip->b])));
  NEXT();
op_And:
  f[ip->dst] = f[ip->a] & f[ip->b];
  NEXT();
op_Or:
  f[ip->dst] = f[ip->a] | f[ip->b];
  NEXT();
op_Xor:
  f[ip->dst] = f[ip->a] ^ f[ip->b];
  NEXT();
op_Shl:
  f[ip->dst] = f[ip->a] << (f[ip->b] & 63);
  NEXT();
op_AShr:
  f[ip->dst] = intWord(asInt(f[ip->a]) >> (f[ip->b] & 63));
  NEXT();
op_LShr:
  f[ip->dst] = f[ip->a] >> (f[ip->b] & 63);
  NEXT();
op_FAdd:
  f[ip->dst] = floatWord(asFloat(f[ip->a]) + asFloat(f[ip->b]));
  NEXT();
op_FSub:
  f[ip->dst] = floatWord(asFloat(f[ip->a]) - asFloat(f[ip->b]));
  NEXT();
op_FMul:
  f[ip->dst] = floatWord(asFloat(f[ip->a]) * asFloat(f[ip->b]));
  NEXT();
op_FDiv:
  f[ip->dst] = floatWord(asFloat(f[ip->a]) / asFloat(f[ip->b]));
  NEXT();
op_FNeg:
  f[ip->dst] = floatWord(-asFloat(f[ip->a]));
  NEXT();
op_FSqrt:
  f[ip->dst] = floatWord(std::sqrt(std::fabs(asFloat(f[ip->a]))));
  NEXT();
op_FAbs:
  f[ip->dst] = floatWord(std::fabs(asFloat(f[ip->a])));
  NEXT();
op_FMin:
  f[ip->dst] = floatWord(std::fmin(asFloat(f[ip->a]), asFloat(f[ip->b])));
  NEXT();
op_FMax:
  f[ip->dst] = floatWord(std::fmax(asFloat(f[ip->a]), asFloat(f[ip->b])));
  NEXT();
op_ICmp: {
  const int64_t a = asInt(f[ip->a]);
  const int64_t b = asInt(f[ip->b]);
  f[ip->dst] = (ip->aux >> ((a > b) * 2 + (a == b))) & 1;
  NEXT();
}
op_FCmp:
  f[ip->dst] = compareFloat(static_cast<ir::CmpPred>(ip->aux),
                            asFloat(f[ip->a]), asFloat(f[ip->b]));
  NEXT();
op_SelectOp:
  f[ip->dst] = f[ip->a] != 0 ? f[ip->b] : f[ip->c];
  NEXT();
op_ZExt:
  switch (static_cast<ir::Type::Kind>(ip->aux)) {
    case ir::Type::Kind::I32:
      f[ip->dst] = static_cast<uint32_t>(f[ip->a]);
      break;
    case ir::Type::Kind::I1:
      f[ip->dst] = f[ip->a] & 1;
      break;
    default:
      f[ip->dst] = f[ip->a];
      break;
  }
  NEXT();
op_MoveI:
  f[ip->dst] = f[ip->a];
  NEXT();
op_Trunc:
  f[ip->dst] = intWord(wrapKind(ip->aux, asInt(f[ip->a])));
  NEXT();
op_SIToFP:
  f[ip->dst] = floatWord(static_cast<double>(asInt(f[ip->a])));
  NEXT();
op_FPToSI:
  f[ip->dst] = intWord(wrapKind(ip->aux, safeFPToSI(asFloat(f[ip->a]))));
  NEXT();
op_Gep:
  f[ip->dst] = f[ip->a] + f[ip->b] * static_cast<uint64_t>(ip->imm);
  NEXT();
op_LoadI1: {
  uint8_t v;
  std::memcpy(&v, at(f[ip->a], 1), 1);
  f[ip->dst] = v != 0;
  NEXT();
}
op_LoadI32: {
  int32_t v;
  std::memcpy(&v, at(f[ip->a], 4), 4);
  f[ip->dst] = intWord(v);
  NEXT();
}
op_LoadI64:
  std::memcpy(&f[ip->dst], at(f[ip->a], 8), 8);
  NEXT();
op_LoadF32: {
  float v;
  std::memcpy(&v, at(f[ip->a], 4), 4);
  f[ip->dst] = floatWord(v);
  NEXT();
}
op_LoadF64:
  std::memcpy(&f[ip->dst], at(f[ip->a], 8), 8);
  NEXT();
op_StoreI1: {
  uint8_t v = f[ip->a] != 0;
  std::memcpy(at(f[ip->b], 1), &v, 1);
  NEXT();
}
op_StoreI32: {
  int32_t v = static_cast<int32_t>(f[ip->a]);
  std::memcpy(at(f[ip->b], 4), &v, 4);
  NEXT();
}
op_StoreI64:
op_StoreF64:
  std::memcpy(at(f[ip->b], 8), &f[ip->a], 8);
  NEXT();
op_StoreF32: {
  float v = static_cast<float>(asFloat(f[ip->a]));
  std::memcpy(at(f[ip->b], 4), &v, 4);
  NEXT();
}
op_Copy:
  f[ip->dst] = f[ip->a];
  NEXT();
op_Jump:
  ip = ops + ip->b;
  DISPATCH();
op_CondJump:
  ip = ops + (f[ip->a] != 0 ? ip->b : ip->c);
  DISPATCH();
op_CountedNest:
  // A counts-only run adds the nest's counts, then leaves by its exit or,
  // for a live nest, runs its value stream; a nest the counter declines,
  // and every nest of run(), is interpreted.
  if (counting) {
    const DecodedNest& nest = df.nests[ip->a];
    NestCounter::Totals totals;
    if (nestCounter_.count(nest, f, memSize, limit - executed, totals) &&
        cycles + totals.cycles < 0x1p52) {
      nestCounter_.apply(nest, counts);
      cycles += totals.cycles;
      executed += totals.instructions;
      tick += totals.blocks;
      if (cancel != nullptr) {
        writeBack(cycles, executed, tick);
        cancel->check(support::Stage::Profile, df.source->name());
      }
      ip = ops + nest.streamPc;
      DISPATCH();
    }
  }
  ip = ops + ip->b;
  DISPATCH();
op_LoopStep: {
  // The block counts were added at nest entry; only the tick advances here,
  // so a long live nest still polls the token.
  const int64_t a = asInt(f[ip->a]);
  const int64_t b = asInt(f[ip->b]);
  const unsigned outcome = (a > b) * 2 + (a == b);
  f[ip->dst] = (ip->aux >> outcome) & 1;
  if (cancel != nullptr && (++tick & 0x3FF) == 0) [[unlikely]] {
    writeBack(cycles, executed, tick);
    cancel->check(support::Stage::Profile, df.source->name());
  }
  ip = ops + ((ip->aux >> (outcome + 3)) & 1 ? ip->c
                                              : static_cast<uint32_t>(ip->imm));
  DISPATCH();
}
op_Call: {
  // Clang rejects a computed goto that leaves the scope of an object with a
  // destructor, so the callee frame dies in its own block before NEXT().
  uint64_t ret = 0;
  {
    DecodedEntry& callee =
        decodedFor(*df.callees[static_cast<size_t>(ip->imm)]);
    std::vector<uint64_t> calleeFrame = newFrame(callee.df);
    const uint32_t* argSlots = df.callArgSlots.data() + ip->a;
    for (uint32_t i = 0; i < ip->b; ++i) calleeFrame[i] = f[argSlots[i]];
    writeBack(cycles, executed, tick);
    ret = execDecoded(callee, std::move(calleeFrame), result, depth + 1);
  }
  cycles = result.totalCycles;
  executed = executed_;
  tick = cancelTick_;
  if (ip->aux != 0) f[ip->dst] = ret;
  NEXT();
}
op_Ret:
  writeBack(cycles, executed, tick);
  return ip->aux != 0 ? f[ip->a] : 0;
#undef NEXT
#undef DISPATCH
}

#undef CAYMAN_SIM_MICRO_OPS

}  // namespace cayman::sim
