#include "ir/parser.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <map>
#include <optional>
#include <sstream>
#include <vector>

#include "support/strings.h"

namespace cayman::ir {

namespace {

using support::Diagnostic;
using support::DiagnosticError;
using support::Stage;

bool isNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '.' || c == '_' ||
         c == '-';
}

/// Character cursor over one line with error reporting. `colBase` is the
/// number of characters trimmed off the front of the raw line, so reported
/// columns are 1-based positions in the original input.
class Cursor {
 public:
  Cursor(std::string_view text, int lineNo, int colBase)
      : text_(text), lineNo_(lineNo), colBase_(colBase) {}

  [[noreturn]] void fail(const std::string& message) const {
    std::string near(rest().substr(0, 40));
    throw DiagnosticError(Diagnostic{
        Stage::Parse, "", message + " (near '" + near + "')", lineNo_,
        colBase_ + static_cast<int>(pos_) + 1});
  }

  void skipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool atEnd() {
    skipSpace();
    return pos_ >= text_.size();
  }

  bool tryConsume(std::string_view token) {
    skipSpace();
    if (text_.substr(pos_).substr(0, token.size()) == token) {
      pos_ += token.size();
      return true;
    }
    return false;
  }

  void expect(std::string_view token) {
    if (!tryConsume(token)) fail("expected '" + std::string(token) + "'");
  }

  char peek() {
    skipSpace();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  /// Reads an identifier-like word ([A-Za-z0-9._-]+).
  std::string word() {
    skipSpace();
    size_t start = pos_;
    while (pos_ < text_.size() && isNameChar(text_[pos_])) ++pos_;
    if (pos_ == start) fail("expected identifier");
    return std::string(text_.substr(start, pos_ - start));
  }

  /// Reads a (possibly signed / fractional / exponent) numeric literal.
  std::string number() {
    skipSpace();
    size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected number");
    return std::string(text_.substr(start, pos_ - start));
  }

  /// Reads an unsigned decimal integer, rejecting signs, trailing garbage
  /// and out-of-range values (strtoull silently wraps "-1" to 2^64-1).
  uint64_t unsignedInt(const std::string& what) {
    std::string text = number();
    errno = 0;
    char* end = nullptr;
    unsigned long long value = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0])) ||
        end != text.c_str() + text.size() || errno == ERANGE) {
      fail("invalid " + what + " '" + text + "'");
    }
    return value;
  }

  std::string_view rest() const { return text_.substr(pos_); }

  int line() const { return lineNo_; }

 private:
  std::string_view text_;
  size_t pos_ = 0;
  int lineNo_;
  int colBase_;
};

/// A forward reference: operand `operandIndex` of `user` holds
/// `placeholder` until the function's last line is parsed and `name` resolves.
struct PendingRef {
  Instruction* user;
  size_t operandIndex;
  const Value* placeholder;
  std::string name;
  int line;
};

class Parser {
 public:
  Parser(const std::string& text, const ParserLimits& limits)
      : limits_(limits) {
    for (std::string_view raw : split(text, '\n')) {
      std::string_view trimmed = trim(raw);
      lines_.push_back(trimmed);
      colBases_.push_back(trimmed.empty()
                              ? 0
                              : static_cast<int>(trimmed.data() - raw.data()));
    }
  }

  std::unique_ptr<Module> run() {
    // Module header: module "<name>" {
    size_t headerLine = next("module header");
    std::string_view raw = lines_[headerLine];
    size_t open = raw.find('"');
    size_t close = raw.rfind('"');
    if (!startsWith(raw, "module") || open == std::string_view::npos ||
        close <= open || raw.find('{', close) == std::string_view::npos) {
      cursorAt(headerLine).fail("expected: module \"<name>\" {");
    }
    module_ = std::make_unique<Module>(
        std::string(raw.substr(open + 1, close - open - 1)));

    // Pre-scan function signatures so calls can reference later functions.
    prescanFunctions();

    while (true) {
      size_t lineNo = next("module body");
      Cursor c = cursorAt(lineNo);
      if (c.tryConsume("}")) break;
      if (c.tryConsume("global")) {
        parseGlobal(c);
      } else if (c.tryConsume("func")) {
        parseFunction(lineNo);
      } else {
        c.fail("expected 'global', 'func' or '}'");
      }
    }
    // Anything after the closing brace is hostile or corrupt input, not a
    // module — reject it so print -> parse -> print reaches a fixpoint.
    while (pos_ < lines_.size()) {
      if (!lines_[pos_].empty()) {
        cursorAt(pos_).fail("trailing content after module close");
      }
      ++pos_;
    }
    return std::move(module_);
  }

 private:
  Cursor cursorAt(size_t index) const {
    return Cursor(lines_[index], static_cast<int>(index) + 1,
                  colBases_[index]);
  }

  [[noreturn]] void failAt(size_t lineIndex, const std::string& message) const {
    throw DiagnosticError(Diagnostic{Stage::Parse, "", message,
                                     static_cast<int>(lineIndex) + 1, 0});
  }

  /// Advances to the next non-empty line and returns its index.
  size_t next(const std::string& context) {
    while (pos_ < lines_.size() && lines_[pos_].empty()) ++pos_;
    if (pos_ >= lines_.size()) {
      failAt(lines_.empty() ? 0 : lines_.size() - 1,
             "unexpected end of input in " + context);
    }
    return pos_++;
  }

  const Type* parseType(Cursor& c) {
    std::string spelling = c.word();
    const Type* type = Type::byName(spelling.c_str());
    if (type == nullptr) c.fail("unknown type '" + spelling + "'");
    return type;
  }

  /// The value of numeric literal `token` of scalar type `type`: an
  /// element of `global`'s initializer, else an operand constant. The whole
  /// token must be a number, and an integer's value must lie in int64's
  /// range (converting anything else to int64 is undefined).
  static double literalValue(Cursor& c, const Type* type,
                             const std::string& token,
                             const GlobalArray* global = nullptr) {
    auto name = [&] {
      return global != nullptr ? "element '" + token +
                                     "' in the initializer for @" +
                                     global->name()
                               : "constant '" + token + "'";
    };
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) c.fail("invalid " + name());
    if (!type->isFloat() && !(value >= -0x1p63 && value < 0x1p63)) {
      c.fail(name() + " is outside the range of a 64-bit integer");
    }
    return value;
  }

  void parseGlobal(Cursor& c) {
    c.expect("@");
    std::string name = c.word();
    if (module_->globalByName(name) != nullptr) {
      c.fail("duplicate global @" + name);
    }
    c.expect(":");
    const Type* elemType = parseType(c);
    if (elemType->isVoid()) c.fail("global @" + name + " of void type");
    c.expect("[");
    uint64_t numElems = c.unsignedInt("array size");
    if (numElems > limits_.maxGlobalElems) {
      c.fail("global @" + name + " exceeds the element limit (" +
             std::to_string(numElems) + " > " +
             std::to_string(limits_.maxGlobalElems) + ")");
    }
    c.expect("]");
    // Element count is capped, so the byte product cannot overflow.
    totalGlobalBytes_ += numElems * elemType->sizeBytes();
    if (totalGlobalBytes_ > limits_.maxTotalGlobalBytes) {
      c.fail("global arrays exceed the total size limit (" +
             std::to_string(limits_.maxTotalGlobalBytes) + " bytes)");
    }
    GlobalArray* global =
        module_->addGlobal(std::move(name), elemType, numElems);
    if (c.tryConsume("=")) {
      c.expect("[");
      std::vector<double> init;
      init.reserve(static_cast<size_t>(numElems));
      if (!c.tryConsume("]")) {
        while (true) {
          if (init.size() >= numElems) {
            c.fail("initializer for @" + global->name() + " has more than " +
                   std::to_string(numElems) + " elements");
          }
          init.push_back(
              literalValue(c, global->elemType(), c.number(), global));
          if (c.tryConsume("]")) break;
          c.expect(",");
        }
      }
      if (init.size() != numElems) {
        c.fail("initializer for @" + global->name() + " has " +
               std::to_string(init.size()) + " elements, expected " +
               std::to_string(numElems));
      }
      global->setInit(std::move(init));
    }
  }

  void prescanFunctions() {
    for (size_t i = pos_; i < lines_.size(); ++i) {
      Cursor c = cursorAt(i);
      if (!c.tryConsume("func")) continue;
      c.expect("@");
      std::string name = c.word();
      if (module_->functionByName(name) != nullptr) {
        c.fail("duplicate function @" + name);
      }
      if (module_->functions().size() >= limits_.maxFunctions) {
        c.fail("function count exceeds the limit (" +
               std::to_string(limits_.maxFunctions) + ")");
      }
      c.expect("(");
      std::vector<std::pair<const Type*, std::string>> params;
      if (!c.tryConsume(")")) {
        while (true) {
          if (params.size() >= limits_.maxParams) {
            c.fail("parameter count exceeds the limit (" +
                   std::to_string(limits_.maxParams) + ")");
          }
          c.expect("%");
          std::string paramName = c.word();
          c.expect(":");
          params.emplace_back(parseType(c), paramName);
          if (c.tryConsume(")")) break;
          c.expect(",");
        }
      }
      c.expect("->");
      const Type* returnType = parseType(c);
      module_->addFunction(std::move(name), returnType, std::move(params));
    }
  }

  void parseFunction(size_t signatureLine) {
    Cursor sig = cursorAt(signatureLine);
    sig.expect("func");
    sig.expect("@");
    Function* function = module_->functionByName(sig.word());
    CAYMAN_ASSERT(function != nullptr, "function missed by pre-scan");
    if (!function->blocks().empty()) {
      sig.fail("function @" + function->name() + " defined twice");
    }

    values_.clear();
    pending_.clear();
    placeholders_.clear();
    for (const auto& arg : function->arguments()) {
      values_[arg->name()] = arg.get();
    }

    // First pass: find the closing '}', create every block so branches can
    // name later ones, and enforce the per-function shape limits.
    std::vector<size_t> bodyLines;
    size_t numInstructions = 0;
    for (size_t i = pos_;; ++i) {
      if (i >= lines_.size()) {
        failAt(lines_.size() - 1, "function @" + function->name() +
                                      " not terminated by '}'");
      }
      std::string_view line = lines_[i];
      if (line.empty()) continue;
      if (line == "}") {
        for (size_t j = pos_; j < i; ++j) bodyLines.push_back(j);
        pos_ = i + 1;
        break;
      }
      if (line.back() == ':') {
        std::string label(line.substr(0, line.size() - 1));
        if (function->blockByName(label) != nullptr) {
          cursorAt(i).fail("duplicate block label '" + label + "'");
        }
        if (function->blocks().size() >= limits_.maxBlocksPerFunction) {
          cursorAt(i).fail("block count exceeds the limit (" +
                           std::to_string(limits_.maxBlocksPerFunction) + ")");
        }
        function->addBlock(std::move(label));
      } else if (++numInstructions > limits_.maxInstructionsPerFunction) {
        cursorAt(i).fail("instruction count exceeds the limit (" +
                         std::to_string(limits_.maxInstructionsPerFunction) +
                         ")");
      }
    }

    // Second pass: build instructions.
    BasicBlock* current = nullptr;
    for (size_t lineNo : bodyLines) {
      std::string_view line = lines_[lineNo];
      if (line.empty()) continue;
      if (line.back() == ':') {
        current = function->blockByName(line.substr(0, line.size() - 1));
        continue;
      }
      Cursor c = cursorAt(lineNo);
      if (current == nullptr) c.fail("instruction before first block label");
      parseInstruction(c, function, current);
    }

    // Resolve forward references. Each placeholder was made for exactly one
    // pending ref and each ref overwrites its own, so none survives.
    CAYMAN_ASSERT(pending_.size() == placeholders_.size(),
                  "placeholder without a pending ref");
    for (const PendingRef& ref : pending_) {
      auto it = values_.find(ref.name);
      if (it == values_.end()) {
        throw DiagnosticError(Diagnostic{Stage::Parse, "",
                                         "undefined value %" + ref.name,
                                         ref.line, 0});
      }
      CAYMAN_ASSERT(ref.user->operand(ref.operandIndex) == ref.placeholder,
                    "pending ref does not hold its placeholder");
      ref.user->setOperand(ref.operandIndex, it->second);
    }
  }

  /// Parses an operand reference of known type. A forward reference returns
  /// a placeholder and appends its ref, user not yet set, to `fixups`.
  Value* parseOperand(Cursor& c, const Type* type,
                      std::vector<PendingRef>* fixups, size_t operandIndex) {
    if (c.tryConsume("@")) {
      std::string name = c.word();
      GlobalArray* global = module_->globalByName(name);
      if (global == nullptr) c.fail("unknown global @" + name);
      return global;
    }
    if (c.tryConsume("%")) {
      std::string name = c.word();
      auto it = values_.find(name);
      if (it != values_.end()) return it->second;
      // Forward reference: create a typed placeholder, fix up later.
      if (type == nullptr) c.fail("forward reference %" + name +
                                  " in a position without a known type");
      placeholders_.push_back(
          std::make_unique<Argument>(type, "$placeholder." + name, 0u));
      fixups->push_back({nullptr, operandIndex, placeholders_.back().get(),
                         name, c.line()});
      return placeholders_.back().get();
    }
    // Literal constant.
    if (type == nullptr) c.fail("literal constant in an untyped position");
    std::string text = c.number();
    if (!type->isFloat() && !type->isInteger()) {
      c.fail("literal constant cannot have pointer type");
    }
    const double value = literalValue(c, type, text);
    if (type->isFloat()) return module_->constFP(type, value);
    // Exact, where the double would round integers beyond 2^53.
    return module_->constInt(type, std::strtoll(text.c_str(), nullptr, 10));
  }

  BasicBlock* parseBlockRef(Cursor& c, Function* function) {
    std::string name = c.word();
    BasicBlock* block = function->blockByName(name);
    if (block == nullptr) c.fail("unknown block '" + name + "'");
    return block;
  }

  void parseInstruction(Cursor& c, Function* function, BasicBlock* block) {
    std::string resultName;
    if (c.tryConsume("%")) {
      resultName = c.word();
      c.expect("=");
      if (values_.count(resultName) != 0) {
        c.fail("redefinition of %" + resultName);
      }
    }
    std::string op = c.word();
    std::vector<PendingRef> fixups;

    auto finish = [&](std::unique_ptr<Instruction> inst) {
      Instruction* raw = block->append(std::move(inst));
      if (!resultName.empty()) {
        raw->setName(resultName);
        values_[resultName] = raw;
      }
      for (PendingRef& ref : fixups) {
        ref.user = raw;
        pending_.push_back(std::move(ref));
      }
      return raw;
    };

    if (op == "icmp" || op == "fcmp") {
      std::string predName = c.word();
      CmpPred pred = CmpPred::EQ;
      bool found = false;
      for (CmpPred p : {CmpPred::EQ, CmpPred::NE, CmpPred::LT, CmpPred::LE,
                        CmpPred::GT, CmpPred::GE}) {
        if (predName == cmpPredSpelling(p)) {
          pred = p;
          found = true;
        }
      }
      if (!found) c.fail("unknown predicate '" + predName + "'");
      const Type* operandType = parseType(c);
      Value* a = parseOperand(c, operandType, &fixups, 0);
      c.expect(",");
      Value* b = parseOperand(c, operandType, &fixups, 1);
      auto inst = std::make_unique<Instruction>(
          op == "icmp" ? Opcode::ICmp : Opcode::FCmp, Type::i1(),
          std::vector<Value*>{a, b}, "");
      inst->setCmpPred(pred);
      finish(std::move(inst));
      return;
    }

    if (op == "gep") {
      Value* base = parseOperand(c, Type::ptr(), &fixups, 0);
      c.expect(",");
      Value* index = parseOperand(c, Type::i64(), &fixups, 1);
      c.expect(",");
      c.expect("elem");
      uint64_t elemSize = c.unsignedInt("gep element size");
      if (elemSize == 0 || elemSize > 64) {
        c.fail("gep element size " + std::to_string(elemSize) +
               " out of range [1, 64]");
      }
      auto inst = std::make_unique<Instruction>(
          Opcode::Gep, Type::ptr(), std::vector<Value*>{base, index}, "");
      inst->setGepElemSize(static_cast<unsigned>(elemSize));
      finish(std::move(inst));
      return;
    }

    if (op == "load") {
      const Type* type = parseType(c);
      if (type->isVoid()) c.fail("load of void type");
      c.expect(",");
      Value* ptr = parseOperand(c, Type::ptr(), &fixups, 0);
      finish(std::make_unique<Instruction>(Opcode::Load, type,
                                           std::vector<Value*>{ptr}, ""));
      return;
    }

    if (op == "store") {
      const Type* type = parseType(c);
      if (type->isVoid()) c.fail("store of void type");
      Value* value = parseOperand(c, type, &fixups, 0);
      c.expect(",");
      Value* ptr = parseOperand(c, Type::ptr(), &fixups, 1);
      finish(std::make_unique<Instruction>(Opcode::Store, Type::voidTy(),
                                           std::vector<Value*>{value, ptr},
                                           ""));
      return;
    }

    if (op == "br") {
      BasicBlock* dest = parseBlockRef(c, function);
      auto inst = std::make_unique<Instruction>(Opcode::Br, Type::voidTy(),
                                                std::vector<Value*>{}, "");
      inst->setSuccessors({dest});
      finish(std::move(inst));
      return;
    }

    if (op == "condbr") {
      Value* cond = parseOperand(c, Type::i1(), &fixups, 0);
      c.expect(",");
      BasicBlock* ifTrue = parseBlockRef(c, function);
      c.expect(",");
      BasicBlock* ifFalse = parseBlockRef(c, function);
      auto inst = std::make_unique<Instruction>(
          Opcode::CondBr, Type::voidTy(), std::vector<Value*>{cond}, "");
      inst->setSuccessors({ifTrue, ifFalse});
      finish(std::move(inst));
      return;
    }

    if (op == "phi") {
      const Type* type = parseType(c);
      if (type->isVoid()) c.fail("phi of void type");
      auto inst = std::make_unique<Instruction>(Opcode::Phi, type,
                                                std::vector<Value*>{}, "");
      Instruction* raw = finish(std::move(inst));
      size_t operandIndex = 0;
      while (c.tryConsume("[")) {
        // The phi is already appended, so its refs go to pending_ directly.
        std::vector<PendingRef> phiFixups;
        Value* value = parseOperand(c, type, &phiFixups, operandIndex);
        c.expect(",");
        BasicBlock* incomingBlock = parseBlockRef(c, function);
        c.expect("]");
        raw->addIncoming(value, incomingBlock);
        for (PendingRef& ref : phiFixups) {
          ref.user = raw;
          pending_.push_back(std::move(ref));
        }
        ++operandIndex;
        if (!c.tryConsume(",")) break;
      }
      return;
    }

    if (op == "call") {
      c.expect("@");
      Function* callee = module_->functionByName(c.word());
      if (callee == nullptr) c.fail("call to unknown function");
      c.expect("(");
      std::vector<Value*> args;
      if (!c.tryConsume(")")) {
        while (true) {
          if (args.size() >= callee->numArguments()) {
            c.fail("too many arguments to @" + callee->name() + " (expected " +
                   std::to_string(callee->numArguments()) + ")");
          }
          const Type* argType = callee->argument(args.size())->type();
          args.push_back(
              parseOperand(c, argType, &fixups, args.size()));
          if (c.tryConsume(")")) break;
          c.expect(",");
        }
      }
      if (args.size() != callee->numArguments()) {
        c.fail("call to @" + callee->name() + " passes " +
               std::to_string(args.size()) + " argument(s), expected " +
               std::to_string(callee->numArguments()));
      }
      auto inst = std::make_unique<Instruction>(
          Opcode::Call, callee->returnType(), std::move(args), "");
      inst->setCallee(callee);
      finish(std::move(inst));
      return;
    }

    if (op == "ret") {
      std::vector<Value*> operands;
      if (!c.atEnd()) {
        const Type* type = parseType(c);
        operands.push_back(parseOperand(c, type, &fixups, 0));
      }
      finish(std::make_unique<Instruction>(Opcode::Ret, Type::voidTy(),
                                           std::move(operands), ""));
      return;
    }

    if (op == "zext" || op == "sext" || op == "trunc" || op == "sitofp" ||
        op == "fptosi") {
      const Type* fromType = parseType(c);
      Value* value = parseOperand(c, fromType, &fixups, 0);
      c.expect("to");
      const Type* toType = parseType(c);
      Opcode opcode = op == "zext"     ? Opcode::ZExt
                      : op == "sext"   ? Opcode::SExt
                      : op == "trunc"  ? Opcode::Trunc
                      : op == "sitofp" ? Opcode::SIToFP
                                       : Opcode::FPToSI;
      finish(std::make_unique<Instruction>(opcode, toType,
                                           std::vector<Value*>{value}, ""));
      return;
    }

    // Generic arithmetic / select form: "<op> <type> a, b, ...".
    static const std::map<std::string, std::pair<Opcode, int>> kGeneric = {
        {"add", {Opcode::Add, 2}},     {"sub", {Opcode::Sub, 2}},
        {"mul", {Opcode::Mul, 2}},     {"sdiv", {Opcode::SDiv, 2}},
        {"srem", {Opcode::SRem, 2}},   {"and", {Opcode::And, 2}},
        {"or", {Opcode::Or, 2}},       {"xor", {Opcode::Xor, 2}},
        {"shl", {Opcode::Shl, 2}},     {"ashr", {Opcode::AShr, 2}},
        {"lshr", {Opcode::LShr, 2}},   {"fadd", {Opcode::FAdd, 2}},
        {"fsub", {Opcode::FSub, 2}},   {"fmul", {Opcode::FMul, 2}},
        {"fdiv", {Opcode::FDiv, 2}},   {"fneg", {Opcode::FNeg, 1}},
        {"fsqrt", {Opcode::FSqrt, 1}}, {"fabs", {Opcode::FAbs, 1}},
        {"fmin", {Opcode::FMin, 2}},   {"fmax", {Opcode::FMax, 2}},
        {"select", {Opcode::Select, 3}},
    };
    auto it = kGeneric.find(op);
    if (it == kGeneric.end()) c.fail("unknown opcode '" + op + "'");
    auto [opcode, arity] = it->second;
    const Type* type = parseType(c);
    if (type->isVoid()) c.fail("'" + op + "' of void type");
    std::vector<Value*> operands;
    for (int i = 0; i < arity; ++i) {
      if (i > 0) c.expect(",");
      const Type* operandType =
          (opcode == Opcode::Select && i == 0) ? Type::i1() : type;
      operands.push_back(parseOperand(c, operandType, &fixups,
                                      static_cast<size_t>(i)));
    }
    finish(std::make_unique<Instruction>(opcode, type, std::move(operands),
                                         ""));
  }

  ParserLimits limits_;
  std::vector<std::string_view> lines_;
  std::vector<int> colBases_;
  size_t pos_ = 0;
  uint64_t totalGlobalBytes_ = 0;
  // Stand-ins for forward references, one per pending ref; none is left as
  // an operand once the function is parsed.
  std::vector<std::unique_ptr<Value>> placeholders_;
  std::unique_ptr<Module> module_;
  std::map<std::string, Value*> values_;
  std::vector<PendingRef> pending_;
};

}  // namespace

std::unique_ptr<Module> parseModule(const std::string& text,
                                    const ParserLimits& limits) {
  if (text.size() > limits.maxInputBytes) {
    throw DiagnosticError(Diagnostic{
        Stage::Parse, "",
        "input exceeds the size limit (" + std::to_string(text.size()) +
            " > " + std::to_string(limits.maxInputBytes) + " bytes)"});
  }
  return Parser(text, limits).run();
}

support::Expected<std::unique_ptr<Module>> parseModuleExpected(
    const std::string& text, const ParserLimits& limits) {
  try {
    return parseModule(text, limits);
  } catch (const DiagnosticError& e) {
    return e.diagnostic();
  } catch (const Error& e) {
    return Diagnostic{Stage::Parse, "", e.what()};
  }
}

}  // namespace cayman::ir
