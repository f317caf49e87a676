// Hardened-ingestion tests: hostile textual IR must come back as structured
// parse/verify diagnostics (with 1-based line:col where known), never as
// crashes, silent wrap-arounds, or unbounded allocations.
#include <gtest/gtest.h>

#include "ir/parser.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "support/status.h"

namespace cayman::ir {
namespace {

using support::Diagnostic;
using support::DiagnosticError;
using support::Stage;

/// Parses hostile text and returns the diagnostic it must fail with.
Diagnostic expectParseFailure(const std::string& text,
                              const ParserLimits& limits = {}) {
  support::Expected<std::unique_ptr<Module>> result =
      parseModuleExpected(text, limits);
  EXPECT_FALSE(result.ok()) << text;
  if (result.ok()) return {};
  EXPECT_EQ(result.diagnostic().stage, Stage::Parse);
  return result.diagnostic();
}

TEST(ParserHardeningTest, CallWithTooManyArgumentsIsRejected) {
  // Historically crashed: argument(args.size()) indexed past the signature.
  Diagnostic d = expectParseFailure(
      "module \"m\" {\n"
      "func @f(%a: i64) -> i64 {\n"
      "entry:\n"
      "  ret i64 %a\n"
      "}\n"
      "func @main() -> i64 {\n"
      "entry:\n"
      "  %r = call @f(1, 2, 3)\n"
      "  ret i64 %r\n"
      "}\n"
      "}\n");
  EXPECT_NE(d.message.find("too many arguments"), std::string::npos);
  EXPECT_EQ(d.line, 8);
}

TEST(ParserHardeningTest, CallWithTooFewArgumentsIsRejected) {
  Diagnostic d = expectParseFailure(
      "module \"m\" {\n"
      "func @f(%a: i64, %b: i64) -> i64 {\n"
      "entry:\n"
      "  ret i64 %a\n"
      "}\n"
      "func @main() -> i64 {\n"
      "entry:\n"
      "  %r = call @f(7)\n"
      "  ret i64 %r\n"
      "}\n"
      "}\n");
  EXPECT_NE(d.message.find("expected 2"), std::string::npos);
}

TEST(ParserHardeningTest, ShortInitializerIsRejected) {
  // Historically read out of bounds when SimMemory applied the init image.
  Diagnostic d = expectParseFailure(
      "module \"m\" {\n"
      "global @g : i64[8] = [1, 2]\n"
      "}\n");
  EXPECT_NE(d.message.find("2 elements, expected 8"), std::string::npos);
  EXPECT_EQ(d.line, 2);
}

TEST(ParserHardeningTest, GarbageInitializerElementIsRejected) {
  // strtod stopped at the first bad character, so "12abc" read as 12.
  Diagnostic d = expectParseFailure(
      "module \"m\" {\n"
      "global @g : f64[2] = [1.5, 12abc]\n"
      "}\n");
  EXPECT_NE(d.message.find("invalid element '12abc'"), std::string::npos)
      << d.message;
  EXPECT_NE(d.message.find("@g"), std::string::npos) << d.message;
  EXPECT_EQ(d.line, 2);
}

TEST(ParserHardeningTest, IntegerInitializerOutsideInt64IsRejected) {
  // SimMemory converts each element of an integer array to int64, which is
  // undefined for these values.
  for (const char* element :
       {"1e300", "-1e300", "nan", "inf", "9223372036854775808"}) {
    Diagnostic d = expectParseFailure(
        std::string("module \"m\" {\nglobal @big : i64[2] = [0, ") +
        element + "]\n}\n");
    EXPECT_NE(d.message.find("@big is outside the range"), std::string::npos)
        << element << ": " << d.message;
  }
  // The ends of the range, and a float array's non-finite values, parse.
  EXPECT_TRUE(parseModuleExpected("module \"m\" {\n"
                                  "global @g : i32[2] = "
                                  "[-9223372036854775808, 9.2e18]\n"
                                  "global @f : f64[2] = [nan, -inf]\n}\n")
                  .ok());
}

TEST(ParserHardeningTest, GarbageOperandConstantIsRejected) {
  // strtoll stopped at the first bad character, so "12abc" read as 12.
  for (const char* constant : {"12abc", "1.5.5", "7-"}) {
    Diagnostic d = expectParseFailure(
        std::string("module \"m\" {\nfunc @main() -> i64 {\nentry:\n"
                    "  %a = add i64 ") +
        constant + ", 1\n  ret i64 %a\n}\n}\n");
    EXPECT_NE(d.message.find(std::string("invalid constant '") + constant +
                             "'"),
              std::string::npos)
        << d.message;
    EXPECT_EQ(d.line, 4);
  }
  Diagnostic d = expectParseFailure(
      "module \"m\" {\nfunc @main() -> f64 {\nentry:\n"
      "  %a = fadd f64 1.0, 2.5x\n  ret f64 %a\n}\n}\n");
  EXPECT_NE(d.message.find("invalid constant '2.5x'"), std::string::npos)
      << d.message;
}

TEST(ParserHardeningTest, IntegerOperandOutsideInt64IsRejected) {
  // strtoll clamped these to INT64_MAX / INT64_MIN without a word.
  for (const char* constant : {"99999999999999999999999", "9223372036854775808",
                               "-1e300", "nan", "inf"}) {
    Diagnostic d = expectParseFailure(
        std::string("module \"m\" {\nfunc @main() -> i64 {\nentry:\n"
                    "  %a = add i64 1, 2\n  %b = add i64 %a, ") +
        constant + "\n  ret i64 %b\n}\n}\n");
    EXPECT_NE(d.message.find("is outside the range of a 64-bit integer"),
              std::string::npos)
        << constant << ": " << d.message;
    EXPECT_EQ(d.line, 5) << constant;
  }
  // The ends of the range, and a float's non-finite values, still parse.
  auto parsed = parseModuleExpected(
      "module \"m\" {\nfunc @main() -> i64 {\nentry:\n"
      "  %a = add i64 -9223372036854775808, 9223372036854774784\n"
      "  %f = fadd f64 nan, -inf\n"
      "  ret i64 %a\n}\n}\n");
  ASSERT_TRUE(parsed.ok()) << parsed.diagnostic().message;
}

TEST(ParserHardeningTest, OversizedInitializerIsRejected) {
  Diagnostic d = expectParseFailure(
      "module \"m\" {\n"
      "global @g : i64[2] = [1, 2, 3]\n"
      "}\n");
  EXPECT_NE(d.message.find("more than 2"), std::string::npos);
}

TEST(ParserHardeningTest, HugeGlobalIsCappedNotAllocated) {
  // Historically attempted a ~8 TB allocation.
  Diagnostic d = expectParseFailure(
      "module \"m\" {\n"
      "global @g : f64[999999999999]\n"
      "}\n");
  EXPECT_NE(d.message.find("element limit"), std::string::npos);
}

TEST(ParserHardeningTest, NegativeGlobalSizeDoesNotWrapAround) {
  // strtoull would silently wrap "-1" to 2^64-1.
  Diagnostic d = expectParseFailure(
      "module \"m\" {\n"
      "global @g : i64[-1]\n"
      "}\n");
  EXPECT_NE(d.message.find("invalid array size"), std::string::npos);
}

TEST(ParserHardeningTest, TotalGlobalBytesAreCapped) {
  ParserLimits limits;
  limits.maxTotalGlobalBytes = 1024;
  Diagnostic d = expectParseFailure(
      "module \"m\" {\n"
      "global @a : f64[100]\n"
      "global @b : f64[100]\n"
      "}\n",
      limits);
  EXPECT_NE(d.message.find("total size limit"), std::string::npos);
  EXPECT_EQ(d.line, 3);
}

TEST(ParserHardeningTest, InputSizeIsCapped) {
  ParserLimits limits;
  limits.maxInputBytes = 64;
  std::string big(1024, 'x');
  Diagnostic d = expectParseFailure(big, limits);
  EXPECT_NE(d.message.find("size limit"), std::string::npos);
}

TEST(ParserHardeningTest, TruncatedModuleReportsEof) {
  Diagnostic d = expectParseFailure(
      "module \"m\" {\n"
      "func @main() -> i64 {\n"
      "entry:\n"
      "  %a = add i64 1, 2\n");
  EXPECT_NE(d.message.find("not terminated"), std::string::npos);
  EXPECT_GT(d.line, 0);
}

TEST(ParserHardeningTest, TrailingContentAfterModuleCloseIsRejected) {
  Diagnostic d = expectParseFailure(
      "module \"m\" {\n"
      "func @main() -> i64 {\n"
      "entry:\n"
      "  ret i64 0\n"
      "}\n"
      "}\n"
      "global @late : i64[1] = [0]\n");
  EXPECT_NE(d.message.find("trailing content"), std::string::npos);
  EXPECT_EQ(d.line, 7);
}

TEST(ParserHardeningTest, DuplicateNamesAreRejected) {
  EXPECT_NE(expectParseFailure("module \"m\" {\n"
                               "global @g : i64[1]\n"
                               "global @g : i64[1]\n"
                               "}\n")
                .message.find("duplicate global"),
            std::string::npos);
  EXPECT_NE(expectParseFailure("module \"m\" {\n"
                               "func @f() -> i64 {\nentry:\n  ret i64 0\n}\n"
                               "func @f() -> i64 {\nentry:\n  ret i64 0\n}\n"
                               "}\n")
                .message.find("duplicate function"),
            std::string::npos);
  EXPECT_NE(expectParseFailure("module \"m\" {\n"
                               "func @f() -> i64 {\n"
                               "entry:\n"
                               "  br next\n"
                               "next:\n"
                               "  br entry\n"
                               "next:\n"
                               "  ret i64 0\n"
                               "}\n"
                               "}\n")
                .message.find("duplicate block"),
            std::string::npos);
  EXPECT_NE(expectParseFailure("module \"m\" {\n"
                               "func @f() -> i64 {\n"
                               "entry:\n"
                               "  %a = add i64 1, 2\n"
                               "  %a = add i64 3, 4\n"
                               "  ret i64 %a\n"
                               "}\n"
                               "}\n")
                .message.find("redefinition"),
            std::string::npos);
}

TEST(ParserHardeningTest, UndefinedReferencesAreRejected) {
  EXPECT_NE(
      expectParseFailure("module \"m\" {\n"
                         "func @f() -> i64 {\n"
                         "entry:\n"
                         "  br nowhere\n"
                         "}\n"
                         "}\n")
          .message.find("unknown block"),
      std::string::npos);
  Diagnostic d = expectParseFailure(
      "module \"m\" {\n"
      "func @f() -> i64 {\n"
      "entry:\n"
      "  %a = add i64 %ghost, 1\n"
      "  ret i64 %a\n"
      "}\n"
      "}\n");
  EXPECT_NE(d.message.find("undefined value %ghost"), std::string::npos);
  EXPECT_EQ(d.line, 4);
}

TEST(ParserHardeningTest, StructuralCapsApply) {
  ParserLimits limits;
  limits.maxFunctions = 2;
  std::string text = "module \"m\" {\n";
  for (int i = 0; i < 3; ++i) {
    text += "func @f" + std::to_string(i) +
            "() -> i64 {\nentry:\n  ret i64 0\n}\n";
  }
  text += "}\n";
  EXPECT_NE(expectParseFailure(text, limits).message.find("function count"),
            std::string::npos);

  ParserLimits instLimits;
  instLimits.maxInstructionsPerFunction = 4;
  std::string body = "module \"m\" {\nfunc @f() -> i64 {\nentry:\n";
  for (int i = 0; i < 8; ++i) {
    body += "  %v" + std::to_string(i) + " = add i64 1, 2\n";
  }
  body += "  ret i64 0\n}\n}\n";
  EXPECT_NE(
      expectParseFailure(body, instLimits).message.find("instruction count"),
      std::string::npos);
}

TEST(ParserHardeningTest, GepElemSizeIsRangeChecked) {
  Diagnostic d = expectParseFailure(
      "module \"m\" {\n"
      "global @g : i64[4]\n"
      "func @f() -> i64 {\n"
      "entry:\n"
      "  %p = gep @g, 0, elem 4096\n"
      "  %v = load i64, %p\n"
      "  ret i64 %v\n"
      "}\n"
      "}\n");
  EXPECT_NE(d.message.find("out of range"), std::string::npos);
}

TEST(ParserHardeningTest, DiagnosticCarriesLineAndColumn) {
  support::Expected<std::unique_ptr<Module>> result = parseModuleExpected(
      "module \"m\" {\n"
      "func @f() -> i64 {\n"
      "entry:\n"
      "  %a = bogusop i64 1, 2\n"
      "  ret i64 %a\n"
      "}\n"
      "}\n");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.diagnostic().line, 4);
  EXPECT_GT(result.diagnostic().col, 0);
  EXPECT_NE(result.diagnostic().message.find("unknown opcode"),
            std::string::npos);
}

TEST(ParserHardeningTest, UnknownOpcodeIsReportedAtTheOpcode) {
  // The diagnostic must blame the opcode, not the word after it.
  Diagnostic d = expectParseFailure(
      "module \"m\" {\n"
      "func @f() -> i64 {\n"
      "entry:\n"
      "  %x = frob foo 1, 2\n"
      "  ret i64 %x\n"
      "}\n"
      "}\n");
  EXPECT_NE(d.message.find("unknown opcode 'frob'"), std::string::npos)
      << d.message;
  EXPECT_EQ(d.line, 4);
  EXPECT_LT(d.col, 13);  // 'foo' starts at column 13

  // Errors are reported in line order: the bad opcode on line 4 wins over
  // the bad type on line 5.
  d = expectParseFailure(
      "module \"m\" {\n"
      "func @f() -> i64 {\n"
      "entry:\n"
      "  %x = frob i64 1, 2\n"
      "  %y = add bogus 1, 2\n"
      "  ret i64 %y\n"
      "}\n"
      "}\n");
  EXPECT_NE(d.message.find("unknown opcode 'frob'"), std::string::npos)
      << d.message;
  EXPECT_EQ(d.line, 4);
}

TEST(ParserHardeningTest, NanLiteralDoesNotCorruptConstantMap) {
  // NaN keys used to violate std::map's strict weak ordering in constFP.
  std::unique_ptr<Module> module = parseModule(
      "module \"m\" {\n"
      "func @main() -> f64 {\n"
      "entry:\n"
      "  %a = fadd f64 nan, 1.0\n"
      "  %b = fadd f64 nan, 2.0\n"
      "  %c = fadd f64 %a, %b\n"
      "  ret f64 %c\n"
      "}\n"
      "}\n");
  ASSERT_TRUE(verifyModule(*module).empty());
  // Printing and reparsing the module must also be stable.
  std::string printed = printModule(*module);
  std::unique_ptr<Module> reparsed = parseModule(printed);
  EXPECT_EQ(printModule(*reparsed), printed);
}

TEST(ParserHardeningTest, LegacyParseModuleStillThrowsCatchableError) {
  EXPECT_THROW(parseModule("not a module"), Error);
  EXPECT_THROW(parseModule("not a module"), DiagnosticError);
}

TEST(VerifierHardeningTest, StructuralViolationsAreReported) {
  // Build by hand: a condbr with one successor is unreachable through the
  // parser, so construct the raw IR directly.
  Module module("bad");
  Function* f = module.addFunction("f", Type::i64(), {});
  BasicBlock* entry = f->addBlock("entry");
  BasicBlock* next = f->addBlock("next");
  auto br = std::make_unique<Instruction>(Opcode::Br, Type::voidTy(),
                                          std::vector<Value*>{}, "");
  br->setSuccessors({entry, next});  // br must have exactly one successor
  entry->append(std::move(br));
  auto ret = std::make_unique<Instruction>(
      Opcode::Ret, Type::voidTy(),
      std::vector<Value*>{module.constInt(Type::i64(), 0)}, "");
  next->append(std::move(ret));

  std::vector<std::string> errors = verifyModule(module);
  ASSERT_FALSE(errors.empty());
  bool found = false;
  for (const std::string& e : errors) {
    if (e.find("successor") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);

  try {
    verifyOrThrow(module);
    FAIL() << "expected DiagnosticError";
  } catch (const DiagnosticError& e) {
    EXPECT_EQ(e.diagnostic().stage, Stage::Verify);
    EXPECT_EQ(e.diagnostic().unit, "bad");
  }
}

TEST(VerifierHardeningTest, ValuesReadAsTheWrongKindAreRejected) {
  // The parser types a named operand by its definition, so each of these
  // parses; the verifier must reject reading an integer as a float or a
  // float as an integer (the interpreters would otherwise disagree).
  const char* bodies[] = {
      "  %r = fadd f64 %a, %a\n  ret f64 %r\n",
      "  %x = sitofp i64 %a to f64\n  %r = add i64 %x, 1\n"
      "  %s = sitofp i64 %r to f64\n  ret f64 %s\n",
      "  %r = add f64 1.5, 2.5\n  ret f64 %r\n",
      "  %x = sitofp i64 %a to f64\n  %c = icmp lt i64 %a, 1\n"
      "  %r = select f64 %c, %x, %a\n  ret f64 %r\n",
  };
  for (const char* body : bodies) {
    std::string text = std::string("module \"m\" {\n"
                                   "func @f(%a: i64) -> f64 {\n"
                                   "entry:\n") +
                       body + "}\n}\n";
    support::Expected<std::unique_ptr<Module>> parsed =
        parseModuleExpected(text);
    ASSERT_TRUE(parsed.ok()) << text;
    std::vector<std::string> errors = verifyModule(*parsed.value());
    ASSERT_FALSE(errors.empty()) << text;
    EXPECT_NE(errors.front().find("has type"), std::string::npos)
        << errors.front();
  }
}

TEST(VerifierHardeningTest, ErrorListIsCapped) {
  // A module with hundreds of violations must not build an unbounded report.
  Module module("flood");
  Function* f = module.addFunction("f", Type::i64(), {});
  BasicBlock* block = f->addBlock("entry");
  for (int i = 0; i < 200; ++i) {
    // Loads with no operand: one structural violation each.
    block->append(std::make_unique<Instruction>(
        Opcode::Load, Type::i64(), std::vector<Value*>{}, ""));
  }
  std::vector<std::string> errors = verifyModule(module);
  ASSERT_FALSE(errors.empty());
  EXPECT_LE(errors.size(), 65u);  // 64 + the suppression notice
}

}  // namespace
}  // namespace cayman::ir
