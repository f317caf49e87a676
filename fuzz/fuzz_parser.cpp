// Fuzz target for the untrusted-IR ingestion path.
//
// One input exercises the whole hardened front end:
//   1. parse under tight fuzz limits (rejections are fine, crashes are not),
//   2. verify (structurally bad modules are rejected),
//   3. print -> reparse -> verify -> print: the textual format must round-trip
//      to a fixpoint for any module that survived 1+2,
//   4. differential interpretation: the decoded engine and the reference
//      tree-walker (the test-only oracle in tests/oracles/) run the module
//      under a tiny instruction limit and must either both throw or produce
//      bit-identical results.
//
// Build shapes:
//   - fuzz_parser        libFuzzer driver (Clang only, -fsanitize=fuzzer).
//   - fuzz_parser_replay standalone main (any compiler): replays corpus files
//     under ctest and writes the workload seed corpus with --write-seeds.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "ir/parser.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "oracles/interpreter.h"
#include "sim/interpreter.h"
#include "support/status.h"

namespace {

using namespace cayman;

/// Much tighter than production ParserLimits: the fuzzer probes logic, not
/// allocator throughput, so keep per-input work small.
ir::ParserLimits fuzzLimits() {
  ir::ParserLimits limits;
  limits.maxInputBytes = 1u << 17;  // covers the largest workload seed
  limits.maxGlobalElems = 1u << 14;
  limits.maxTotalGlobalBytes = 1u << 18;
  limits.maxFunctions = 64;
  limits.maxBlocksPerFunction = 1u << 10;
  limits.maxInstructionsPerFunction = 1u << 12;
  limits.maxParams = 16;
  return limits;
}

constexpr uint64_t kFuzzInstructionLimit = 1u << 14;

void require(bool condition, const char* what) {
  if (condition) return;
  std::fprintf(stderr, "fuzz invariant violated: %s\n", what);
  std::abort();
}

/// Result of one interpreter run, reduced to bit-comparable fields.
struct RunOutcome {
  bool threw = false;
  uint64_t instructions = 0;
  uint64_t cyclesBits = 0;
  bool hasReturn = false;
  int64_t returnI = 0;
  uint64_t returnFBits = 0;
};

/// Runs the module on one engine: sim::Interpreter or the reference oracle.
template <typename Engine>
RunOutcome interpret(const ir::Module& module) {
  RunOutcome out;
  try {
    Engine interpreter(module);
    interpreter.setInstructionLimit(kFuzzInstructionLimit);
    sim::Interpreter::Result result = interpreter.run();
    out.instructions = result.instructions;
    std::memcpy(&out.cyclesBits, &result.totalCycles, sizeof(out.cyclesBits));
    out.hasReturn = result.returnValue.has_value();
    if (out.hasReturn) {
      out.returnI = result.returnValue->i;
      std::memcpy(&out.returnFBits, &result.returnValue->f,
                  sizeof(out.returnFBits));
    }
  } catch (const Error&) {
    // Instruction limit, call-depth guard, division traps, ... — catchable
    // rejection is a valid outcome as long as both engines agree.
    out.threw = true;
  }
  return out;
}

void runOne(const uint8_t* data, size_t size) {
  std::string text(reinterpret_cast<const char*>(data), size);

  support::Expected<std::unique_ptr<ir::Module>> parsed =
      ir::parseModuleExpected(text, fuzzLimits());
  if (!parsed.ok()) return;
  std::unique_ptr<ir::Module> module = parsed.takeValue();
  if (!ir::verifyModule(*module).empty()) return;

  // Roundtrip: a verified module's printed form must reparse (under the
  // untightened production limits — printing can expand the text), verify
  // cleanly, and print to a fixpoint.
  std::string printed = ir::printModule(*module);
  support::Expected<std::unique_ptr<ir::Module>> reparsed =
      ir::parseModuleExpected(printed, ir::ParserLimits{});
  require(reparsed.ok(), "printed IR failed to reparse");
  std::unique_ptr<ir::Module> roundtrip = reparsed.takeValue();
  require(ir::verifyModule(*roundtrip).empty(),
          "printed IR failed to verify after reparse");
  require(ir::printModule(*roundtrip) == printed,
          "print -> reparse -> print is not a fixpoint");

  // Differential interpretation, decoded vs. reference oracle.
  if (module->entryFunction() == nullptr) return;
  RunOutcome decoded = interpret<sim::Interpreter>(*module);
  RunOutcome reference = interpret<oracles::ReferenceInterpreter>(*module);
  require(decoded.threw == reference.threw,
          "decoded and reference engines disagree on rejection");
  if (decoded.threw) return;
  require(decoded.instructions == reference.instructions,
          "decoded and reference engines disagree on instruction count");
  require(decoded.cyclesBits == reference.cyclesBits,
          "decoded and reference engines disagree on cycles");
  require(decoded.hasReturn == reference.hasReturn &&
              decoded.returnI == reference.returnI &&
              decoded.returnFBits == reference.returnFBits,
          "decoded and reference engines disagree on return value");
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  runOne(data, size);
  return 0;
}

#ifdef CAYMAN_FUZZ_STANDALONE

#include <fstream>
#include <sstream>

#include "workloads/workloads.h"

namespace {

int writeSeeds(const std::string& dir) {
  size_t written = 0;
  for (const auto& info : workloads::all()) {
    std::unique_ptr<ir::Module> module = workloads::build(info.name);
    std::string path = dir + "/" + info.name + ".cir";
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    out << ir::printModule(*module);
    ++written;
  }
  std::printf("wrote %zu seed files to %s\n", written, dir.c_str());
  return 0;
}

}  // namespace

// Standalone replay driver: each argument is a corpus file to feed through
// runOne(). Exits 0 iff every file replays without tripping an invariant.
int main(int argc, char** argv) {
  if (argc >= 3 && std::string(argv[1]) == "--write-seeds") {
    return writeSeeds(argv[2]);
  }
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: fuzz_parser_replay <corpus-file>...\n"
                 "       fuzz_parser_replay --write-seeds <dir>\n");
    return 2;
  }
  for (int i = 1; i < argc; ++i) {
    std::ifstream in(argv[i], std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", argv[i]);
      return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    std::string bytes = text.str();
    runOne(reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size());
    std::printf("replayed %s (%zu bytes)\n", argv[i], bytes.size());
  }
  return 0;
}

#endif  // CAYMAN_FUZZ_STANDALONE
