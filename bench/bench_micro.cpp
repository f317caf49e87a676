// Substrate micro-benchmarks (google-benchmark): interpreter throughput,
// wPST construction, analysis passes, block scheduling, and the selection
// DP. These bound the framework runtime column of Table II.
#include <benchmark/benchmark.h>

#include "cayman/framework.h"
#include "ir/verifier.h"
#include "workloads/workloads.h"

namespace {

using namespace cayman;

// Decoded engine (the default): pre-decoded micro-op stream, hash-free hot
// loop. The insts/s counter accumulates across iterations so the rate is the
// true dynamic-instruction throughput. atax alone overstates it (one dense
// loop nest); cjpeg is the sweep's longest profile and has a more varied
// op mix.
void BM_InterpreterRun(benchmark::State& state, const char* workload) {
  auto module = workloads::build(workload);
  sim::Interpreter interp(*module);
  uint64_t instructions = 0;
  for (auto _ : state) {
    sim::Interpreter::Result result = interp.run();
    instructions += result.instructions;
    benchmark::DoNotOptimize(result.totalCycles);
  }
  state.counters["insts/s"] = benchmark::Counter(
      static_cast<double>(instructions), benchmark::Counter::kIsRate);
}
BENCHMARK_CAPTURE(BM_InterpreterRun, atax, "atax");
BENCHMARK_CAPTURE(BM_InterpreterRun, cjpeg, "cjpeg");

// One-time decode cost (amortized over every subsequent run): lowers all
// functions of the workload to micro-op streams from scratch each iteration.
void BM_InterpreterDecode(benchmark::State& state) {
  auto module = workloads::build("cjpeg");
  sim::Interpreter interp(*module);
  sim::Interpreter::DecodeStats stats;
  uint64_t decodedUops = 0;
  for (auto _ : state) {
    stats = interp.predecodeAll(/*force=*/true);
    decodedUops += stats.microOps;
    benchmark::DoNotOptimize(stats.microOps);
  }
  state.counters["uops"] = static_cast<double>(stats.microOps);
  state.counters["uops/s"] = benchmark::Counter(
      static_cast<double>(decodedUops), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_InterpreterDecode);

void BM_WPstConstruction(benchmark::State& state) {
  auto module = workloads::build("cjpeg");
  for (auto _ : state) {
    analysis::WPst wpst(*module);
    benchmark::DoNotOptimize(wpst.allRegions().size());
  }
}
BENCHMARK(BM_WPstConstruction);

// The pipeline's static side for the whole suite, as Framework runs it:
// build each of the 28 workloads, verify it once, and build its wPST with
// the per-function analyses (CFG, dominators, loops, SCEV, memory
// dependences) that both accelerator models then share.
void BM_AnalyzeWorkloads(benchmark::State& state) {
  std::vector<std::string> names;
  for (const workloads::WorkloadInfo& info : workloads::all()) {
    names.push_back(info.name);
  }
  uint64_t regions = 0;
  for (auto _ : state) {
    for (const std::string& name : names) {
      std::unique_ptr<ir::Module> module = workloads::build(name);
      ir::verifyOrThrow(*module);
      analysis::WPst wpst(*module);
      regions += wpst.allRegions().size();
    }
  }
  state.counters["regions/s"] = benchmark::Counter(
      static_cast<double>(regions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_AnalyzeWorkloads);

void BM_ScalarEvolutionAndDeps(benchmark::State& state) {
  auto module = workloads::build("3mm");
  analysis::WPst wpst(*module);
  const ir::Function* f = module->entryFunction();
  for (auto _ : state) {
    analysis::ScalarEvolution scev(*f, wpst.analyses(f));
    analysis::MemoryAnalysis mem(*f, wpst.analyses(f), scev);
    benchmark::DoNotOptimize(mem.accesses().size());
  }
}
BENCHMARK(BM_ScalarEvolutionAndDeps);

void BM_BlockScheduling(benchmark::State& state) {
  auto module = workloads::build("3mm");
  const ir::BasicBlock* body =
      module->entryFunction()->blockByName("mm1.k.body");
  hls::TechLibrary tech = hls::TechLibrary::nangate45();
  hls::Scheduler scheduler(tech, hls::InterfaceTiming{}, 2.0);
  unsigned unroll = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    hls::BlockSchedule sched = scheduler.scheduleBlock(*body, {}, unroll);
    benchmark::DoNotOptimize(sched.latency);
  }
}
BENCHMARK(BM_BlockScheduling)->Arg(1)->Arg(4)->Arg(16);

// The same block with every access on a scratchpad banked `unroll` ways (the
// assignment an unrolled, pipelined loop gets), so the bank-contention path
// is measured instead of the single coupled port.
void BM_BlockSchedulingScratchpad(benchmark::State& state) {
  auto module = workloads::build("3mm");
  const ir::BasicBlock* body =
      module->entryFunction()->blockByName("mm1.k.body");
  hls::TechLibrary tech = hls::TechLibrary::nangate45();
  hls::Scheduler scheduler(tech, hls::InterfaceTiming{}, 2.0);
  unsigned unroll = static_cast<unsigned>(state.range(0));
  hls::IfaceAssignment ifaces;
  for (const auto& inst : body->instructions()) {
    if (!inst->isMemoryAccess()) continue;
    hls::AccessIface iface;
    iface.kind = hls::IfaceKind::Scratchpad;
    iface.partitions = unroll;
    // Bank per backing array: walk the address chain down to the global.
    const ir::Value* ptr = inst->pointerOperand();
    while (const auto* def = ir::dynCast<ir::Instruction>(ptr)) {
      ptr = def->operand(0);
    }
    iface.array = ir::dynCast<ir::GlobalArray>(ptr);
    ifaces[inst.get()] = iface;
  }
  for (auto _ : state) {
    hls::BlockSchedule sched = scheduler.scheduleBlock(*body, ifaces, unroll);
    benchmark::DoNotOptimize(sched.latency);
  }
}
BENCHMARK(BM_BlockSchedulingScratchpad)->Arg(1)->Arg(4)->Arg(16);

void BM_SelectionDp(benchmark::State& state) {
  Framework fw(workloads::build("deriche"));
  for (auto _ : state) {
    select::Solution best = fw.best(0.65);
    benchmark::DoNotOptimize(best.areaUm2);
  }
}
BENCHMARK(BM_SelectionDp);

void BM_EndToEndEvaluate(benchmark::State& state) {
  for (auto _ : state) {
    Framework fw(workloads::build("mvt"));
    EvaluationReport report = fw.evaluate(0.25);
    benchmark::DoNotOptimize(report.caymanSpeedup);
  }
}
BENCHMARK(BM_EndToEndEvaluate);

void BM_Merging(benchmark::State& state) {
  Framework fw(workloads::build("3mm"));
  select::Solution best = fw.best(0.65);
  merge::AcceleratorMerger merger(fw.tech());
  for (auto _ : state) {
    merge::MergeResult result = merger.run(best);
    benchmark::DoNotOptimize(result.areaAfterUm2);
  }
}
BENCHMARK(BM_Merging);

}  // namespace

BENCHMARK_MAIN();
