// Accelerator-model micro-benchmarks (google-benchmark): candidate
// generation on the largest workloads, cold (fresh model, eager
// warmGenerateCache over every candidate region) and warm (memoized
// generate() reads), plus a synthetic deep-loop-nest stress kernel whose
// every level is a candidate region. The per-iteration counters report each
// cold sweep's estimate()/scheduleBlock() totals (DESIGN.md §12 has the
// sweep-wide counter table). The cjpeg/3mm rows keep their `_guided` suffix
// so they stay comparable with the recorded history.
#include <benchmark/benchmark.h>

#include "cayman/framework.h"
#include "ir/verifier.h"
#include "workloads/kernel_builder.h"
#include "workloads/workloads.h"

namespace {

using namespace cayman;

// Cold generation: a fresh model per iteration (the Framework's profile and
// analyses are reused; the model rebuilds its own caches), then an eager
// sweep over every candidate region. This is the dominant model cost of one
// evaluate-all row.
void BM_GenerateCold(benchmark::State& state, const char* workload) {
  Framework fw(workloads::build(workload));
  accel::ModelParams params = fw.model().params();
  uint64_t estimates = 0;
  uint64_t schedules = 0;
  for (auto _ : state) {
    accel::AcceleratorModel model(fw.wpst(), fw.profile(), fw.tech(),
                                  hls::InterfaceTiming{}, params);
    model.warmGenerateCache();
    estimates = model.estimateCalls();
    schedules = model.scheduleBlockCalls();
    benchmark::DoNotOptimize(model.candidatesTotal());
  }
  state.counters["estimates"] = static_cast<double>(estimates);
  state.counters["schedules"] = static_cast<double>(schedules);
}
BENCHMARK_CAPTURE(BM_GenerateCold, cjpeg_guided, "cjpeg");
BENCHMARK_CAPTURE(BM_GenerateCold, 3mm_guided, "3mm");

// Warm generation: every call is a memoized cache read; this is what the
// selector's pre-pass sees on repeated budget sweeps over one Framework.
void BM_GenerateWarm(benchmark::State& state, const char* workload) {
  Framework fw(workloads::build(workload));
  fw.model().warmGenerateCache();
  for (auto _ : state) {
    size_t configs = 0;
    for (const analysis::Region* region : fw.wpst().allRegions()) {
      configs += fw.model().generate(region).size();
    }
    benchmark::DoNotOptimize(configs);
  }
}
BENCHMARK_CAPTURE(BM_GenerateWarm, cjpeg_guided, "cjpeg");

// Synthetic deep-nest stress: depth-4 loop nest over f64 arrays with an
// unrollable, pipelineable innermost body. Every nest level is its own
// candidate region, so the ladder walk and the schedule cache are exercised
// on a worst-case region tree rather than a real kernel's mix.
std::unique_ptr<ir::Module> deepNestKernel(int64_t n) {
  auto module = std::make_unique<ir::Module>("deepnest");
  auto* a = module->addGlobal("A", ir::Type::f64(),
                              static_cast<uint64_t>(n * n));
  auto* b = module->addGlobal("B", ir::Type::f64(),
                              static_cast<uint64_t>(n * n));
  workloads::KernelBuilder kb(module.get());
  kb.beginFunction("main");
  ir::Value* i = kb.beginLoop(0, n, "i");
  ir::Value* j = kb.beginLoop(0, n, "j");
  ir::Value* k = kb.beginLoop(0, n, "k");
  ir::Value* l = kb.beginLoop(0, n, "l");
  ir::Value* idx = kb.idx2(k, l, n);
  ir::Value* v = kb.ir().fadd(kb.ir().fmul(kb.loadAt(a, idx), kb.loadAt(b, idx)),
                              kb.loadAt(a, kb.idx2(i, j, n)));
  kb.storeAt(b, idx, v);
  kb.endLoop();
  kb.endLoop();
  kb.endLoop();
  kb.endLoop();
  kb.endFunction();
  ir::verifyOrThrow(*module);
  return module;
}

void BM_GenerateDeepNest(benchmark::State& state) {
  Framework fw(deepNestKernel(6));
  accel::ModelParams params = fw.model().params();
  uint64_t estimates = 0;
  uint64_t schedules = 0;
  for (auto _ : state) {
    accel::AcceleratorModel model(fw.wpst(), fw.profile(), fw.tech(),
                                  hls::InterfaceTiming{}, params);
    model.warmGenerateCache();
    estimates = model.estimateCalls();
    schedules = model.scheduleBlockCalls();
    benchmark::DoNotOptimize(model.candidatesTotal());
  }
  state.counters["estimates"] = static_cast<double>(estimates);
  state.counters["schedules"] = static_cast<double>(schedules);
}
BENCHMARK(BM_GenerateDeepNest);

}  // namespace

BENCHMARK_MAIN();
