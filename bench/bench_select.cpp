// Selector micro-benchmarks (google-benchmark): the Algorithm 1 DP on the
// largest workloads, a twelve-budget best() sweep, plus a
// synthetic wide-front ⊗ stress case. Their Frameworks are built once per
// benchmark, so the model's generate cache is warm after the first iteration
// and the steady state measures the DP itself — the same quantity the
// select.dp span times now that candidate generation runs in the selector's
// pre-pass. BM_EvaluateBudgetSweep instead times evaluate() over the same
// sweep on fresh Frameworks, whose selection memos start empty.
#include <benchmark/benchmark.h>

#include "cayman/framework.h"
#include "workloads/workloads.h"

namespace {

using namespace cayman;

select::SelectorParams paramsFor(const Framework& fw, double budgetRatio) {
  select::SelectorParams params;
  params.areaBudgetUm2 = fw.budgetUm2(budgetRatio);
  params.alpha = fw.options().alpha;
  params.pruneHotFraction = fw.options().pruneHotFraction;
  params.clockRatio = fw.options().clockRatio();
  return params;
}

// Full Algorithm 1 run (pre-pass + DP + materialization) on one workload.
// Row names keep their `_frontier` suffix so they stay comparable with the
// recorded history.
void BM_SelectDp(benchmark::State& state, const char* workload) {
  Framework fw(workloads::build(workload));
  select::CandidateSelector selector(fw.model(), paramsFor(fw, 0.65));
  select::SelectStats stats;
  for (auto _ : state) {
    std::vector<select::Solution> front = selector.select(stats);
    benchmark::DoNotOptimize(front.size());
  }
  state.counters["front"] = static_cast<double>(stats.frontPeak);
  state.counters["pairs"] = static_cast<double>(stats.combinePairs);
}
BENCHMARK_CAPTURE(BM_SelectDp, cjpeg_frontier, "cjpeg");
BENCHMARK_CAPTURE(BM_SelectDp, 3mm_frontier, "3mm");

// A design-space explorer's query pattern: warm cjpeg and 3mm Frameworks
// asked for Cayman's and the QsCores baseline's best() at twelve budgets
// over [0.02, 1.0]. The small budgets collapse many ⊗ operands to the
// one-entry {∅} front, the frontier DP's identity fast path. The selectors
// run on the models directly, past the Framework's and the baseline's
// selection memos, so every budget times the DP.
void BM_SelectBudgetSweep(benchmark::State& state) {
  std::vector<std::unique_ptr<Framework>> frameworks;
  for (const char* workload : {"cjpeg", "3mm"}) {
    frameworks.push_back(
        std::make_unique<Framework>(workloads::build(workload)));
  }
  auto sweep = [&] {
    for (const std::unique_ptr<Framework>& fw : frameworks) {
      for (int step = 0; step < 12; ++step) {
        const double budgetRatio = 0.02 + 0.98 * step / 11.0;
        select::SelectStats stats;
        benchmark::DoNotOptimize(
            select::CandidateSelector(fw->model(), paramsFor(*fw, budgetRatio))
                .best(stats)
                .areaUm2);
        select::SelectorParams qscores;
        qscores.areaBudgetUm2 = fw->budgetUm2(budgetRatio);
        qscores.clockRatio = fw->options().clockRatio();
        benchmark::DoNotOptimize(
            select::CandidateSelector(fw->qscores().model(), qscores)
                .best(stats)
                .areaUm2);
      }
    }
  };
  sweep();  // warms both models' generate caches
  for (auto _ : state) sweep();
}
BENCHMARK(BM_SelectBudgetSweep);

// The same twelve budgets through evaluate() (selection, merge and both
// baselines) on cjpeg and 3mm Frameworks built, with warm generate caches,
// under PauseTiming: every iteration starts with empty selection memos, so
// it shows what the memo saves within one sweep.
void BM_EvaluateBudgetSweep(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<std::unique_ptr<Framework>> frameworks;
    for (const char* workload : {"cjpeg", "3mm"}) {
      frameworks.push_back(
          std::make_unique<Framework>(workloads::build(workload)));
      frameworks.back()->model().warmGenerateCache();
      frameworks.back()->qscores().model().warmGenerateCache();
    }
    state.ResumeTiming();
    for (const std::unique_ptr<Framework>& fw : frameworks) {
      for (int step = 0; step < 12; ++step) {
        const double budgetRatio = 0.02 + 0.98 * step / 11.0;
        benchmark::DoNotOptimize(fw->evaluate(budgetRatio).caymanSpeedup);
      }
    }
    state.PauseTiming();
    frameworks.clear();
    state.ResumeTiming();
  }
}
BENCHMARK(BM_EvaluateBudgetSweep);

// Synthetic wide-front stress: two strict Pareto fronts of `width`
// two-config solutions run through one ⊗ + α-filter step, the inner loop of
// the DP. The budget, the widest single pair's area, admits roughly half of
// the width² pairs, so the early budget break-out is exercised, not
// bypassed.
constexpr double kRatio = 1.25;
constexpr double kAlpha = 1.12;

std::vector<accel::AcceleratorConfig> syntheticConfigs(size_t width,
                                                       double areaStep) {
  std::vector<accel::AcceleratorConfig> configs(2 * width);
  for (size_t i = 0; i < configs.size(); ++i) {
    accel::AcceleratorConfig& config = configs[i];
    config.areaUm2 = 40.0 + areaStep * static_cast<double>(i);
    config.cpuCycles = 4000.0 * static_cast<double>(i + 1);
    // savedCycles = cpuCycles * (1 - kRatio / 4): strictly increasing with
    // area, so pairwise-merged fronts stay strict Pareto fronts.
    config.cycles = config.cpuCycles / 4.0;
  }
  return configs;
}

std::vector<select::FrontierEntry> syntheticEntries(
    const std::vector<accel::AcceleratorConfig>& configs,
    select::SolutionArena& arena) {
  std::vector<select::FrontierEntry> front;
  front.reserve(configs.size() / 2);
  for (size_t i = 0; i + 1 < configs.size(); i += 2) {
    front.push_back(select::mergeEntries(
        select::entryFromConfig(configs[i], kRatio, arena),
        select::entryFromConfig(configs[i + 1], kRatio, arena), kRatio,
        arena));
  }
  return front;
}

void BM_CombineWideFront_Frontier(benchmark::State& state) {
  size_t width = static_cast<size_t>(state.range(0));
  std::vector<accel::AcceleratorConfig> configsA =
      syntheticConfigs(width, 37.0);
  std::vector<accel::AcceleratorConfig> configsB =
      syntheticConfigs(width, 53.0);
  select::SolutionArena baseArena;
  std::vector<select::FrontierEntry> a = syntheticEntries(configsA, baseArena);
  std::vector<select::FrontierEntry> b = syntheticEntries(configsB, baseArena);
  double budget = b.back().areaUm2;
  select::SelectStats pairs;
  for (auto _ : state) {
    // Fresh arena per step (copied from the pristine base), as in a DP
    // combine: admitted pairs append nodes, dropped points keep theirs.
    select::SolutionArena arena = baseArena;
    std::vector<select::FrontierEntry> merged = select::filterByAlpha(
        select::combine(a, b, budget, kRatio, arena, &pairs), kAlpha);
    benchmark::DoNotOptimize(merged.size());
    benchmark::DoNotOptimize(arena.nodeCount());
  }
  state.counters["pairs/iter"] = static_cast<double>(
      pairs.combinePairs / std::max<uint64_t>(1, state.iterations()));
}
BENCHMARK(BM_CombineWideFront_Frontier)->Arg(32)->Arg(96);

}  // namespace

BENCHMARK_MAIN();
