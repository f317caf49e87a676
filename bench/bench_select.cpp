// Selector micro-benchmarks (google-benchmark): the Algorithm 1 DP on the
// largest workloads in both engines, a twelve-budget best() sweep, plus a
// synthetic wide-front ⊗ stress case. The Framework is built once per benchmark, so the model's generate
// cache is warm after the first iteration and the steady state measures the
// DP itself — the same quantity the select.dp span times now that candidate
// generation runs in the selector's pre-pass.
#include <benchmark/benchmark.h>

#include "cayman/framework.h"
#include "workloads/workloads.h"

namespace {

using namespace cayman;

select::SelectorParams paramsFor(const Framework& fw, double budgetRatio,
                                 select::SelectMode mode) {
  select::SelectorParams params;
  params.areaBudgetUm2 = fw.budgetUm2(budgetRatio);
  params.alpha = fw.options().alpha;
  params.pruneHotFraction = fw.options().pruneHotFraction;
  params.clockRatio = fw.options().clockRatio();
  params.mode = mode;
  return params;
}

// Full Algorithm 1 run (pre-pass + DP + materialization) on one workload.
void BM_SelectDp(benchmark::State& state, const char* workload,
                 select::SelectMode mode) {
  Framework fw(workloads::build(workload));
  select::CandidateSelector selector(fw.model(),
                                     paramsFor(fw, 0.65, mode));
  select::CandidateSelector::Stats stats;
  for (auto _ : state) {
    std::vector<select::Solution> front = selector.select(stats);
    benchmark::DoNotOptimize(front.size());
  }
  state.counters["front"] = static_cast<double>(stats.frontPeak);
  state.counters["pairs"] = static_cast<double>(stats.combinePairs);
}
BENCHMARK_CAPTURE(BM_SelectDp, cjpeg_frontier, "cjpeg",
                  select::SelectMode::Frontier);
BENCHMARK_CAPTURE(BM_SelectDp, cjpeg_reference, "cjpeg",
                  select::SelectMode::Reference);
BENCHMARK_CAPTURE(BM_SelectDp, 3mm_frontier, "3mm",
                  select::SelectMode::Frontier);
BENCHMARK_CAPTURE(BM_SelectDp, 3mm_reference, "3mm",
                  select::SelectMode::Reference);

// A design-space explorer's query pattern: warm cjpeg and 3mm Frameworks
// asked for Cayman's and the QsCores baseline's best() at twelve budgets
// over [0.02, 1.0]. The small budgets collapse many ⊗ operands to the
// one-entry {∅} front, the frontier DP's identity fast path.
void BM_SelectBudgetSweep(benchmark::State& state, select::SelectMode mode) {
  FrameworkOptions options;
  options.selectMode = mode;
  std::vector<std::unique_ptr<Framework>> frameworks;
  for (const char* workload : {"cjpeg", "3mm"}) {
    frameworks.push_back(
        std::make_unique<Framework>(workloads::build(workload), options));
  }
  auto sweep = [&] {
    for (const std::unique_ptr<Framework>& fw : frameworks) {
      const double ratio = fw->options().clockRatio();
      for (int step = 0; step < 12; ++step) {
        const double budgetRatio = 0.02 + 0.98 * step / 11.0;
        benchmark::DoNotOptimize(fw->best(budgetRatio).areaUm2);
        benchmark::DoNotOptimize(
            fw->qscores().best(fw->budgetUm2(budgetRatio), ratio, mode)
                .areaUm2);
      }
    }
  };
  sweep();  // warms both models' generate caches
  for (auto _ : state) sweep();
}
BENCHMARK_CAPTURE(BM_SelectBudgetSweep, frontier,
                  select::SelectMode::Frontier);
BENCHMARK_CAPTURE(BM_SelectBudgetSweep, reference,
                  select::SelectMode::Reference);

// Synthetic wide-front stress: two strict Pareto fronts of `width`
// two-config solutions run through one ⊗ + α-filter step, the inner loop of
// the DP. The budget admits roughly half of the width² pairs, so the
// frontier path's early budget break-out is exercised, not bypassed.
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

std::vector<select::Solution> syntheticFront(
    const std::vector<accel::AcceleratorConfig>& configs) {
  std::vector<select::Solution> front;
  front.reserve(configs.size() / 2);
  for (size_t i = 0; i + 1 < configs.size(); i += 2) {
    front.push_back(
        select::Solution::merge(select::Solution::fromConfig(configs[i]),
                                select::Solution::fromConfig(configs[i + 1])));
  }
  return front;
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

double budgetFor(const std::vector<select::Solution>& front) {
  // The widest single pair's area: admits the lower-area part of the cross
  // product and rejects the rest via the break / per-pair filter.
  return front.back().areaUm2;
}

void BM_CombineWideFront_Reference(benchmark::State& state) {
  size_t width = static_cast<size_t>(state.range(0));
  std::vector<accel::AcceleratorConfig> configsA =
      syntheticConfigs(width, 37.0);
  std::vector<accel::AcceleratorConfig> configsB =
      syntheticConfigs(width, 53.0);
  std::vector<select::Solution> a = syntheticFront(configsA);
  std::vector<select::Solution> b = syntheticFront(configsB);
  double budget = budgetFor(b);
  uint64_t pairs = 0;
  for (auto _ : state) {
    std::vector<select::Solution> merged = select::filterByAlpha(
        select::combine(a, b, budget, kRatio, &pairs), kAlpha);
    benchmark::DoNotOptimize(merged.size());
  }
  state.counters["pairs/iter"] = static_cast<double>(
      pairs / std::max<uint64_t>(1, state.iterations()));
}
BENCHMARK(BM_CombineWideFront_Reference)->Arg(32)->Arg(96);

void BM_CombineWideFront_Frontier(benchmark::State& state) {
  size_t width = static_cast<size_t>(state.range(0));
  std::vector<accel::AcceleratorConfig> configsA =
      syntheticConfigs(width, 37.0);
  std::vector<accel::AcceleratorConfig> configsB =
      syntheticConfigs(width, 53.0);
  select::SolutionArena baseArena;
  std::vector<select::FrontierEntry> a = syntheticEntries(configsA, baseArena);
  std::vector<select::FrontierEntry> b = syntheticEntries(configsB, baseArena);
  double budget = b.back().areaUm2;  // same cut as the reference benchmark
  uint64_t pairs = 0;
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
      pairs / std::max<uint64_t>(1, state.iterations()));
}
BENCHMARK(BM_CombineWideFront_Frontier)->Arg(32)->Arg(96);

}  // namespace

BENCHMARK_MAIN();
