// Merge micro-benchmarks (google-benchmark): the full merge phase on real
// workloads, the matching step alone on pre-extracted units (warm — no
// selection or extraction in the timed loop), and a synthetic
// many-accelerator stress case with long merge chains. The workload rows keep
// their `_graph` suffix so they stay comparable with the recorded history.
#include <benchmark/benchmark.h>

#include "cayman/framework.h"
#include "workloads/workloads.h"

namespace {

using namespace cayman;

// Cold: the full merge phase (unit extraction + matching + group
// accounting), as the pipeline runs it per (workload, budget).
void BM_MergeRun(benchmark::State& state, const char* workload) {
  Framework fw(workloads::build(workload));
  select::Solution best = fw.best(0.65);
  merge::AcceleratorMerger merger(fw.tech());
  merge::MergeResult result;
  for (auto _ : state) {
    result = merger.run(best);
    benchmark::DoNotOptimize(result.areaAfterUm2);
  }
  state.counters["units"] = static_cast<double>(result.unitsExtracted);
  state.counters["steps"] = static_cast<double>(result.mergeSteps);
  state.counters["scored"] = static_cast<double>(result.pairsScored);
}
BENCHMARK_CAPTURE(BM_MergeRun, cjpeg_graph, "cjpeg");
BENCHMARK_CAPTURE(BM_MergeRun, 3mm_graph, "3mm");

// Warm: matching only, on units extracted once outside the loop. Each
// iteration copies the pristine units (matching mutates them in place); the
// copy is cheap next to the scoring work being measured.
void BM_MergeMatch(benchmark::State& state, const char* workload) {
  Framework fw(workloads::build(workload));
  select::Solution best = fw.best(0.65);
  std::vector<merge::Unit> pristine = merge::extractUnits(best);
  merge::MatchStats stats;
  for (auto _ : state) {
    std::vector<merge::Unit> units = pristine;
    merge::UnionFind groups(best.accelerators.size());
    stats = {};
    double saving = merge::matchUnitsGraph(units, fw.tech(), groups, stats);
    benchmark::DoNotOptimize(saving);
  }
  state.counters["units"] = static_cast<double>(pristine.size());
  state.counters["steps"] = static_cast<double>(stats.steps);
  state.counters["scored"] = static_cast<double>(stats.pairsScored);
}
BENCHMARK_CAPTURE(BM_MergeMatch, cjpeg_graph, "cjpeg");
BENCHMARK_CAPTURE(BM_MergeMatch, 3mm_graph, "3mm");

// Synthetic many-accelerator stress: `accels` accelerators with 1-3 units
// each and overlapping seeded op mixes, so long merge chains form: the
// population-scale regime, where a full rescan per merge step would be
// quadratic.
std::vector<merge::Unit> syntheticUnits(size_t accels) {
  uint64_t lcg = 99991;
  auto next = [&lcg]() {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return lcg >> 33;
  };
  std::vector<merge::Unit> units;
  for (size_t a = 0; a < accels; ++a) {
    size_t perAccel = 1 + next() % 3;
    for (size_t u = 0; u < perAccel; ++u) {
      merge::Unit unit;
      unit.acceleratorIndex = a;
      unit.ops[{ir::Opcode::FMul, true}] = 1 + next() % 4;
      if (next() % 2) unit.ops[{ir::Opcode::FAdd, true}] = 1 + next() % 3;
      if (next() % 3 == 0) unit.ops[{ir::Opcode::FDiv, true}] = 1;
      units.push_back(std::move(unit));
    }
  }
  return units;
}

void BM_MergeSyntheticMatch(benchmark::State& state) {
  size_t accels = static_cast<size_t>(state.range(0));
  hls::TechLibrary tech = hls::TechLibrary::nangate45();
  std::vector<merge::Unit> pristine = syntheticUnits(accels);
  merge::MatchStats stats;
  for (auto _ : state) {
    std::vector<merge::Unit> units = pristine;
    merge::UnionFind groups(accels);
    stats = {};
    double saving = merge::matchUnitsGraph(units, tech, groups, stats);
    benchmark::DoNotOptimize(saving);
  }
  state.counters["units"] = static_cast<double>(pristine.size());
  state.counters["steps"] = static_cast<double>(stats.steps);
  state.counters["scored"] = static_cast<double>(stats.pairsScored);
}
BENCHMARK(BM_MergeSyntheticMatch)->Arg(24)->Arg(96)->Arg(384);

}  // namespace

BENCHMARK_MAIN();
