// Cayman's end-to-end public API (paper Fig. 1): application IR in,
// profiled wPST + candidate selection + accelerator merging out.
//
// Typical use:
//   auto module = ...;                       // build or parse IR
//   cayman::Framework framework(std::move(module));
//   auto best = framework.best(0.25);        // 25% of a CVA6 tile
//   auto merged = framework.mergeSolution(best);
#pragma once

#include <chrono>
#include <memory>
#include <optional>

#include "baselines/novia.h"
#include "baselines/qscores.h"
#include "merge/merger.h"
#include "select/selection_memo.h"
#include "select/selector.h"
#include "support/cancellation.h"
#include "support/status.h"

namespace cayman {

class ThreadPool;

struct FrameworkOptions {
  /// Accelerator target clock (paper: 500 MHz).
  double accelClockNs = 2.0;
  /// CPU clock the profile's cycles are measured against. A CVA6-class core
  /// implemented on the same 45nm node clocks around 625 MHz (the 1.7 GHz
  /// figure of [32] is 22nm FDSOI).
  double cpuClockNs = 1.6;
  /// α-filter ratio of Algorithm 1.
  double alpha = 1.12;
  /// Scratchpad threshold β (§III-C).
  double beta = 4.0;
  /// Hotspot pruning threshold (fraction of T_all).
  double pruneHotFraction = 5e-4;
  /// Disable decoupled/scratchpad interfaces (Fig. 6's "coupled-only").
  bool coupledOnly = false;
  /// Unused: each stage has one engine (see select::SelectMode,
  /// accel::GenerateMode, merge::MergeMode). Kept declared because the
  /// benchmark harness still assigns them.
  select::SelectMode selectMode = select::SelectMode::Frontier;
  accel::GenerateMode generateMode = accel::GenerateMode::Guided;
  merge::MergeMode mergeMode = merge::MergeMode::Graph;
  /// Test hook forwarded to the model: microseconds slept per candidate
  /// generation, so deadline tests can force a slow select stage. The driver
  /// also honours env CAYMAN_INJECT_SLOW=<workload>:generate:<us>.
  unsigned injectGenerateStallUs = 0;
  /// Unused: a Framework evaluates its workload on the calling thread, and
  /// the driver parallelizes across workloads only. Kept declared because
  /// the benchmark harness still assigns it.
  ThreadPool* pool = nullptr;

  /// Per-workload wall-clock deadline in seconds (<= 0 disables). Policy
  /// knob only: the driver converts it into a CancelToken deadline; the
  /// Framework itself consumes `cancel`.
  double timeoutSeconds = 0.0;
  /// Cooperative cancellation token, polled by the interpreter step loop and
  /// the selector DP. Must outlive the Framework; nullptr disables.
  const support::CancelToken* cancel = nullptr;
  /// Deterministic fault injection for testing fault isolation: throw a
  /// DiagnosticError right after this pipeline stage completes. The driver
  /// also honours env CAYMAN_INJECT_FAULT=<workload>:<stage>.
  std::optional<support::Stage> failAfterStage;

  double clockRatio() const { return accelClockNs / cpuClockNs; }
};

/// Everything a Table II row needs for one (benchmark, budget) pair.
struct EvaluationReport {
  double budgetRatio = 0.0;  ///< of the CVA6 tile area
  double totalCpuCycles = 0.0;  ///< T_all (Eq. 1 denominator basis)
  select::Solution solution; ///< best Cayman solution under the budget
  merge::MergeResult merging;

  double caymanSpeedup = 1.0;   ///< Eq. 1 whole-program speedup
  double noviaSpeedup = 1.0;
  double qscoresSpeedup = 1.0;
  /// Runtime ratios (baseline program time / Cayman program time).
  double overNovia = 1.0;
  double overQsCores = 1.0;

  unsigned numSeqBlocks = 0;         ///< #SB
  unsigned numPipelinedRegions = 0;  ///< #PR
  unsigned numCoupled = 0;           ///< #C
  unsigned numDecoupled = 0;         ///< #D
  unsigned numScratchpad = 0;        ///< #S
  double areaSavingPercent = 0.0;    ///< by accelerator merging
  double selectionSeconds = 0.0;     ///< framework runtime
};

class Framework {
 public:
  explicit Framework(std::unique_ptr<ir::Module> module,
                     FrameworkOptions options = {});

  const ir::Module& module() const { return *module_; }
  const analysis::WPst& wpst() const { return *wpst_; }
  const sim::ProfileData& profile() const { return *profile_; }
  const hls::TechLibrary& tech() const { return tech_; }
  const accel::AcceleratorModel& model() const { return *model_; }
  const FrameworkOptions& options() const { return options_; }

  /// T_all in CPU cycles.
  double totalCpuCycles() const { return profile_->totalCycles(); }
  /// Area budget in um^2 for a CVA6-tile ratio.
  double budgetUm2(double budgetRatio) const {
    return budgetRatio * tech_.cva6TileAreaUm2;
  }

  /// Pareto-optimal solution sequence under the budget (Algorithm 1).
  /// Thread-safe: concurrent explore/best/evaluate calls on one Framework
  /// share the model's generate cache (each region generated once, by the
  /// first caller to ask; the others wait for its list) and the selection
  /// memos of this Framework and its QsCores baseline (each set once under
  /// its own mutex, then only read); selector state is per-call.
  std::vector<select::Solution> explore(double budgetRatio) const;
  /// Best (highest-saving) solution under the budget.
  select::Solution best(double budgetRatio) const;
  /// Whole-program speedup of a solution (Eq. 1).
  double speedupOf(const select::Solution& solution) const {
    return solution.speedup(totalCpuCycles(), options_.clockRatio());
  }

  /// Accelerator merging over one solution (§III-E).
  merge::MergeResult mergeSolution(const select::Solution& solution) const;

  /// Full evaluation against both baselines (one Table II row). The first
  /// evaluation the budget does not bind keeps its winner and merge in the
  /// selection memo; later evaluations at budgets it covers skip the
  /// selector DP and the merge, with bit-identical reports.
  EvaluationReport evaluate(double budgetRatio) const;

  /// Baseline access (Fig. 6 series).
  const baselines::NoviaFlow& novia() const { return *novia_; }
  const baselines::QsCoresFlow& qscores() const { return *qscores_; }

 private:
  select::SelectorParams selectorParams(double budgetRatio) const;

  /// What evaluate() memoizes: the winner and its merge.
  struct Selected {
    select::Solution solution;
    merge::MergeResult merging;
  };

  FrameworkOptions options_;
  std::unique_ptr<ir::Module> module_;
  std::unique_ptr<analysis::WPst> wpst_;
  std::unique_ptr<sim::Interpreter> interpreter_;
  std::unique_ptr<sim::ProfileData> profile_;
  hls::TechLibrary tech_;
  std::unique_ptr<accel::AcceleratorModel> model_;
  std::unique_ptr<baselines::NoviaFlow> novia_;
  std::unique_ptr<baselines::QsCoresFlow> qscores_;
  mutable select::SelectionMemo<Selected> memo_;
};

}  // namespace cayman
