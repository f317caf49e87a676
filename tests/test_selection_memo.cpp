// The budget-free selection memo (select/selection_memo.h): its lookup and
// offer rules, bit-identical reports against a fresh Framework per budget
// over every workload and budget order, and the work a hit skips.
// Concurrent evaluate() calls on one memo are in test_select_concurrency.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "cayman/framework.h"
#include "report_describe.h"
#include "support/trace.h"
#include "workloads/workloads.h"

namespace cayman {
namespace {

using select::SelectorParams;
using select::SelectStats;
using testing::describe;
using testing::hex;

// --------------------------------------------------------------------------
// The memo type on its own.
// --------------------------------------------------------------------------

SelectStats rejectionFree(double maxAdmittedAreaUm2) {
  SelectStats stats;
  stats.maxAdmittedAreaUm2 = maxAdmittedAreaUm2;
  return stats;
}

SelectorParams paramsAt(double budgetUm2) {
  SelectorParams params;
  params.areaBudgetUm2 = budgetUm2;
  return params;
}

TEST(SelectionMemoTest, EmptyMemoMisses) {
  select::SelectionMemo<int> memo;
  EXPECT_EQ(memo.find(paramsAt(1e30)), nullptr);
}

TEST(SelectionMemoTest, BoundRunIsNotKept) {
  select::SelectionMemo<int> memo;
  SelectStats stats = rejectionFree(100.0);
  stats.budgetBound = true;
  bool made = false;
  memo.offer(paramsAt(150.0), stats, [&] {
    made = true;
    return 1;
  });
  EXPECT_FALSE(made);
  EXPECT_EQ(memo.find(paramsAt(1e30)), nullptr);
}

TEST(SelectionMemoTest, ServesEveryBudgetAtOrAboveTheBound) {
  select::SelectionMemo<int> memo;
  memo.offer(paramsAt(150.0), rejectionFree(100.0), [] { return 7; });
  for (double budget : {100.0, 120.0, 150.0, 1e30}) {
    const int* hit = memo.find(paramsAt(budget));
    ASSERT_NE(hit, nullptr) << budget;
    EXPECT_EQ(*hit, 7);
  }
  EXPECT_EQ(memo.find(paramsAt(std::nextafter(100.0, 0.0))), nullptr);
  EXPECT_EQ(memo.find(paramsAt(0.0)), nullptr);
  EXPECT_EQ(memo.find(paramsAt(std::nan(""))), nullptr);
}

TEST(SelectionMemoTest, MissesUnderAnotherSetup) {
  select::SelectionMemo<int> memo;
  memo.offer(paramsAt(150.0), rejectionFree(100.0), [] { return 7; });
  SelectorParams params = paramsAt(200.0);
  params.alpha = 1.5;
  EXPECT_EQ(memo.find(params), nullptr);
  params = paramsAt(200.0);
  params.pruneHotFraction = 0.0;
  EXPECT_EQ(memo.find(params), nullptr);
  params = paramsAt(200.0);
  params.clockRatio = 2.0;
  EXPECT_EQ(memo.find(params), nullptr);
  // The cancellation token changes no result.
  support::CancelToken token;
  params = paramsAt(200.0);
  params.cancel = &token;
  EXPECT_NE(memo.find(params), nullptr);
}

TEST(SelectionMemoTest, FirstRejectionFreeRunWins) {
  select::SelectionMemo<int> memo;
  memo.offer(paramsAt(150.0), rejectionFree(100.0), [] { return 7; });
  bool made = false;
  memo.offer(paramsAt(60.0), rejectionFree(50.0), [&] {
    made = true;
    return 8;
  });
  EXPECT_FALSE(made);
  EXPECT_EQ(memo.find(paramsAt(60.0)), nullptr);
  EXPECT_EQ(*memo.find(paramsAt(100.0)), 7);
}

// --------------------------------------------------------------------------
// Framework::evaluate against a fresh Framework per budget.
// --------------------------------------------------------------------------

/// The largest area a run admits with nothing in the way: the bound M any
/// rejection-free run of this selector setup carries.
double unboundedMaxArea(const accel::AcceleratorModel& model,
                        SelectorParams params) {
  params.areaBudgetUm2 = 1e30;
  SelectStats stats;
  (void)select::CandidateSelector(model, params).best(stats);
  EXPECT_FALSE(stats.budgetBound);
  return stats.maxAdmittedAreaUm2;
}

/// Fifty budget ratios over [0.02, 1.0], plus, for the Cayman and the
/// QsCores bound M, the largest ratio whose budget falls below M and the
/// smallest whose budget reaches it.
std::vector<double> budgetGrid(const Framework& fw) {
  std::vector<double> ratios;
  for (int step = 0; step < 50; ++step) {
    ratios.push_back(0.02 + 0.98 * step / 49.0);
  }
  SelectorParams cayman;
  cayman.alpha = fw.options().alpha;
  cayman.pruneHotFraction = fw.options().pruneHotFraction;
  cayman.clockRatio = fw.options().clockRatio();
  SelectorParams qscores;
  qscores.clockRatio = fw.options().clockRatio();
  const double tile = fw.tech().cva6TileAreaUm2;
  for (double bound : {unboundedMaxArea(fw.model(), cayman),
                       unboundedMaxArea(fw.qscores().model(), qscores)}) {
    if (!(bound > 0.0)) continue;
    double below = bound / tile;
    while (fw.budgetUm2(below) >= bound) below = std::nextafter(below, 0.0);
    double atBound = bound / tile;
    while (fw.budgetUm2(atBound) < bound) {
      atBound = std::nextafter(atBound, std::numeric_limits<double>::max());
    }
    ratios.push_back(below);
    ratios.push_back(atBound);
  }
  return ratios;
}

/// The evaluation orders one memoizing Framework sees: ascending,
/// descending, and a seeded shuffle (a fixed LCG, so every platform runs the
/// same order).
std::vector<std::vector<size_t>> evaluationOrders(
    const std::vector<double>& ratios) {
  std::vector<size_t> ascending(ratios.size());
  for (size_t i = 0; i < ascending.size(); ++i) ascending[i] = i;
  std::sort(ascending.begin(), ascending.end(),
            [&](size_t a, size_t b) { return ratios[a] < ratios[b]; });
  std::vector<size_t> descending(ascending.rbegin(), ascending.rend());
  std::vector<size_t> shuffled = ascending;
  uint64_t state = 0x9e3779b97f4a7c15ULL;
  for (size_t i = shuffled.size(); i > 1; --i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    std::swap(shuffled[i - 1], shuffled[(state >> 33) % i]);
  }
  return {ascending, descending, shuffled};
}

// 28 workloads × 54 budgets in three orders: every report one Framework
// returns, memo hit or not, equals a fresh Framework's.
TEST(SelectionMemoTest, ReportsMatchFreshFrameworksInAnyBudgetOrder) {
  for (const workloads::WorkloadInfo& info : workloads::all()) {
    const std::vector<double> ratios = budgetGrid(Framework(info.build()));
    std::vector<std::string> fresh;
    for (double ratio : ratios) {
      fresh.push_back(describe(Framework(info.build()).evaluate(ratio)));
    }
    const char* orderNames[] = {"ascending", "descending", "shuffled"};
    const std::vector<std::vector<size_t>> orders = evaluationOrders(ratios);
    for (size_t o = 0; o < orders.size(); ++o) {
      Framework fw(info.build());
      for (size_t i : orders[o]) {
        ASSERT_EQ(describe(fw.evaluate(ratios[i])), fresh[i])
            << info.name << " budget " << hex(ratios[i]) << " "
            << orderNames[o];
      }
    }
  }
}

/// Counters recorded while `fn` runs, outside any task scope.
template <typename Fn>
std::vector<std::pair<std::string, uint64_t>> countersOf(Fn&& fn) {
  support::trace::TraceRecorder& recorder =
      support::trace::TraceRecorder::global();
  recorder.clear();
  recorder.setEnabled(true);
  fn();
  recorder.setEnabled(false);
  std::vector<std::pair<std::string, uint64_t>> counters =
      recorder.globalCounters();
  recorder.clear();
  return counters;
}

bool hasCounterWithPrefix(
    const std::vector<std::pair<std::string, uint64_t>>& counters,
    const std::string& prefix) {
  return std::any_of(counters.begin(), counters.end(), [&](const auto& c) {
    return c.first.rfind(prefix, 0) == 0;
  });
}

// A hit skips the selector DP and the merge, so neither records a counter;
// a budget below the bound runs both again.
TEST(SelectionMemoTest, HitSkipsTheDpAndTheMerge) {
  Framework fw(workloads::build("3mm"));
  const EvaluationReport first = fw.evaluate(100.0);
  ASSERT_GE(first.solution.accelerators.size(), 2u)
      << "the merge must have work for its counters to show";

  std::string again;
  auto counters = countersOf([&] { again = describe(fw.evaluate(100.0)); });
  EXPECT_EQ(again, describe(first));
  EXPECT_FALSE(hasCounterWithPrefix(counters, "select."));
  EXPECT_FALSE(hasCounterWithPrefix(counters, "merge."));

  SelectorParams params;
  params.alpha = fw.options().alpha;
  params.pruneHotFraction = fw.options().pruneHotFraction;
  params.clockRatio = fw.options().clockRatio();
  const double bound = unboundedMaxArea(fw.model(), params);
  double below = bound / fw.tech().cva6TileAreaUm2;
  while (fw.budgetUm2(below) >= bound) below = std::nextafter(below, 0.0);
  counters = countersOf([&] { (void)fw.evaluate(below); });
  EXPECT_TRUE(hasCounterWithPrefix(counters, "select.regions_visited"));
}

}  // namespace
}  // namespace cayman
