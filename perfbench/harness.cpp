// End-to-end benchmark of the Cayman pipeline: runs one workload in-process
// for a fixed time, checks every result row, and prints the metrics.
//
//   perfbench --workload sweep-1t|sweep-par|dse-budgets --seed N
//             --seconds S --trace 0|1 [--spans FILE]
//
// --trace 0 times the public driver calls (cayman::evaluateWorkloads,
// Framework::evaluate) one at a time and prints the end-to-end metrics,
// whose times are floors: each call's fastest time in the run, summed over
// the calls of one pass. --trace 1
// alternates those untraced iterations with the layer-by-layer walk of
// walk.h and prints the per-layer metrics; --spans writes the walk's spans
// as a Chrome trace. The last line of stdout is one JSON object with the
// keys correct, attempted, failed and metrics.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <span>
#include <stdexcept>

#include "cayman/driver.h"
#include "support/json.h"
#include "support/thread_pool.h"
#include "walk.h"
#include "workloads/workloads.h"

namespace {

using perfbench::IterationTrace;
using perfbench::Pipeline;
using perfbench::Row;
using perfbench::TaskTrace;
namespace json = cayman::support::json;

/// Table II's area budgets, as shares of a CVA6 tile; the sweeps run at the
/// first.
constexpr double kTableBudgets[] = {0.25, 0.65};
constexpr double kSweepBudget = kTableBudgets[0];

bool isTableBudget(double budgetRatio) {
  return std::find(std::begin(kTableBudgets), std::end(kTableBudgets),
                   budgetRatio) != std::end(kTableBudgets);
}

/// The timed loop runs in windows of this length, each with its own set-up.
constexpr double kWindowSeconds = 1.0;
/// Per-layer timings pool this many of the quietest windows.
constexpr size_t kQuietWindows = 5;
/// Traced set-ups per traced run (dse-budgets reports its set-up layers).
constexpr int kWalkSetups = 3;

struct MetricDef {
  const char* name;
  const char* unit;
};

const MetricDef kEndToEnd[] = {
    {"iter_ms", "ms"},
    {"rows_per_s", "1/s"},         {"setup_s", "s"},
    {"peak_rss_mb", "MB"},         {"speedup_geomean", "x"},
    {"over_novia_geomean", "x"},   {"over_qscores_geomean", "x"},
    {"area_saving_pct", "%"},
};

const MetricDef kPerLayer[] = {
    {"workloads.build_ms", "ms"},     {"ir.verify_ms", "ms"},
    {"analysis.wpst_ms", "ms"},       {"analysis.regions", "count"},
    {"sim.profile_ms", "ms"},         {"sim.insts", "count"},
    {"sim.minsts_per_s", "Minst/s"},  {"accel.model_ms", "ms"},
    {"accel.generate_ms", "ms"},      {"accel.estimate_calls", "count"},
    {"accel.candidates", "count"},    {"hls.sched_block_calls", "count"},
    {"select.dp_ms", "ms"},           {"select.combine_pairs", "count"},
    {"select.front_peak", "count"},   {"baselines.qscores_ms", "ms"},
    {"baselines.novia_ms", "ms"},     {"merge.run_ms", "ms"},
    {"merge.steps", "count"},         {"merge.pairs_scored", "count"},
    {"cayman.task_ms_max", "ms"},     {"cayman.parallel_eff", "ratio"},
    {"support.pool_idle_ms", "ms"},   {"cayman.unattributed_ms", "ms"},
    {"bench.trace_overhead_pct", "%"}, {"fail_ratio", "ratio"},
    {"mono_violations", "count"},
};

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string spansPath;
};

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "sweep-1t|sweep-par|dse-budgets --seed N --seconds S "
               "--trace 0|1 [--spans FILE]\n",
               problem.c_str());
  std::exit(2);
}

Options parseOptions(int argc, char** argv) {
  Options options;
  bool haveSeed = false;
  for (int i = 1; i < argc; i += 2) {
    std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      haveSeed = !value.empty() && *end == '\0' && value[0] != '-';
      if (!haveSeed) usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(options.seconds > 0.0) ||
          options.seconds > 120.0) {
        usage("bad --seconds " + value);
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("bad --trace " + value);
      options.trace = value == "1";
    } else if (flag == "--spans") {
      options.spansPath = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (options.workload.empty() || !haveSeed || options.seconds <= 0.0) {
    usage("--workload, --seed and --seconds are required");
  }
  return options;
}

/// splitmix64: a small, fully specified generator, so one seed gives the
/// same inputs with any standard library.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

std::vector<std::string> registryNames() {
  std::vector<std::string> names;
  for (const auto& info : cayman::workloads::all()) names.push_back(info.name);
  return names;
}

double budgetUm2(double budgetRatio) {
  static const double tile = cayman::hls::TechLibrary::nangate45().cva6TileAreaUm2;
  return budgetRatio * tile;
}

double msSince(uint64_t beginNs) {
  return static_cast<double>(perfbench::nowNs() - beginNs) * 1e-6;
}

/// The floor of a repeated pass of calls: each call's fastest time over all
/// passes, summed. Every pass makes the same calls in the same order, so a
/// call is known by its place in the pass.
///
/// Contention on a shared host comes in bursts that slow every call they
/// overlap, and it can last for whole runs; but single calls of a few
/// milliseconds or less still meet quiet moments between bursts, so each
/// call's minimum over a run reads the same in quiet and busy hours, where
/// a median over whole passes does not.
class Floors {
 public:
  /// Runs fn() as the pass's next call and returns its result.
  template <class Fn>
  auto time(Fn&& fn) {
    const uint64_t begin = perfbench::nowNs();
    auto result = fn();
    const double ms = msSince(begin);
    if (next_ == minMs_.size()) minMs_.push_back(ms);
    minMs_[next_] = std::min(minMs_[next_], ms);
    ++next_;
    return result;
  }

  /// Ends a pass; the next call is the first of the next pass.
  void endPass() {
    if (next_ != minMs_.size()) {
      throw std::logic_error("passes made different numbers of calls");
    }
    next_ = 0;
  }

  double sumMs() const {
    return std::accumulate(minMs_.begin(), minMs_.end(), 0.0);
  }

 private:
  std::vector<double> minMs_;
  size_t next_ = 0;
};

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

/// Peak resident set of this process in MB. VmHWM, not getrusage: on Linux
/// ru_maxrss keeps the peak of the image that exec'd this one.
double peakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// Per-key median over a list of figure maps.
std::map<std::string, double> medians(
    const std::vector<std::map<std::string, double>>& samples) {
  std::map<std::string, std::vector<double>> byKey;
  for (const auto& sample : samples) {
    for (const auto& [key, value] : sample) byKey[key].push_back(value);
  }
  std::map<std::string, double> result;
  for (auto& [key, values] : byKey) result[key] = median(std::move(values));
  return result;
}

std::vector<Row> rowsOf(const IterationTrace& iteration) {
  std::vector<Row> rows;
  for (const TaskTrace& task : iteration.tasks) {
    rows.insert(rows.end(), task.rows.begin(), task.rows.end());
  }
  return rows;
}

/// One benchmark workload: an untraced driver iteration plus the traced
/// layer-by-layer walk of the same work.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Workers the iterations run on.
  virtual unsigned jobs() const = 0;
  /// Builds everything the driver iterations need, warm-up included, timing
  /// each step into `floors`.
  virtual void setUp(Floors& floors) = 0;
  /// One untraced iteration through the public driver calls, timing each
  /// call into `floors`.
  virtual std::vector<Row> runDriver(Floors& floors) = 0;
  /// Builds everything the walk needs; returns the set-up's own trace
  /// (empty when the walk needs no set-up).
  virtual IterationTrace setUpWalk() = 0;
  /// One traced iteration of the walk.
  virtual IterationTrace runWalk() = 0;
  /// Model work done so far by the walk's set-up objects (empty when the
  /// walk keeps none); iterations must not add to it.
  virtual std::map<std::string, uint64_t> setUpModelWork() const {
    return {};
  }
};

/// All 28 workloads at budget 0.25 through evaluateWorkloads; the seed
/// permutes the name list.
class Sweep : public Workload {
 public:
  Sweep(unsigned jobs, uint64_t seed) : jobs_(jobs), names_(registryNames()) {
    Rng rng(seed);
    for (size_t i = names_.size(); i > 1; --i) {
      std::swap(names_[i - 1], names_[rng.next() % i]);
    }
  }
  unsigned jobs() const override { return jobs_; }

  void setUp(Floors& floors) override {
    cayman::ThreadPool::shared().ensureWorkers(jobs_);
    (void)runDriver(floors);
  }

  /// On one worker the sweep's tasks run one after another, so each
  /// workload gets its own evaluateWorkloads call and its own floor; on
  /// more, the whole sweep is one call.
  std::vector<Row> runDriver(Floors& floors) override {
    std::vector<std::vector<std::string>> calls;
    if (jobs_ == 1) {
      for (const std::string& name : names_) calls.push_back({name});
    } else {
      calls.push_back(names_);
    }
    std::vector<Row> rows;
    for (const std::vector<std::string>& names : calls) {
      for (const cayman::WorkloadEvaluation& evaluation : floors.time([&] {
             return cayman::evaluateWorkloads(names, kSweepBudget, jobs_);
           })) {
        rows.push_back(perfbench::makeRow(evaluation, budgetUm2(kSweepBudget)));
      }
    }
    return rows;
  }

  IterationTrace setUpWalk() override { return {}; }

  /// Each workload's walk is one task on the shared pool, submitted in the
  /// driver's LPT order, exactly as evaluateWorkloads submits its tasks.
  IterationTrace runWalk() override {
    cayman::ThreadPool& pool = cayman::ThreadPool::shared();
    pool.ensureWorkers(jobs_);
    std::vector<size_t> order(names_.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return cayman::workloads::byName(names_[a])->costHint >
             cayman::workloads::byName(names_[b])->costHint;
    });
    IterationTrace iteration;
    iteration.beginNs = perfbench::nowNs();
    iteration.tasks = cayman::parallelIndexMap(
        pool, names_.size(),
        [&](size_t i) {
          TaskTrace task;
          task.workload = names_[i];
          task.beginNs = perfbench::nowNs();
          {
            Pipeline pipeline(names_[i], &pool, task);
            task.rows.push_back(pipeline.evaluate(kSweepBudget, task));
            pipeline.countModelWork(task);
          }
          task.endNs = perfbench::nowNs();
          return task;
        },
        order);
    iteration.endNs = perfbench::nowNs();
    return iteration;
  }

 private:
  unsigned jobs_;
  std::vector<std::string> names_;
};

/// Budget-space exploration: 28 warm Frameworks, each evaluated at 0.25,
/// 0.65 and ten seeded budgets, one from each tenth of [0.02, 1.0].
class BudgetDse : public Workload {
 public:
  explicit BudgetDse(uint64_t seed) : names_(registryNames()) {
    budgets_.assign(std::begin(kTableBudgets), std::end(kTableBudgets));
    Rng rng(seed);
    for (int k = 0; k < 10; ++k) {
      budgets_.push_back(0.02 + (k + rng.uniform()) * 0.098);
    }
  }
  unsigned jobs() const override { return 1; }

  void setUp(Floors& floors) override {
    frameworks_.clear();
    for (const std::string& name : names_) {
      frameworks_.push_back(floors.time([&] {
        auto framework =
            std::make_unique<cayman::Framework>(cayman::workloads::build(name));
        framework->model().warmGenerateCache();
        return framework;
      }));
    }
    (void)runDriver(floors);
  }

  std::vector<Row> runDriver(Floors& floors) override {
    std::vector<Row> rows;
    for (size_t i = 0; i < frameworks_.size(); ++i) {
      for (double budget : budgets_) {
        rows.push_back(perfbench::makeRow(
            names_[i], floors.time([&] { return frameworks_[i]->evaluate(budget); }),
            budgetUm2(budget)));
      }
    }
    return rows;
  }

  IterationTrace setUpWalk() override {
    pipelines_.clear();
    IterationTrace setup;
    setup.beginNs = perfbench::nowNs();
    for (const std::string& name : names_) {
      TaskTrace task;
      task.workload = name;
      task.beginNs = perfbench::nowNs();
      auto pipeline = std::make_unique<Pipeline>(name, nullptr, task);
      TaskTrace warmUp;
      for (double budget : budgets_) (void)pipeline->evaluate(budget, warmUp);
      pipeline->countModelWork(task);
      task.endNs = perfbench::nowNs();
      setup.tasks.push_back(std::move(task));
      pipelines_.push_back(std::move(pipeline));
    }
    setup.endNs = perfbench::nowNs();
    return setup;
  }

  IterationTrace runWalk() override {
    IterationTrace iteration;
    iteration.beginNs = perfbench::nowNs();
    for (size_t i = 0; i < pipelines_.size(); ++i) {
      TaskTrace task;
      task.workload = names_[i];
      task.beginNs = perfbench::nowNs();
      for (double budget : budgets_) {
        task.rows.push_back(pipelines_[i]->evaluate(budget, task));
      }
      task.endNs = perfbench::nowNs();
      iteration.tasks.push_back(std::move(task));
    }
    iteration.endNs = perfbench::nowNs();
    return iteration;
  }

  std::map<std::string, uint64_t> setUpModelWork() const override {
    IterationTrace now;
    for (const auto& pipeline : pipelines_) {
      now.tasks.emplace_back();
      pipeline->countModelWork(now.tasks.back());
    }
    return perfbench::counts(now);
  }

 private:
  std::vector<std::string> names_;
  std::vector<double> budgets_;
  std::vector<std::unique_ptr<cayman::Framework>> frameworks_;
  std::vector<std::unique_ptr<Pipeline>> pipelines_;
};

std::unique_ptr<Workload> makeWorkload(const Options& options) {
  if (options.workload == "sweep-1t") {
    return std::make_unique<Sweep>(1, options.seed);
  }
  if (options.workload == "sweep-par") {
    return std::make_unique<Sweep>(2, options.seed);
  }
  if (options.workload == "dse-budgets") {
    return std::make_unique<BudgetDse>(options.seed);
  }
  usage("unknown workload " + options.workload);
}

/// Row bookkeeping: attempts, failed rows, and every failed check.
struct Ledger {
  uint64_t attempted = 0;
  uint64_t failedRows = 0;
  std::vector<std::string> problems;
  std::vector<Row> expected;  ///< the first iteration's rows
  uint64_t expectedDigest = 0;

  /// Every iteration must reproduce the first one bit for bit.
  void record(const std::vector<Row>& rows, const char* source) {
    attempted += rows.size();
    for (const Row& row : rows) failedRows += row.ok ? 0 : 1;
    if (expected.empty()) {
      expected = rows;
      expectedDigest = perfbench::digest(rows);
      return;
    }
    if (perfbench::digest(rows) == expectedDigest) return;
    for (const std::string& p : perfbench::diffRows(expected, rows)) {
      problems.push_back(std::string(source) + ": " + p);
    }
  }

  uint64_t failed() const { return failedRows + problems.size(); }
};

void printDigests(const Ledger& ledger) {
  for (double budget : kTableBudgets) {
    bool present = std::any_of(
        ledger.expected.begin(), ledger.expected.end(),
        [&](const Row& row) { return row.budgetRatio == budget; });
    if (!present) continue;
    std::printf("table_digest %.2f %016llx\n", budget,
                static_cast<unsigned long long>(
                    perfbench::tableDigest(ledger.expected, budget)));
  }
}

/// One second of the timed loop: a fresh set-up, then driver iterations
/// (each followed by a traced walk in traced runs).
struct Window {
  std::vector<double> driverMs;
  std::vector<IterationTrace> traces;
};

/// The kQuietWindows windows with the fastest median driver iteration (all
/// of them in a shorter run). Per-layer figures compare whole traced and
/// untraced iterations, which have no floor; taking them from the quietest
/// seconds keeps contention spells out unless they cover nearly all of a
/// run.
std::vector<const Window*> quietestWindows(const std::vector<Window>& windows) {
  std::vector<std::pair<double, const Window*>> ranked;
  for (const Window& window : windows) {
    ranked.emplace_back(median(window.driverMs), &window);
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<const Window*> quiet;
  for (size_t i = 0; i < std::min(ranked.size(), kQuietWindows); ++i) {
    quiet.push_back(ranked[i].second);
  }
  return quiet;
}

int run(const Options& options) {
  std::unique_ptr<Workload> workload = makeWorkload(options);
  const unsigned jobs = workload->jobs();

  std::vector<std::map<std::string, double>> setupFigures;
  std::map<std::string, uint64_t> modelWorkAfterSetUp;
  if (options.trace) {
    for (int k = 0; k < kWalkSetups; ++k) {
      IterationTrace setup = workload->setUpWalk();
      if (!setup.tasks.empty()) {
        setupFigures.push_back(perfbench::layerFigures(setup, jobs));
      }
    }
    modelWorkAfterSetUp = workload->setUpModelWork();
  }

  Ledger ledger;
  std::vector<Window> windows;
  Floors setupFloors, iterationFloors;
  const uint64_t loopBegin = perfbench::nowNs();
  do {
    Window& window = windows.emplace_back();
    const uint64_t windowBegin = perfbench::nowNs();
    workload->setUp(setupFloors);
    setupFloors.endPass();
    do {
      uint64_t begin = perfbench::nowNs();
      std::vector<Row> rows = workload->runDriver(iterationFloors);
      window.driverMs.push_back(msSince(begin));
      iterationFloors.endPass();
      ledger.record(rows, "driver iteration");
      if (options.trace) {
        window.traces.push_back(workload->runWalk());
        ledger.record(rowsOf(window.traces.back()), "traced walk");
      }
    } while (msSince(windowBegin) < kWindowSeconds * 1e3);
  } while (msSince(loopBegin) < options.seconds * 1e3);

  const double peakMb = peakRssMb();
  std::fprintf(stderr, "perfbench: window medians (ms):");
  for (const Window& window : windows) {
    std::fprintf(stderr, " %.1f", median(window.driverMs));
  }
  std::fprintf(stderr, "\n");

  if (!options.trace) {
    // The walk is the independent reference the driver's rows must match.
    (void)workload->setUpWalk();
    ledger.record(rowsOf(workload->runWalk()), "reference walk");
  }
  for (const std::string& p : perfbench::checkRows(ledger.expected)) {
    ledger.problems.push_back("check: " + p);
  }
  // Exact-count guard: every count must repeat in every traced iteration,
  // and iterations must not add model work to what set-up built.
  std::vector<const IterationTrace*> traces;
  for (const Window& window : windows) {
    for (const IterationTrace& trace : window.traces) traces.push_back(&trace);
  }
  for (size_t i = 1; i < traces.size(); ++i) {
    if (perfbench::counts(*traces[i]) != perfbench::counts(*traces[0])) {
      ledger.problems.push_back("counts of traced iteration " +
                                std::to_string(i) + " differ from iteration 0");
    }
  }
  if (options.trace && workload->setUpModelWork() != modelWorkAfterSetUp) {
    ledger.problems.push_back("iterations added model work after set-up");
  }
  for (const std::string& p : ledger.problems) {
    std::fprintf(stderr, "perfbench: FAILED %s\n", p.c_str());
  }

  // Quality is taken at Table II's budgets only, so it is exact run to run;
  // the seeded budgets count towards mono_violations.
  std::vector<Row> tableRows;
  for (const Row& row : ledger.expected) {
    if (isTableBudget(row.budgetRatio)) tableRows.push_back(row);
  }
  const perfbench::Quality q = perfbench::quality(tableRows);
  std::map<std::string, double> values;
  if (options.trace) {
    std::vector<double> quietMs, tracedMs, layerSums;
    std::vector<std::map<std::string, double>> iterationFigures;
    for (const Window* window : quietestWindows(windows)) {
      quietMs.insert(quietMs.end(), window->driverMs.begin(),
                     window->driverMs.end());
      for (const IterationTrace& trace : window->traces) {
        tracedMs.push_back(static_cast<double>(trace.endNs - trace.beginNs) * 1e-6);
        layerSums.push_back(perfbench::layerSumMs(trace));
        iterationFigures.push_back(perfbench::layerFigures(trace, jobs));
      }
    }
    values = medians(setupFigures);
    for (const auto& [key, value] : medians(iterationFigures)) values[key] = value;
    values["sim.minsts_per_s"] =
        values["sim.insts"] / values["sim.profile_ms"] * 1e-3;
    values["cayman.unattributed_ms"] =
        median(quietMs) - median(layerSums) / jobs;
    values["bench.trace_overhead_pct"] =
        (median(tracedMs) / median(quietMs) - 1.0) * 100.0;
    values["fail_ratio"] = static_cast<double>(ledger.failed()) /
                           static_cast<double>(ledger.attempted);
    values["mono_violations"] =
        perfbench::quality(ledger.expected).monoViolations;
    if (!options.spansPath.empty() &&
        !perfbench::writeChromeTrace(options.spansPath, traces)) {
      throw std::runtime_error("cannot write " + options.spansPath);
    }
  } else {
    const double rowsPerIteration =
        static_cast<double>(ledger.expected.size());
    values["iter_ms"] = iterationFloors.sumMs();
    values["rows_per_s"] = rowsPerIteration / (values["iter_ms"] * 1e-3);
    values["setup_s"] = setupFloors.sumMs() * 1e-3;
    values["peak_rss_mb"] = peakMb;
    values["speedup_geomean"] = q.speedupGeomean;
    values["over_novia_geomean"] = q.overNoviaGeomean;
    values["over_qscores_geomean"] = q.overQsCoresGeomean;
    values["area_saving_pct"] = q.areaSavingPercent;
  }

  const std::span<const MetricDef> defs =
      options.trace ? std::span<const MetricDef>(kPerLayer)
                    : std::span<const MetricDef>(kEndToEnd);
  json::Value metrics = json::Value::object();
  for (const MetricDef& def : defs) {
    auto it = values.find(def.name);
    if (it == values.end() || !std::isfinite(it->second)) {
      throw std::runtime_error(std::string("metric ") + def.name +
                               " was not measured");
    }
    json::Value metric = json::Value::object();
    metric.set("value", it->second);
    metric.set("unit", def.unit);
    metrics.set(def.name, std::move(metric));
  }
  json::Value result = json::Value::object();
  result.set("correct", ledger.failed() == 0);
  result.set("attempted", ledger.attempted);
  result.set("failed", ledger.failed());
  result.set("metrics", std::move(metrics));
  printDigests(ledger);
  std::printf("%s\n", result.dump().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options = parseOptions(argc, argv);
  try {
    return run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
}
