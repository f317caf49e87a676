// cayman-cli: command-line driver for the framework.
//
//   cayman_cli list                          list built-in workloads
//   cayman_cli ir <workload>                 print a workload's textual IR
//   cayman_cli wpst <workload>               print its profiled wPST
//   cayman_cli explore <workload> [budget]   print the Pareto frontier
//   cayman_cli evaluate <workload> [budget]  full evaluation vs baselines
//   cayman_cli evaluate-all [budget] [--jobs N]
//                                            all 28 workloads in parallel
//   cayman_cli report <workload> [budget]    machine-readable single report
//   cayman_cli run <file.cir> [budget]       evaluate IR parsed from a file
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "cayman/driver.h"
#include "cayman/framework.h"
#include "cayman/metrics.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "support/envhooks.h"
#include "support/strings.h"
#include "support/thread_pool.h"
#include "support/trace.h"
#include "workloads/workloads.h"

using namespace cayman;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: cayman_cli <command> [args]\n"
               "  list                         list built-in workloads\n"
               "  ir <workload>                print textual IR\n"
               "  wpst <workload>              print the profiled wPST\n"
               "  explore <workload> [budget]  print the Pareto frontier\n"
               "  evaluate <workload> [budget] evaluate vs baselines\n"
               "  evaluate-all [budget] [--jobs N] [--timeout-s S]\n"
               "               [--only a,b,..] [--metrics-json FILE]\n"
               "               [--trace-out FILE] [--trace-wall]\n"
               "               [--select-mode frontier|reference]\n"
               "               [--generate-mode guided|reference]\n"
               "               [--merge-mode graph|reference]\n"
               "                               evaluate all workloads in "
               "parallel\n"
               "  report <workload> [budget]   print a cayman-metrics-v1 "
               "JSON report\n"
               "  run <file.cir> [budget]      evaluate IR from a file\n"
               "budgets are area ratios of a CVA6 tile in (0, 1], e.g. "
               "0.25\n"
               "--timeout-s sets a per-workload wall-clock deadline\n"
               "--select-mode picks the selector DP engine: 'frontier'\n"
               "(default, fast) or 'reference' (the oracle DP); outputs are\n"
               "byte-identical between the two\n"
               "--generate-mode picks the model's design-space engine:\n"
               "'guided' (default, roofline-pruned) or 'reference' (the\n"
               "exhaustive sweep); selected fronts are byte-identical\n"
               "--merge-mode picks the merge matching engine: 'graph'\n"
               "(default, edge-heap matching) or 'reference' (the greedy\n"
               "oracle); outputs are byte-identical between the two\n"
               "--metrics-json / --trace-out enable the trace recorder and\n"
               "write a metrics report / Chrome trace-event JSON; both are\n"
               "deterministic (byte-identical across --jobs counts) unless\n"
               "--trace-wall opts into real wall-clock timestamps\n"
               "exit codes: 0 ok, 1 evaluation error/failed workloads, "
               "2 usage, 3 internal error\n");
  return 2;
}

/// Parses a --timeout-s value: seconds, strictly positive, finite.
bool parseTimeout(const char* text, double* seconds) {
  std::optional<double> value = parseDouble(text, 0.0, 1e9);
  if (!value) return false;
  *seconds = *value;
  return true;
}

/// Parses an area-budget ratio. Unlike atof, rejects trailing garbage and
/// out-of-range values instead of silently evaluating at budget 0.
bool parseBudget(const char* text, double* budget) {
  std::optional<double> value = parseDouble(text, 0.0, 1.0);
  if (!value) return false;
  *budget = *value;
  return true;
}

int badBudget(const char* text) {
  std::fprintf(stderr,
               "error: invalid budget '%s' — expected an area ratio in "
               "(0, 1], e.g. 0.25\n",
               text);
  return 2;
}

int unexpectedArgument(const char* text) {
  std::fprintf(stderr, "error: unexpected argument '%s'\n", text);
  return 2;
}

int cmdList() {
  std::printf("%-22s %-14s %s\n", "name", "suite", "note");
  for (const auto& info : workloads::all()) {
    std::printf("%-22s %-14s %s\n", info.name.c_str(), info.suite.c_str(),
                info.note.empty() ? "faithful port" : info.note.c_str());
  }
  return 0;
}

int cmdIr(const std::string& name) {
  std::unique_ptr<ir::Module> module = workloads::build(name);
  ir::verifyOrThrow(*module);
  std::fputs(ir::printModule(*module).c_str(), stdout);
  return 0;
}

void printTree(const Framework& fw, const analysis::Region& region,
               int depth) {
  std::string indent(static_cast<size_t>(depth) * 2, ' ');
  std::printf("%s%-44s entries=%-8llu hot=%5.1f%%%s\n", indent.c_str(),
              region.label().c_str(),
              static_cast<unsigned long long>(fw.profile().entries(&region)),
              100.0 * fw.profile().hotFraction(&region),
              region.isCandidate() ? "" : "  [not selectable]");
  for (const auto& child : region.children()) {
    printTree(fw, *child, depth + 1);
  }
}

int cmdWpst(const std::string& name) {
  Framework fw(workloads::build(name));
  std::printf("wPST of %s (T_all = %.0f CPU cycles)\n", name.c_str(),
              fw.totalCpuCycles());
  printTree(fw, *fw.wpst().root(), 0);
  return 0;
}

int evaluateModule(std::unique_ptr<ir::Module> module, double budget) {
  Framework fw(std::move(module));
  EvaluationReport report = fw.evaluate(budget);
  std::printf("T_all:               %.0f CPU cycles\n", fw.totalCpuCycles());
  std::printf("budget:              %.0f%% of a CVA6 tile\n", budget * 100);
  std::printf("kernels selected:    %zu\n",
              report.solution.accelerators.size());
  std::printf("area used:           %.1f%% of tile\n",
              100.0 * report.solution.areaUm2 / fw.tech().cva6TileAreaUm2);
  std::printf("#SB / #PR:           %u / %u\n", report.numSeqBlocks,
              report.numPipelinedRegions);
  std::printf("#C / #D / #S:        %u / %u / %u\n", report.numCoupled,
              report.numDecoupled, report.numScratchpad);
  std::printf("Cayman speedup:      %.2fx (Eq. 1)\n", report.caymanSpeedup);
  std::printf("NOVIA baseline:      %.2fx  -> Cayman %.1fx better\n",
              report.noviaSpeedup, report.overNovia);
  std::printf("QsCores baseline:    %.2fx  -> Cayman %.1fx better\n",
              report.qscoresSpeedup, report.overQsCores);
  std::printf("merging area saving: %.1f%% (%d reusable accelerator(s))\n",
              report.areaSavingPercent, report.merging.reusableAccelerators);
  std::printf("selection time:      %.3fs\n", report.selectionSeconds);
  return 0;
}

int cmdExplore(const std::string& name, double budget) {
  Framework fw(workloads::build(name));
  std::printf("Pareto frontier of %s under %.0f%% budget:\n", name.c_str(),
              budget * 100);
  std::printf("%12s %12s %10s %8s\n", "area(um2)", "area(%tile)", "speedup",
              "kernels");
  for (const auto& solution : fw.explore(budget)) {
    std::printf("%12.0f %12.2f %10.2f %8zu\n", solution.areaUm2,
                100.0 * solution.areaUm2 / fw.tech().cva6TileAreaUm2,
                fw.speedupOf(solution), solution.accelerators.size());
  }
  return 0;
}

/// Writes `content` to `path` (error message + false on failure).
bool writeFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
  out.flush();
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

int cmdEvaluateAll(int argc, char** argv) {
  double budget = 0.25;
  std::optional<unsigned> jobsFlag;
  FrameworkOptions options;
  std::string traceOut;
  std::string metricsOut;
  bool traceWall = false;
  std::vector<std::string> only;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--jobs") {
      if (i + 1 >= argc) return usage();
      std::optional<unsigned> jobs = parseJobs(argv[++i]);
      if (!jobs) {
        std::fprintf(stderr,
                     "error: invalid --jobs '%s' — expected an integer in "
                     "[1, 1024]\n",
                     argv[i]);
        return 2;
      }
      jobsFlag = *jobs;
    } else if (arg == "--timeout-s") {
      if (i + 1 >= argc) return usage();
      if (!parseTimeout(argv[++i], &options.timeoutSeconds)) {
        std::fprintf(stderr, "error: invalid --timeout-s '%s'\n", argv[i]);
        return 2;
      }
    } else if (arg == "--trace-out") {
      if (i + 1 >= argc) return usage();
      traceOut = argv[++i];
    } else if (arg == "--metrics-json") {
      if (i + 1 >= argc) return usage();
      metricsOut = argv[++i];
    } else if (arg == "--trace-wall") {
      traceWall = true;
    } else if (arg == "--select-mode") {
      if (i + 1 >= argc) return usage();
      std::string mode = argv[++i];
      if (mode == "frontier") {
        options.selectMode = select::SelectMode::Frontier;
      } else if (mode == "reference") {
        options.selectMode = select::SelectMode::Reference;
      } else {
        std::fprintf(stderr,
                     "error: invalid --select-mode '%s' — expected "
                     "'frontier' or 'reference'\n",
                     mode.c_str());
        return 2;
      }
    } else if (arg == "--generate-mode") {
      if (i + 1 >= argc) return usage();
      std::string mode = argv[++i];
      if (mode == "guided") {
        options.generateMode = accel::GenerateMode::Guided;
      } else if (mode == "reference") {
        options.generateMode = accel::GenerateMode::Reference;
      } else {
        std::fprintf(stderr,
                     "error: invalid --generate-mode '%s' — expected "
                     "'guided' or 'reference'\n",
                     mode.c_str());
        return 2;
      }
    } else if (arg == "--merge-mode") {
      if (i + 1 >= argc) return usage();
      std::string mode = argv[++i];
      if (mode == "graph") {
        options.mergeMode = merge::MergeMode::Graph;
      } else if (mode == "reference") {
        options.mergeMode = merge::MergeMode::Reference;
      } else {
        std::fprintf(stderr,
                     "error: invalid --merge-mode '%s' — expected "
                     "'graph' or 'reference'\n",
                     mode.c_str());
        return 2;
      }
    } else if (arg == "--only") {
      if (i + 1 >= argc) return usage();
      for (std::string_view piece : split(argv[++i], ',')) {
        std::string name(trim(piece));
        if (name.empty()) continue;
        if (workloads::byName(name) == nullptr) {
          std::fprintf(stderr, "error: unknown workload '%s' in --only\n",
                       name.c_str());
          return 2;
        }
        only.push_back(std::move(name));
      }
      if (only.empty()) {
        std::fprintf(stderr, "error: --only names no workloads\n");
        return 2;
      }
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "error: unknown option '%s'\n", arg.c_str());
      return 2;
    } else if (!parseBudget(arg.c_str(), &budget)) {
      return badBudget(arg.c_str());
    }
  }

  unsigned jobs;
  if (jobsFlag.has_value()) {
    jobs = *jobsFlag;
  } else if (const char* env = std::getenv("CAYMAN_JOBS");
             env != nullptr && *env != '\0') {
    // The library silently falls back on a malformed CAYMAN_JOBS (it has no
    // usage-error channel); the CLI rejects it like a bad --jobs instead of
    // quietly running with a different parallelism than asked for.
    std::optional<unsigned> envJobs = parseJobs(env);
    if (!envJobs) {
      std::fprintf(stderr,
                   "error: invalid CAYMAN_JOBS '%s' — expected an integer "
                   "in [1, 1024]\n",
                   env);
      return 2;
    }
    jobs = *envJobs;
  } else {
    jobs = ThreadPool::defaultWorkers();
  }

  // Pre-validate the CAYMAN_INJECT_* hooks: a malformed spec is a usage
  // error before any work starts, not 28 identically failed rows.
  {
    support::Expected<std::optional<support::envhooks::FaultSpec>> fault =
        support::envhooks::envInjectFault();
    if (!fault.ok()) {
      std::fprintf(stderr, "error: %s\n", fault.diagnostic().str().c_str());
      return 2;
    }
    support::Expected<std::vector<support::envhooks::SlowSpec>> slow =
        support::envhooks::envInjectSlow();
    if (!slow.ok()) {
      std::fprintf(stderr, "error: %s\n", slow.diagnostic().str().c_str());
      return 2;
    }
  }

  const bool tracing = !traceOut.empty() || !metricsOut.empty();
  if (tracing) {
    support::trace::TraceRecorder& recorder =
        support::trace::TraceRecorder::global();
    recorder.clear();
    recorder.setEnabled(true);
  }

  std::vector<WorkloadEvaluation> evaluations =
      only.empty() ? evaluateAll(budget, jobs, options)
                   : evaluateWorkloads(only, budget, jobs, options);
  std::fputs(formatEvaluationTable(evaluations).c_str(), stdout);

  if (tracing) {
    support::trace::TraceRecorder& recorder =
        support::trace::TraceRecorder::global();
    std::vector<support::trace::TaskRecord> tasks = recorder.drainTasks();
    std::vector<support::trace::OrphanRecord> orphans =
        recorder.drainOrphans();
    if (!metricsOut.empty()) {
      MetricsOptions metricsOptions;
      metricsOptions.includeWallTimes = traceWall;
      metricsOptions.globalCounters = recorder.globalCounters();
      metricsOptions.gauges = recorder.gauges();
      support::json::Value document =
          buildMetricsJson(evaluations, tasks, metricsOptions);
      if (!writeFile(metricsOut, document.dump(2) + "\n")) return 1;
    }
    if (!traceOut.empty()) {
      support::trace::TimeMode mode =
          traceWall ? support::trace::TimeMode::Wall
                    : support::trace::TimeMode::Deterministic;
      support::json::Value document =
          support::trace::chromeTrace(tasks, orphans, mode);
      if (!writeFile(traceOut, document.dump() + "\n")) return 1;
    }
  }
  return countFailures(evaluations) > 0 ? 1 : 0;
}

/// `report <workload> [budget]`: evaluates one workload with tracing on and
/// prints its cayman-metrics-v1 document (deterministic mode) to stdout.
int cmdReport(const std::string& name, double budget) {
  support::trace::TraceRecorder& recorder =
      support::trace::TraceRecorder::global();
  recorder.clear();
  recorder.setEnabled(true);
  std::vector<WorkloadEvaluation> evaluations;
  evaluations.push_back(evaluateWorkload(name, budget));
  std::vector<support::trace::TaskRecord> tasks = recorder.drainTasks();
  support::json::Value document = buildMetricsJson(evaluations, tasks);
  std::printf("%s\n", document.dump(2).c_str());
  return evaluations.front().ok() ? 0 : 1;
}

int cmdRun(const std::string& path, double budget) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
    return 1;
  }
  std::ostringstream text;
  text << in.rdbuf();
  return evaluateModule(ir::parseModule(text.str()), budget);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  std::string command = argv[1];
  try {
    if (command == "list") {
      return argc > 2 ? unexpectedArgument(argv[2]) : cmdList();
    }
    if (command == "evaluate-all") return cmdEvaluateAll(argc, argv);
    const bool takesBudget = command == "explore" || command == "evaluate" ||
                             command == "report" || command == "run";
    if (!takesBudget && command != "ir" && command != "wpst") return usage();
    if (argc < 3) return usage();
    // <workload> (or <file.cir>), then the optional budget where one applies.
    const int maxArgs = takesBudget ? 4 : 3;
    if (argc > maxArgs) return unexpectedArgument(argv[maxArgs]);
    std::string target = argv[2];
    double budget = 0.25;
    if (argc > 3 && !parseBudget(argv[3], &budget)) return badBudget(argv[3]);
    if (command == "ir") return cmdIr(target);
    if (command == "wpst") return cmdWpst(target);
    if (command == "explore") return cmdExplore(target, budget);
    if (command == "evaluate") {
      return evaluateModule(workloads::build(target), budget);
    }
    if (command == "report") return cmdReport(target, budget);
    if (command == "run") return cmdRun(target, budget);
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    // Anything not funneled through cayman::Error is an internal bug, not an
    // input problem — distinct exit code so harnesses can tell them apart.
    std::fprintf(stderr, "internal error: %s\n", e.what());
    return 3;
  }
  return usage();
}
