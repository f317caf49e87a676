// Benchmark registry: the 28 applications of the paper's evaluation
// (PolyBench, MachSuite, MediaBench, CoreMark-Pro), re-authored as IR
// programs. PolyBench/MachSuite kernels are faithful ports at reduced
// problem sizes; MediaBench/CoreMark-Pro entries are structurally
// equivalent synthetic kernels (see each builder's comment) because the
// original sources are not redistributable here — they preserve hotspot
// distribution, control-flow richness, and access patterns.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "ir/module.h"

namespace cayman::workloads {

struct WorkloadInfo {
  std::string name;
  std::string suite;
  /// Substitution note (empty for faithful ports).
  std::string note;
  std::function<std::unique_ptr<ir::Module>()> build;
  /// Relative evaluation cost (arbitrary units, default 1.0) used for LPT
  /// scheduling in evaluateWorkloads: heavier workloads are *submitted*
  /// first so the sweep's makespan is not bound by a tail workload landing
  /// last. Purely a scheduling hint — never affects results or output
  /// order. Filled by the registry (registry.cpp); suite builders leave it
  /// defaulted.
  double costHint = 1.0;
};

/// All registered workloads in the paper's Table II order.
const std::vector<WorkloadInfo>& all();

/// Lookup by name; nullptr when unknown.
const WorkloadInfo* byName(std::string_view name);

/// Builds a workload module by name; throws on unknown names. The module is
/// not verified here: Framework's Verify stage checks every module it gets.
std::unique_ptr<ir::Module> build(std::string_view name);

// Suite builders (one translation unit each).
std::vector<WorkloadInfo> polybenchWorkloads();
std::vector<WorkloadInfo> machsuiteWorkloads();
std::vector<WorkloadInfo> mediabenchWorkloads();
std::vector<WorkloadInfo> coremarkWorkloads();

}  // namespace cayman::workloads
