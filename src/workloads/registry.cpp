#include "workloads/workloads.h"

#include <string_view>
#include <utility>

#include "support/error.h"

namespace cayman::workloads {

namespace {

/// LPT cost hints: relative single-workload evaluation times (1.0 = median
/// class), measured once on the reference container with a cold model and
/// rounded to coarse buckets — scheduling only needs the heavy tail
/// (cjpeg/3mm/cjpeg-rose7/floyd-warshall class) ordered ahead of the cheap
/// kernels, not precise durations. Unlisted workloads keep the 1.0 default.
constexpr std::pair<std::string_view, double> kCostHints[] = {
    {"cjpeg", 20.0},
    {"cjpeg-rose7-preset", 18.0},
    {"3mm", 12.0},
    {"floyd-warshall", 10.0},
    {"epic", 8.0},
    {"gramschmidt", 6.0},
    {"cholesky", 6.0},
    {"lu", 6.0},
    {"deriche", 5.0},
    {"nnet-test", 5.0},
    {"covariance", 4.0},
    {"symm", 4.0},
    {"jacobi-2d", 3.0},
    {"fft", 3.0},
    {"md", 3.0},
    {"loops-all-mid-10k-sp", 3.0},
    {"linear-alg-mid", 2.0},
    {"zip-test", 2.0},
    {"syrk", 2.0},
    {"trmm", 2.0},
    {"doitgen", 2.0},
    {"nw", 2.0},
};

}  // namespace

const std::vector<WorkloadInfo>& all() {
  static const std::vector<WorkloadInfo> registry = [] {
    std::vector<WorkloadInfo> list;
    for (auto suite : {polybenchWorkloads(), machsuiteWorkloads(),
                       mediabenchWorkloads(), coremarkWorkloads()}) {
      list.insert(list.end(), suite.begin(), suite.end());
    }
    for (WorkloadInfo& info : list) {
      for (const auto& [name, hint] : kCostHints) {
        if (info.name == name) {
          info.costHint = hint;
          break;
        }
      }
    }
    return list;
  }();
  return registry;
}

const WorkloadInfo* byName(std::string_view name) {
  for (const WorkloadInfo& info : all()) {
    if (info.name == name) return &info;
  }
  return nullptr;
}

std::unique_ptr<ir::Module> build(std::string_view name) {
  const WorkloadInfo* info = byName(name);
  if (info == nullptr) {
    throw Error("unknown workload: " + std::string(name));
  }
  return info->build();
}

}  // namespace cayman::workloads
