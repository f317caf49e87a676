#include "oracles/generate.h"

#include <algorithm>
#include <cmath>

namespace cayman::oracles {

using accel::AcceleratorConfig;
using analysis::Region;

ReferenceGenerator::ReferenceGenerator(const accel::AcceleratorModel& model)
    : model_(model),
      done_(model.wpst().allRegions().size(), false),
      lists_(model.wpst().allRegions().size()) {}

const std::vector<AcceleratorConfig>& ReferenceGenerator::generate(
    const Region* region) {
  const size_t id = static_cast<size_t>(region->id());
  if (!done_[id]) {
    lists_[id] = enumerate(region);
    done_[id] = true;
  }
  return lists_[id];
}

std::vector<AcceleratorConfig> ReferenceGenerator::enumerate(
    const Region* region) {
  std::vector<AcceleratorConfig> result;
  if (!region->isCandidate()) return result;
  // Regions that never executed cannot gain anything.
  if (model_.profile().cycles(region) <= 0.0) return result;

  const accel::ModelParams& params = model_.params();
  auto add = [&](unsigned unroll, bool optimize) {
    AcceleratorConfig config = model_.ladderConfig(region, unroll, optimize);
    accel::AcceleratorModel fresh(model_.wpst(), model_.profile(),
                                  model_.tech(), model_.timing(), params);
    fresh.estimate(config);
    estimateCalls_ += fresh.estimateCalls();
    scheduleBlockCalls_ += fresh.scheduleBlockCalls();
    result.push_back(std::move(config));
  };

  // Cheapest point: fully sequential.
  add(1, /*optimize=*/false);
  bool hasLoops = false;
  region->walk([&](const Region& r) {
    hasLoops |= r.kind() == analysis::RegionKind::Loop;
  });
  if (hasLoops && params.allowUnrolling) {
    for (unsigned unroll : params.unrollFactors) add(unroll, true);
  } else if (hasLoops && params.allowPipelining) {
    add(1, true);
  }

  // Drop duplicates (same cycles and area), as generate() does.
  std::sort(result.begin(), result.end(),
            [](const AcceleratorConfig& a, const AcceleratorConfig& b) {
              return a.areaUm2 < b.areaUm2;
            });
  std::vector<AcceleratorConfig> unique;
  for (AcceleratorConfig& config : result) {
    if (!unique.empty() &&
        std::abs(unique.back().areaUm2 - config.areaUm2) < 1e-9 &&
        std::abs(unique.back().cycles - config.cycles) < 1e-9) {
      continue;
    }
    unique.push_back(std::move(config));
  }
  return unique;
}

}  // namespace cayman::oracles
