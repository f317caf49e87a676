// Table II rows as the benchmark checks them: one (workload, budget) result
// reduced to plain values, plus the output checks and the quality summary.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cayman/driver.h"

namespace perfbench {

struct Row {
  std::string workload;
  double budgetRatio = 0.0;
  double budgetUm2 = 0.0;
  bool ok = false;
  std::string failure;  ///< the driver's diagnostic when !ok
  double speedup = 0.0;
  double noviaSpeedup = 0.0;
  double qscoresSpeedup = 0.0;
  double overNovia = 0.0;
  double overQsCores = 0.0;
  double areaUm2 = 0.0;  ///< area of the chosen solution
  double savingPercent = 0.0;
  unsigned seqBlocks = 0;
  unsigned pipelinedRegions = 0;
  unsigned coupled = 0;
  unsigned decoupled = 0;
  unsigned scratchpad = 0;
};

/// The row of one successful evaluation report.
Row makeRow(const std::string& workload, const cayman::EvaluationReport& report,
            double budgetUm2);
/// The row of one driver result, failed or not.
Row makeRow(const cayman::WorkloadEvaluation& evaluation, double budgetUm2);

/// True when every field is bit-for-bit equal.
bool sameRow(const Row& a, const Row& b);

/// FNV-1a over every field of every row, in the given order.
uint64_t digest(const std::vector<Row>& rows);
/// Digest of the rows at `budgetRatio`, sorted by workload name, so it does
/// not depend on the order the workloads ran in.
uint64_t tableDigest(const std::vector<Row>& rows, double budgetRatio);

/// One message per broken row: failed, chosen area over budget, or a
/// speedup below 1.
std::vector<std::string> checkRows(const std::vector<Row>& rows);
/// One message per row of `actual` that differs from `expected`.
std::vector<std::string> diffRows(const std::vector<Row>& expected,
                                  const std::vector<Row>& actual);

/// Accelerator quality over a set of successful rows.
struct Quality {
  double speedupGeomean = 0.0;
  double overNoviaGeomean = 0.0;
  double overQsCoresGeomean = 0.0;
  double areaSavingPercent = 0.0;  ///< mean over rows
  /// (workload, budget pair) cases where the larger budget gives the lower
  /// speedup, counted over every pair of budgets of a workload.
  unsigned monoViolations = 0;
};
Quality quality(const std::vector<Row>& rows);

}  // namespace perfbench
