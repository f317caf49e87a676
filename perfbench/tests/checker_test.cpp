// The row checker must flag every kind of bad row the benchmark guards
// against. Exits non-zero, naming the case, when one goes unflagged.
#include <cmath>
#include <cstdio>

#include "rows.h"

namespace {

int failures = 0;

void expect(bool condition, const char* what) {
  if (!condition) {
    std::fprintf(stderr, "checker_test: FAILED %s\n", what);
    ++failures;
  }
}

perfbench::Row goodRow() {
  perfbench::Row row;
  row.workload = "atax";
  row.budgetRatio = 0.25;
  row.budgetUm2 = 1000.0;
  row.ok = true;
  row.speedup = 3.5;
  row.noviaSpeedup = 1.2;
  row.qscoresSpeedup = 2.0;
  row.overNovia = row.speedup / row.noviaSpeedup;
  row.overQsCores = row.speedup / row.qscoresSpeedup;
  row.areaUm2 = 900.0;
  row.savingPercent = 12.5;
  return row;
}

}  // namespace

int main() {
  using perfbench::Row;
  const std::vector<Row> good{goodRow()};
  expect(perfbench::checkRows(good).empty(), "a good row passes");

  Row overBudget = goodRow();
  overBudget.areaUm2 = 1000.5;
  expect(perfbench::checkRows({overBudget}).size() == 1, "over budget");

  Row slowdown = goodRow();
  slowdown.speedup = 0.99;
  expect(perfbench::checkRows({slowdown}).size() == 1, "speedup below 1");

  Row nan = goodRow();
  nan.speedup = std::nan("");
  expect(perfbench::checkRows({nan}).size() == 1, "NaN speedup");

  Row failed = goodRow();
  failed.ok = false;
  failed.failure = "injected";
  expect(perfbench::checkRows({failed}).size() == 1, "failed row");

  Row drifted = goodRow();
  drifted.speedup += 1e-12;
  expect(perfbench::digest({drifted}) != perfbench::digest(good),
         "digest sees a last-bit change");
  expect(perfbench::diffRows(good, {drifted}).size() == 1,
         "diff sees a last-bit change");
  expect(perfbench::diffRows(good, good).empty(), "identical rows match");
  expect(perfbench::diffRows(good, {}).size() == 1, "missing row");

  Row renamed = goodRow();
  renamed.workload = "bicg";
  expect(perfbench::diffRows(good, {renamed}).size() == 1, "renamed row");

  // Table digests ignore row order but not content.
  Row other = goodRow();
  other.workload = "bicg";
  expect(perfbench::tableDigest({goodRow(), other}, 0.25) ==
             perfbench::tableDigest({other, goodRow()}, 0.25),
         "table digest is order-independent");
  expect(perfbench::tableDigest({goodRow(), other}, 0.25) !=
             perfbench::tableDigest({goodRow(), drifted}, 0.25),
         "table digest sees content");

  Row larger = goodRow();
  larger.budgetRatio = 0.65;
  larger.speedup = 3.0;
  expect(perfbench::quality({goodRow(), larger}).monoViolations == 1,
         "more area with less speedup is a violation");

  if (failures == 0) std::printf("checker_test: ok\n");
  return failures == 0 ? 0 : 1;
}
