#include "rows.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <map>

namespace perfbench {

namespace {

struct Fnv {
  uint64_t hash = 1469598103934665603ull;
  void bytes(const void* data, size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash ^= p[i];
      hash *= 1099511628211ull;
    }
  }
  void add(const std::string& s) {
    bytes(s.data(), s.size());
    bytes("", 1);
  }
  void add(uint64_t v) { bytes(&v, sizeof v); }
};

/// Every numeric field of a row as raw bits, so rows compare bit for bit.
std::vector<uint64_t> fieldBits(const Row& r) {
  std::vector<uint64_t> bits{uint64_t{r.ok}};
  for (double d : {r.budgetRatio, r.budgetUm2, r.speedup, r.noviaSpeedup,
                   r.qscoresSpeedup, r.overNovia, r.overQsCores, r.areaUm2,
                   r.savingPercent}) {
    bits.push_back(std::bit_cast<uint64_t>(d));
  }
  for (unsigned u : {r.seqBlocks, r.pipelinedRegions, r.coupled, r.decoupled,
                     r.scratchpad}) {
    bits.push_back(u);
  }
  return bits;
}

void hashRow(Fnv& fnv, const Row& r) {
  fnv.add(r.workload);
  fnv.add(r.failure);
  for (uint64_t bits : fieldBits(r)) fnv.add(bits);
}

std::string label(const Row& r) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, " at budget %.4f", r.budgetRatio);
  return r.workload + buffer;
}

double geomean(const std::vector<double>& values) {
  double logSum = 0.0;
  for (double v : values) logSum += std::log(v);
  return values.empty() ? 0.0
                        : std::exp(logSum / static_cast<double>(values.size()));
}

}  // namespace

Row makeRow(const std::string& workload, const cayman::EvaluationReport& report,
            double budgetUm2) {
  Row row;
  row.workload = workload;
  row.budgetRatio = report.budgetRatio;
  row.budgetUm2 = budgetUm2;
  row.ok = true;
  row.speedup = report.caymanSpeedup;
  row.noviaSpeedup = report.noviaSpeedup;
  row.qscoresSpeedup = report.qscoresSpeedup;
  row.overNovia = report.overNovia;
  row.overQsCores = report.overQsCores;
  row.areaUm2 = report.solution.areaUm2;
  row.savingPercent = report.areaSavingPercent;
  row.seqBlocks = report.numSeqBlocks;
  row.pipelinedRegions = report.numPipelinedRegions;
  row.coupled = report.numCoupled;
  row.decoupled = report.numDecoupled;
  row.scratchpad = report.numScratchpad;
  return row;
}

Row makeRow(const cayman::WorkloadEvaluation& evaluation, double budgetUm2) {
  Row row = makeRow(evaluation.name, evaluation.report, budgetUm2);
  if (!evaluation.ok()) {
    row.ok = false;
    row.failure = evaluation.failure->message;
  }
  return row;
}

bool sameRow(const Row& a, const Row& b) {
  return a.workload == b.workload && a.failure == b.failure &&
         fieldBits(a) == fieldBits(b);
}

uint64_t digest(const std::vector<Row>& rows) {
  Fnv fnv;
  for (const Row& row : rows) hashRow(fnv, row);
  return fnv.hash;
}

uint64_t tableDigest(const std::vector<Row>& rows, double budgetRatio) {
  std::vector<const Row*> table;
  for (const Row& row : rows) {
    if (row.budgetRatio == budgetRatio) table.push_back(&row);
  }
  std::sort(table.begin(), table.end(), [](const Row* a, const Row* b) {
    return a->workload < b->workload;
  });
  Fnv fnv;
  for (const Row* row : table) hashRow(fnv, *row);
  return fnv.hash;
}

std::vector<std::string> checkRows(const std::vector<Row>& rows) {
  std::vector<std::string> problems;
  for (const Row& r : rows) {
    if (!r.ok) {
      problems.push_back(label(r) + ": failed: " + r.failure);
    } else if (!(r.areaUm2 <= r.budgetUm2)) {
      problems.push_back(label(r) + ": chosen area over budget");
    } else if (!(r.speedup >= 1.0)) {
      problems.push_back(label(r) + ": speedup below 1");
    }
  }
  return problems;
}

std::vector<std::string> diffRows(const std::vector<Row>& expected,
                                  const std::vector<Row>& actual) {
  if (expected.size() != actual.size()) {
    return {"row count " + std::to_string(actual.size()) + " != " +
            std::to_string(expected.size())};
  }
  std::vector<std::string> problems;
  for (size_t i = 0; i < actual.size(); ++i) {
    if (!sameRow(expected[i], actual[i])) {
      problems.push_back(label(actual[i]) + ": differs from " +
                         label(expected[i]));
    }
  }
  return problems;
}

Quality quality(const std::vector<Row>& rows) {
  std::vector<double> speedups, overNovia, overQs;
  double saving = 0.0;
  std::map<std::string, std::vector<std::pair<double, double>>> byWorkload;
  for (const Row& r : rows) {
    if (!r.ok) continue;
    speedups.push_back(r.speedup);
    overNovia.push_back(r.overNovia);
    overQs.push_back(r.overQsCores);
    saving += r.savingPercent;
    byWorkload[r.workload].emplace_back(r.budgetRatio, r.speedup);
  }
  Quality q;
  q.speedupGeomean = geomean(speedups);
  q.overNoviaGeomean = geomean(overNovia);
  q.overQsCoresGeomean = geomean(overQs);
  if (!speedups.empty()) {
    q.areaSavingPercent = saving / static_cast<double>(speedups.size());
  }
  for (const auto& [workload, points] : byWorkload) {
    for (const auto& [budgetA, speedupA] : points) {
      for (const auto& [budgetB, speedupB] : points) {
        if (budgetA < budgetB && speedupB < speedupA) ++q.monoViolations;
      }
    }
  }
  return q;
}

}  // namespace perfbench
