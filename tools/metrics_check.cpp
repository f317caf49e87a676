// metrics_check: validates a cayman-metrics-v1 document (schema, types, and
// internal consistency). Used by CI on the artifact produced by
// `cayman_cli evaluate-all --metrics-json` and by ctest.
//
//   metrics_check <file.json>
//
// exit codes: 0 valid, 1 invalid, 2 usage / unreadable file
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "support/json.h"
#include "support/status.h"

using cayman::support::json::Value;

namespace {

int g_errors = 0;

void fail(const std::string& where, const std::string& message) {
  std::fprintf(stderr, "metrics_check: %s: %s\n", where.c_str(),
               message.c_str());
  ++g_errors;
}

/// Requires member `key` of `kindName` ∈ {string, bool, int, number,
/// object, array} on `object`; returns it or nullptr.
const Value* require(const Value& object, const std::string& where,
                     const std::string& key, const char* kindName) {
  const Value* value = object.find(key);
  if (value == nullptr) {
    fail(where, "missing key '" + key + "'");
    return nullptr;
  }
  std::string kind(kindName);
  bool ok = (kind == "string" && value->isString()) ||
            (kind == "bool" && value->isBool()) ||
            (kind == "int" && value->isInt()) ||
            (kind == "number" && value->isNumber()) ||
            (kind == "object" && value->isObject()) ||
            (kind == "array" && value->isArray());
  if (!ok) {
    fail(where, "key '" + key + "' is not a " + kind);
    return nullptr;
  }
  return value;
}

void checkMetrics(const Value& metrics, const std::string& where) {
  for (const char* key :
       {"total_cpu_cycles", "cayman_speedup", "novia_speedup",
        "qscores_speedup", "over_novia", "over_qscores",
        "area_before_um2", "area_after_um2", "area_saving_percent"}) {
    require(metrics, where, key, "number");
  }
  for (const char* key : {"num_seq_blocks", "num_pipelined_regions",
                          "num_coupled", "num_decoupled", "num_scratchpad"}) {
    if (const Value* v = require(metrics, where, key, "int")) {
      if (v->intValue() < 0) fail(where, std::string(key) + " is negative");
    }
  }
}

void checkSelection(const Value& selection, const std::string& where) {
  for (size_t i = 0; i < selection.items().size(); ++i) {
    const Value& decision = selection.items()[i];
    std::string at = where + ".selection[" + std::to_string(i) + "]";
    if (!decision.isObject()) {
      fail(at, "not an object");
      continue;
    }
    require(decision, at, "region", "string");
    for (const char* key : {"cpu_cycles", "accel_cycles", "hot_fraction",
                            "kernel_speedup", "area_um2"}) {
      if (const Value* v = require(decision, at, key, "number")) {
        if (v->numberValue() < 0.0) {
          fail(at, std::string(key) + " is negative");
        }
      }
    }
    if (const Value* hot = decision.find("hot_fraction")) {
      if (hot->isNumber() && hot->numberValue() > 1.0) {
        fail(at, "hot_fraction > 1");
      }
    }
  }
}

void checkWorkload(const Value& entry, size_t position) {
  std::string where = "workloads[" + std::to_string(position) + "]";
  if (!entry.isObject()) {
    fail(where, "not an object");
    return;
  }
  require(entry, where, "name", "string");
  require(entry, where, "suite", "string");
  if (const Value* index = require(entry, where, "index", "int")) {
    if (index->intValue() != static_cast<int64_t>(position)) {
      fail(where, "index does not match array position");
    }
  }
  const Value* ok = require(entry, where, "ok", "bool");
  if (ok != nullptr) {
    const Value* failure = entry.find("failure");
    if (ok->boolValue() && failure != nullptr) {
      fail(where, "ok row carries a failure object");
    }
    if (!ok->boolValue()) {
      if (failure == nullptr || !failure->isObject()) {
        fail(where, "failed row lacks a failure object");
      } else {
        const Value* stage =
            require(*failure, where + ".failure", "stage", "string");
        if (stage != nullptr &&
            !cayman::support::stageByName(stage->stringValue())) {
          fail(where, "failure.stage '" + stage->stringValue() +
                          "' is not a pipeline stage");
        }
        require(*failure, where + ".failure", "message", "string");
      }
    }
  }
  if (const Value* metrics = require(entry, where, "metrics", "object")) {
    checkMetrics(*metrics, where + ".metrics");
  }
  if (const Value* selection = require(entry, where, "selection", "array")) {
    checkSelection(*selection, where);
  }
  if (const Value* counters = entry.find("counters")) {
    if (!counters->isObject()) {
      fail(where, "counters is not an object");
    } else {
      for (const auto& [name, value] : counters->members()) {
        if (!value.isInt() || value.intValue() < 0) {
          fail(where, "counter '" + name + "' is not a non-negative integer");
        }
      }
      // Model design-space counters are internally consistent: every
      // candidate the model hands the selector was estimated exactly once,
      // so estimates can only exceed candidates (duplicates estimated then
      // deduped), never trail them.
      const Value* estimates = counters->find("model.estimate_calls");
      const Value* candidates = counters->find("model.candidates_total");
      if (estimates != nullptr && candidates != nullptr &&
          estimates->isInt() && candidates->isInt() &&
          estimates->intValue() < candidates->intValue()) {
        fail(where, "model.estimate_calls < model.candidates_total");
      }
      // Merge counters are internally consistent: each merge step contracts
      // one of the initially scanned cross-accelerator pairs, each reusable
      // group needs at least one step to form, and the cross-accelerator
      // pair count is bounded by all unit pairs.
      const Value* mergeUnits = counters->find("merge.units");
      const Value* mergeSteps = counters->find("merge.steps");
      const Value* mergePairs = counters->find("merge.pairs_evaluated");
      const Value* mergeGroups = counters->find("merge.groups");
      if (mergeSteps != nullptr && mergePairs != nullptr &&
          mergeSteps->isInt() && mergePairs->isInt() &&
          mergeSteps->intValue() > mergePairs->intValue()) {
        fail(where, "merge.steps > merge.pairs_evaluated");
      }
      if (mergeGroups != nullptr && mergeSteps != nullptr &&
          mergeGroups->isInt() && mergeSteps->isInt() &&
          mergeGroups->intValue() > mergeSteps->intValue()) {
        fail(where, "merge.groups > merge.steps");
      }
      if (mergePairs != nullptr && mergeUnits != nullptr &&
          mergePairs->isInt() && mergeUnits->isInt() &&
          mergePairs->intValue() >
              mergeUnits->intValue() * (mergeUnits->intValue() - 1) / 2) {
        fail(where, "merge.pairs_evaluated exceeds units*(units-1)/2");
      }
    }
  }
  // Wall-mode extras: stage durations must be non-negative and sum to no
  // more than the task's total (stages are disjoint sub-intervals).
  if (const Value* stages = entry.find("stage_seconds")) {
    if (!stages->isObject()) {
      fail(where, "stage_seconds is not an object");
    } else {
      double sum = 0.0;
      for (const auto& [stage, seconds] : stages->members()) {
        if (!cayman::support::stageByName(stage)) {
          fail(where, "stage_seconds['" + stage + "'] is not a pipeline stage");
        }
        if (!seconds.isNumber() || seconds.numberValue() < 0.0) {
          fail(where, "stage_seconds['" + stage + "'] is not >= 0");
        } else {
          sum += seconds.numberValue();
        }
      }
      const Value* total = require(entry, where, "total_seconds", "number");
      if (total != nullptr && sum > total->numberValue() * (1.0 + 1e-9)) {
        fail(where, "stage_seconds sum exceeds total_seconds");
      }
    }
  }
}

/// Wall-mode "global" section: out-of-task pool counters and gauges. The
/// section is optional (absent when tracing was off or the document is
/// deterministic), but when present its values must be sane.
void checkGlobal(const Value& global) {
  const std::string where = "global";
  if (const Value* counters = global.find("counters")) {
    if (!counters->isObject()) {
      fail(where, "counters is not an object");
    } else {
      for (const auto& [name, value] : counters->members()) {
        if (!value.isInt() || value.intValue() < 0) {
          fail(where, "counter '" + name + "' is not a non-negative integer");
        }
      }
    }
  }
  if (const Value* gauges = global.find("gauges")) {
    if (!gauges->isObject()) {
      fail(where, "gauges is not an object");
    } else {
      for (const auto& [name, value] : gauges->members()) {
        if (!value.isInt()) {
          fail(where, "gauge '" + name + "' is not an integer");
        }
      }
    }
  }
}

int check(const Value& document) {
  if (!document.isObject()) {
    fail("document", "top level is not an object");
    return 1;
  }
  if (const Value* schema = require(document, "document", "schema", "string")) {
    if (schema->stringValue() != "cayman-metrics-v1") {
      fail("document", "unknown schema '" + schema->stringValue() + "'");
    }
  }
  if (const Value* mode = require(document, "document", "time_mode",
                                  "string")) {
    if (mode->stringValue() != "deterministic" &&
        mode->stringValue() != "wall") {
      fail("document", "unknown time_mode '" + mode->stringValue() + "'");
    }
  }
  require(document, "document", "totals", "object");
  if (const Value* global = document.find("global")) {
    if (!global->isObject()) {
      fail("document", "global is not an object");
    } else {
      const Value* mode = document.find("time_mode");
      if (mode != nullptr && mode->isString() &&
          mode->stringValue() == "deterministic") {
        fail("document", "deterministic document carries a global section");
      }
      checkGlobal(*global);
    }
  }
  const Value* workloads =
      require(document, "document", "workloads", "array");
  if (workloads == nullptr) return 1;
  if (const Value* count = require(document, "document", "workload_count",
                                   "int")) {
    if (count->intValue() !=
        static_cast<int64_t>(workloads->items().size())) {
      fail("document", "workload_count does not match workloads length");
    }
  }
  int64_t failures = 0;
  for (size_t i = 0; i < workloads->items().size(); ++i) {
    checkWorkload(workloads->items()[i], i);
    const Value* ok = workloads->items()[i].find("ok");
    if (ok != nullptr && ok->isBool() && !ok->boolValue()) ++failures;
  }
  if (const Value* failed = require(document, "document", "failed", "int")) {
    if (failed->intValue() != failures) {
      fail("document", "failed count does not match rows with ok=false");
    }
  }
  return g_errors > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: metrics_check <file.json>\n");
    return 2;
  }
  std::ifstream in(argv[1], std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "metrics_check: cannot open %s\n", argv[1]);
    return 2;
  }
  std::ostringstream text;
  text << in.rdbuf();

  cayman::support::Expected<Value> parsed =
      cayman::support::json::parse(text.str());
  if (!parsed.ok()) {
    std::fprintf(stderr, "metrics_check: %s is not valid JSON: %s\n",
                 argv[1], parsed.diagnostic().message.c_str());
    return 1;
  }
  int result = check(parsed.value());
  if (result == 0) std::printf("metrics_check: %s OK\n", argv[1]);
  return result;
}
