#include "support/envhooks.h"

#include <cstdlib>
#include <string>

#include "support/strings.h"

namespace cayman::support::envhooks {

namespace {

Diagnostic badSpec(const char* var, std::string_view text,
                   const std::string& expected) {
  return Diagnostic{Stage::Internal, var,
                    "invalid spec '" + std::string(text) + "' — expected " +
                        expected};
}

/// Stalls above 1000 s per call would deadlock CI long before testing it.
constexpr long kMaxStallUs = 1'000'000'000;

}  // namespace

Expected<FaultSpec> parseInjectFault(std::string_view text) {
  const char* var = "CAYMAN_INJECT_FAULT";
  std::vector<std::string_view> pieces = split(text, ':');
  if (pieces.size() != 2 || pieces[0].empty()) {
    return badSpec(var, text, "<workload>:<stage>");
  }
  std::optional<Stage> stage = stageByName(pieces[1]);
  if (!stage.has_value()) {
    return badSpec(var, text,
                   "a stage name (parse/verify/analyze/profile/select/"
                   "merge/baselines/internal) after ':'");
  }
  return FaultSpec{std::string(pieces[0]), *stage};
}

Expected<SlowSpec> parseInjectSlow(std::string_view text) {
  const char* var = "CAYMAN_INJECT_SLOW";
  std::vector<std::string_view> pieces = split(text, ':');
  if (pieces.size() != 3 || pieces[0].empty() || pieces[1] != "generate") {
    return badSpec(var, text, "<workload>:generate:<microseconds>");
  }
  std::optional<long> micros =
      parseLong(std::string(pieces[2]).c_str(), 0, kMaxStallUs);
  if (!micros.has_value()) {
    return badSpec(var, text,
                   "an integer microsecond count in [0, 1e9] after "
                   "':generate:'");
  }
  return SlowSpec{std::string(pieces[0]), static_cast<uint64_t>(*micros)};
}

Expected<std::vector<SlowSpec>> parseInjectSlowList(std::string_view text) {
  const char* var = "CAYMAN_INJECT_SLOW";
  std::vector<SlowSpec> specs;
  for (std::string_view piece : split(text, ',')) {
    if (piece.empty()) {
      return badSpec(var, text,
                     "a comma-separated list of "
                     "<workload>:generate:<microseconds> specs with no "
                     "empty elements");
    }
    Expected<SlowSpec> spec = parseInjectSlow(piece);
    if (!spec.ok()) return spec.diagnostic();
    for (const SlowSpec& existing : specs) {
      if (existing.workload == spec.value().workload) {
        return badSpec(var, text,
                       "at most one spec per workload (duplicate '" +
                           spec.value().workload + "')");
      }
    }
    specs.push_back(spec.takeValue());
  }
  return specs;
}

Expected<std::optional<FaultSpec>> envInjectFault() {
  const char* value = std::getenv("CAYMAN_INJECT_FAULT");
  if (value == nullptr || *value == '\0') {
    return std::optional<FaultSpec>(std::nullopt);
  }
  Expected<FaultSpec> parsed = parseInjectFault(value);
  if (!parsed.ok()) return parsed.diagnostic();
  return std::optional<FaultSpec>(parsed.takeValue());
}

Expected<std::vector<SlowSpec>> envInjectSlow() {
  const char* value = std::getenv("CAYMAN_INJECT_SLOW");
  if (value == nullptr || *value == '\0') {
    return std::vector<SlowSpec>{};
  }
  return parseInjectSlowList(value);
}

}  // namespace cayman::support::envhooks
