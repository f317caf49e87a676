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

/// Offsets are byte positions inside a cache file; anything beyond 1 TiB is
/// a typo, not a file.
constexpr long kMaxOffset = 1ll << 40;
/// Stalls above 1000 s per call would deadlock CI long before testing it.
constexpr long kMaxStallUs = 1'000'000'000;

template <typename T>
Expected<std::optional<T>> fromEnv(const char* var,
                                   Expected<T> (*parse)(std::string_view)) {
  const char* value = std::getenv(var);
  if (value == nullptr || *value == '\0') {
    return std::optional<T>(std::nullopt);
  }
  Expected<T> parsed = parse(value);
  if (!parsed.ok()) return parsed.diagnostic();
  return std::optional<T>(parsed.takeValue());
}

}  // namespace

const char* corruptModeName(CorruptMode mode) {
  switch (mode) {
    case CorruptMode::Truncate: return "truncate";
    case CorruptMode::Bitflip: return "bitflip";
    case CorruptMode::Torn: return "torn";
    case CorruptMode::Crash: return "crash";
  }
  return "truncate";
}

Expected<FaultSpec> parseInjectFault(std::string_view text) {
  const char* var = "CAYMAN_INJECT_FAULT";
  std::vector<std::string_view> pieces = split(text, ':');
  if (pieces.size() != 2 || pieces[0].empty()) {
    return badSpec(var, text, "<workload>:<stage>");
  }
  std::optional<Stage> stage = stageByName(pieces[1]);
  if (!stage.has_value()) {
    return badSpec(var, text,
                   "a stage name (parse/verify/analyze/profile/cache/"
                   "select/merge/baselines/internal) after ':'");
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

Expected<CorruptSpec> parseInjectCorrupt(std::string_view text) {
  const char* var = "CAYMAN_INJECT_CORRUPT";
  std::vector<std::string_view> pieces = split(text, ':');
  if (pieces.size() != 2) {
    return badSpec(var, text, "<truncate|bitflip|torn|crash>:<offset>");
  }
  std::optional<CorruptMode> mode;
  for (CorruptMode m : {CorruptMode::Truncate, CorruptMode::Bitflip,
                        CorruptMode::Torn, CorruptMode::Crash}) {
    if (pieces[0] == corruptModeName(m)) mode = m;
  }
  if (!mode.has_value()) {
    return badSpec(var, text, "a mode in {truncate, bitflip, torn, crash}");
  }
  std::optional<long> offset =
      parseLong(std::string(pieces[1]).c_str(), 0, kMaxOffset);
  if (!offset.has_value()) {
    return badSpec(var, text, "a byte offset in [0, 2^40] after ':'");
  }
  return CorruptSpec{*mode, static_cast<uint64_t>(*offset)};
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
  return fromEnv("CAYMAN_INJECT_FAULT", parseInjectFault);
}

Expected<std::vector<SlowSpec>> envInjectSlow() {
  const char* value = std::getenv("CAYMAN_INJECT_SLOW");
  if (value == nullptr || *value == '\0') {
    return std::vector<SlowSpec>{};
  }
  return parseInjectSlowList(value);
}

Expected<std::optional<CorruptSpec>> envInjectCorrupt() {
  return fromEnv("CAYMAN_INJECT_CORRUPT", parseInjectCorrupt);
}

}  // namespace cayman::support::envhooks
