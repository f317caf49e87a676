// Strict parsing for the CAYMAN_INJECT_* test hooks.
//
// Two environment variables deliberately break the pipeline for fault-
// isolation and deadline testing:
//
//   CAYMAN_INJECT_FAULT=<workload>:<stage>       throw after a stage
//   CAYMAN_INJECT_SLOW=<workload>:generate:<us>  stall each generate() call
//
// They used to be hand-parsed with silent fallbacks; a typo meant the hook
// quietly did nothing and the test passed vacuously. These parsers apply the
// same full-consumption discipline as the CLI's parseLong/parseDouble: a
// malformed spec is a loud, stage-attributed Diagnostic that callers turn
// into a failed workload row (driver) or an exit-2 usage error (CLI).
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "support/status.h"

namespace cayman::support::envhooks {

/// CAYMAN_INJECT_FAULT: fail `workload` right after `stage` completes.
struct FaultSpec {
  std::string workload;
  Stage stage = Stage::Internal;
};

/// CAYMAN_INJECT_SLOW: stall every generate() call of `workload`.
struct SlowSpec {
  std::string workload;
  uint64_t micros = 0;
};

// Spec parsers: exact segment counts, strict numerics, named stages.
// `text` is the raw variable value; the Diagnostic names the variable.
Expected<FaultSpec> parseInjectFault(std::string_view text);
Expected<SlowSpec> parseInjectSlow(std::string_view text);

/// CAYMAN_INJECT_SLOW accepts a comma-separated list of specs so overlap
/// tests can stall *several* workloads in one run
/// (`fir:generate:50000,dotproduct:generate:50000`). Every element must
/// parse; empty elements (stray commas) are rejected. Duplicate workload
/// names are rejected too — the driver matches by name and a duplicate
/// would silently shadow.
Expected<std::vector<SlowSpec>> parseInjectSlowList(std::string_view text);

// getenv wrappers: unset (or empty) variable -> ok(nullopt / empty list);
// set but malformed -> the parser's failed Expected.
Expected<std::optional<FaultSpec>> envInjectFault();
Expected<std::vector<SlowSpec>> envInjectSlow();

}  // namespace cayman::support::envhooks
