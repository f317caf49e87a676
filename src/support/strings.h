// Small string helpers shared across modules.
#pragma once

#include <optional>
#include <string_view>
#include <vector>

namespace cayman {

/// Splits `text` on `sep`, keeping empty pieces.
std::vector<std::string_view> split(std::string_view text, char sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view text);

/// True when `text` starts with `prefix`.
bool startsWith(std::string_view text, std::string_view prefix);

// Strict numeric parsing shared by every CLI flag and env knob. All three
// reject empty input, trailing garbage ("8x", "1e2" for integers), and
// out-of-range values — the strtol/strtod full-consumption pattern. Callers
// get nullopt instead of a silently-degenerate value (the old atof-style
// bugs: "--jobs 0" spinning up zero workers, "0.25x" evaluating at budget 0).

/// Base-10 integer in [minValue, maxValue].
std::optional<long> parseLong(const char* text, long minValue, long maxValue);

/// Finite double in (minExclusive, maxInclusive]; rejects NaN and overflow
/// (ERANGE, e.g. "1e999").
std::optional<double> parseDouble(const char* text, double minExclusive,
                                  double maxInclusive);

/// Worker/job count: integer in [1, maxJobs]. Used by --jobs and the
/// CAYMAN_JOBS environment knob so both accept exactly the same spellings.
std::optional<unsigned> parseJobs(const char* text, unsigned maxJobs = 1024);

}  // namespace cayman
