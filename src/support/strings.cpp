#include "support/strings.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

namespace cayman {

std::vector<std::string_view> split(std::string_view text, char sep) {
  std::vector<std::string_view> pieces;
  size_t start = 0;
  while (true) {
    size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      pieces.push_back(text.substr(start));
      break;
    }
    pieces.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return pieces;
}

std::string_view trim(std::string_view text) {
  size_t begin = 0;
  while (begin < text.size() &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  size_t end = text.size();
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

bool startsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

std::optional<long> parseLong(const char* text, long minValue,
                              long maxValue) {
  if (text == nullptr || *text == '\0') return std::nullopt;
  char* end = nullptr;
  errno = 0;
  long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE) return std::nullopt;
  if (value < minValue || value > maxValue) return std::nullopt;
  return value;
}

std::optional<double> parseDouble(const char* text, double minExclusive,
                                  double maxInclusive) {
  if (text == nullptr || *text == '\0') return std::nullopt;
  char* end = nullptr;
  errno = 0;
  double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE) return std::nullopt;
  // !(value > min) also rejects NaN.
  if (!(value > minExclusive) || value > maxInclusive) return std::nullopt;
  return value;
}

std::optional<unsigned> parseJobs(const char* text, unsigned maxJobs) {
  std::optional<long> value =
      parseLong(text, 1, static_cast<long>(maxJobs));
  if (!value.has_value()) return std::nullopt;
  return static_cast<unsigned>(*value);
}

}  // namespace cayman
