// Structured status reporting for the evaluation pipeline.
//
// A `Diagnostic` pins a failure to a pipeline stage (parse/verify/analyze/
// profile/select/merge/baselines), the pipeline unit it happened in
// (workload or module name), and — for ingestion stages — a 1-based line:col source position.
// `DiagnosticError` carries one through the exception path so the driver can
// turn it into a per-workload FAILED row instead of aborting a whole sweep;
// `Expected<T>` carries one through return values for callers that prefer
// status objects over exceptions (the hardened parser API, the fuzz harness).
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <variant>

#include "support/error.h"

namespace cayman::support {

/// Pipeline stages a failure can be attributed to. `Internal` is the bucket
/// for exceptions that escape outside any tracked stage.
enum class Stage {
  Parse,
  Verify,
  Analyze,
  Profile,
  Select,
  Merge,
  /// The NOVIA + QsCores comparison pass after Cayman's own selection.
  Baselines,
  Internal,
};

/// Stable lower-case spelling ("parse", "verify", ...).
const char* stageName(Stage stage);

/// Inverse of stageName; nullopt for unknown spellings.
std::optional<Stage> stageByName(std::string_view name);

/// One structured failure report.
struct Diagnostic {
  Stage stage = Stage::Internal;
  /// Pipeline unit: workload or module name. May be empty when unknown.
  std::string unit;
  std::string message;
  /// 1-based source position for parse/verify diagnostics; 0 when absent.
  int line = 0;
  int col = 0;

  /// "parse error in 'atax' at 3:14: ..." — stage, unit and position are
  /// omitted when absent.
  std::string str() const;
};

/// Exception carrying a structured Diagnostic. Derives from Error so legacy
/// `catch (const Error&)` sites keep working; what() is Diagnostic::str().
class DiagnosticError : public Error {
 public:
  explicit DiagnosticError(Diagnostic diagnostic)
      : Error(diagnostic.str()), diagnostic_(std::move(diagnostic)) {}

  const Diagnostic& diagnostic() const { return diagnostic_; }

 private:
  Diagnostic diagnostic_;
};

/// Thrown by cooperative cancellation checkpoints when a deadline passed.
/// Distinct type so drivers can label rows as timeouts vs. faults.
class CancelledError : public DiagnosticError {
 public:
  using DiagnosticError::DiagnosticError;
};

/// Minimal Expected: a value or the Diagnostic explaining its absence.
template <typename T>
class Expected {
 public:
  Expected(T value) : state_(std::move(value)) {}             // NOLINT
  Expected(Diagnostic diagnostic) : state_(std::move(diagnostic)) {}  // NOLINT

  bool ok() const { return std::holds_alternative<T>(state_); }
  explicit operator bool() const { return ok(); }

  T& value() {
    CAYMAN_ASSERT(ok(), "Expected::value() on a failed Expected");
    return std::get<T>(state_);
  }
  const T& value() const {
    CAYMAN_ASSERT(ok(), "Expected::value() on a failed Expected");
    return std::get<T>(state_);
  }
  /// Moves the value out (the Expected is left holding a moved-from value).
  T takeValue() { return std::move(value()); }

  const Diagnostic& diagnostic() const {
    CAYMAN_ASSERT(!ok(), "Expected::diagnostic() on an ok Expected");
    return std::get<Diagnostic>(state_);
  }

 private:
  std::variant<T, Diagnostic> state_;
};

}  // namespace cayman::support
