#include "support/status.h"

#include <sstream>

namespace cayman::support {

const char* stageName(Stage stage) {
  switch (stage) {
    case Stage::Parse: return "parse";
    case Stage::Verify: return "verify";
    case Stage::Analyze: return "analyze";
    case Stage::Profile: return "profile";
    case Stage::Select: return "select";
    case Stage::Merge: return "merge";
    case Stage::Baselines: return "baselines";
    case Stage::Internal: return "internal";
  }
  return "internal";
}

std::optional<Stage> stageByName(std::string_view name) {
  for (Stage stage : {Stage::Parse, Stage::Verify, Stage::Analyze,
                      Stage::Profile, Stage::Select, Stage::Merge,
                      Stage::Baselines, Stage::Internal}) {
    if (name == stageName(stage)) return stage;
  }
  return std::nullopt;
}

std::string Diagnostic::str() const {
  std::ostringstream os;
  os << stageName(stage) << " error";
  if (!unit.empty()) os << " in '" << unit << "'";
  if (line > 0) {
    os << " at " << line;
    if (col > 0) os << ":" << col;
  }
  os << ": " << message;
  return os.str();
}

}  // namespace cayman::support
