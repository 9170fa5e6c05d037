#include "src/analysis/diagnostics.h"

#include "src/base/json.h"

namespace crsat {

const char* SeverityToString(Severity severity) {
  switch (severity) {
    case Severity::kNote:
      return "note";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "unknown";
}

std::string FormatDiagnostic(const Diagnostic& diagnostic,
                             std::string_view source_name) {
  std::string out;
  if (diagnostic.location.IsKnown()) {
    if (!source_name.empty()) {
      out += std::string(source_name) + ":";
    }
    out += diagnostic.location.ToString() + ": ";
  } else if (!source_name.empty()) {
    out += std::string(source_name) + ": ";
  }
  out += SeverityToString(diagnostic.severity);
  out += ": ";
  out += diagnostic.message;
  out += " [" + diagnostic.rule + "]";
  return out;
}

std::string DiagnosticsToJson(const std::vector<Diagnostic>& diagnostics) {
  std::string json = "[";
  for (size_t i = 0; i < diagnostics.size(); ++i) {
    const Diagnostic& d = diagnostics[i];
    if (i > 0) {
      json += ",";
    }
    json += "\n  {\"rule\": \"" + JsonEscape(d.rule) + "\", \"severity\": \"";
    json += SeverityToString(d.severity);
    json += "\", \"message\": \"" + JsonEscape(d.message) + "\"";
    json += ", \"entities\": [";
    for (size_t k = 0; k < d.entities.size(); ++k) {
      if (k > 0) {
        json += ", ";
      }
      json += "\"" + JsonEscape(d.entities[k]) + "\"";
    }
    json += "]";
    if (d.location.IsKnown()) {
      json += ", \"line\": " + std::to_string(d.location.line) +
              ", \"column\": " + std::to_string(d.location.column);
    }
    json += "}";
  }
  json += diagnostics.empty() ? "]" : "\n]";
  return json;
}

bool HasErrors(const std::vector<Diagnostic>& diagnostics) {
  for (const Diagnostic& diagnostic : diagnostics) {
    if (diagnostic.severity == Severity::kError) {
      return true;
    }
  }
  return false;
}

}  // namespace crsat
