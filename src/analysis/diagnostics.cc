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
  JsonWriter json;
  json.BeginArray(JsonLayout::kMultiLine);
  for (const Diagnostic& d : diagnostics) {
    json.BeginObject().Member("rule", d.rule);
    json.Member("severity", SeverityToString(d.severity));
    json.Member("message", d.message).Key("entities").BeginArray();
    for (const std::string& entity : d.entities) {
      json.Value(entity);
    }
    json.End();
    if (d.location.IsKnown()) {
      json.Member("line", d.location.line).Member("column", d.location.column);
    }
    json.End();
  }
  return json.End().str();
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
