#include "src/server/handlers.h"

#include <optional>
#include <string>
#include <utility>

#include "src/commands/commands.h"
#include "src/cr/schema_text.h"

namespace crsat {
namespace server {

namespace {

HandlerResult BadRequest(std::string reason) {
  if (reason.empty() || reason.back() != '\n') {
    reason += '\n';
  }
  return {ResponseStatus::kBadRequest, std::move(reason)};
}

HandlerResult HandleParse(Session& session, const std::string& payload) {
  // Payload: "<display-name>\n<schema DSL text>".
  const std::size_t newline = payload.find('\n');
  if (newline == std::string::npos) {
    return BadRequest(
        "malformed parse payload: expected \"<display-name>\\n<schema "
        "text>\"");
  }
  // Replace whatever the session held; later requests run against this.
  // The raw text is kept even when the strict parse fails: lint runs on
  // a lenient re-parse (the one-shot CLI lints schemas `check` refuses,
  // e.g. ones with empty cardinality ranges).
  session.display_name = payload.substr(0, newline);
  session.schema_text = payload.substr(newline + 1);
  session.text_loaded = true;
  session.analysis.reset();
  session.schema.reset();
  Result<NamedSchema> parsed = ParseSchema(session.schema_text);
  if (!parsed.ok()) {
    // Mirrors `crsat_cli check <bad-schema>`: the parse error text with
    // the findings exit code. The session still lints.
    return {ResponseStatus::kFindings, parsed.status().ToString() + "\n"};
  }
  const std::string name = parsed->name;
  session.schema.emplace(std::move(parsed.value()));
  session.analysis.emplace(session.schema->schema,
                           /*witness_may_follow=*/true);
  return {ResponseStatus::kOk, "parsed schema '" + name + "'\n"};
}

}  // namespace

HandlerResult FromCommand(commands::CommandResult result) {
  switch (result.exit_code) {
    case commands::kExitOk:
      return {ResponseStatus::kOk, std::move(result.out)};
    case commands::kExitFindings:
      return {ResponseStatus::kFindings, std::move(result.out)};
    case commands::kExitUsage:
      return {ResponseStatus::kBadRequest, std::move(result.err)};
    default:
      return {ResponseStatus::kResource,
              std::move(result.err.empty() ? result.out : result.err)};
  }
}

HandlerResult HandleRequest(Session& session, const Frame& request,
                            const ResourceLimits& caps) {
  const RequestType type = request.request_type();
  if (type == RequestType::kParse) {
    return HandleParse(session, request.payload);
  }
  // Lint needs only the stored text (lenient re-parse); everything else
  // needs the strictly-parsed schema.
  if (type == RequestType::kLint ? !session.text_loaded
                                 : !session.schema.has_value()) {
    return BadRequest(
        "no schema on this session (send a parse request first)");
  }
  // A guard only exists when some limit is effective — a null guard is
  // the zero-overhead "unlimited" convention of the whole pipeline.
  const ResourceLimits limits = ClampBudget(request, caps);
  const bool limited = limits.timeout.has_value() ||
                       limits.max_compounds.has_value() ||
                       limits.max_memory_bytes.has_value();
  std::optional<ResourceGuard> guard;
  if (limited) {
    guard.emplace(limits);
  }
  ResourceGuard* guard_ptr = guard.has_value() ? &*guard : nullptr;
  switch (type) {
    case RequestType::kCheck:
      return FromCommand(commands::Check(*session.schema, *session.analysis,
                                         /*json=*/false,
                                         /*witness_mode=*/"", guard_ptr));
    case RequestType::kWitness: {
      const std::string mode =
          request.payload.empty() ? "text" : request.payload;
      if (!commands::IsWitnessMode(mode)) {
        return BadRequest("witness mode must be text, json or dot");
      }
      return FromCommand(commands::Check(*session.schema, *session.analysis,
                                         /*json=*/false, mode, guard_ptr));
    }
    case RequestType::kLint:
      if (!request.payload.empty() && request.payload != "json") {
        return BadRequest("lint payload must be empty or \"json\"");
      }
      return FromCommand(commands::Lint(session.display_name,
                                        session.schema_text,
                                        request.payload == "json", guard_ptr));
    case RequestType::kImplications:
      return FromCommand(
          commands::Implies(*session.analysis, request.payload, guard_ptr));
    case RequestType::kParse:
    case RequestType::kStats:
    case RequestType::kShutdown:
      break;  // kParse handled above; the rest are service-level.
  }
  return BadRequest("request type is not a session request");
}

}  // namespace server
}  // namespace crsat
