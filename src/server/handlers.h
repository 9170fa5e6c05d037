#ifndef CRSAT_SERVER_HANDLERS_H_
#define CRSAT_SERVER_HANDLERS_H_

#include <string>

#include "src/base/resource_guard.h"
#include "src/commands/commands.h"
#include "src/server/protocol.h"
#include "src/server/session.h"

namespace crsat {
namespace server {

/// Outcome of one schema request: the response status byte plus the
/// response payload (see `HandleRequest` for what the payload holds).
struct HandlerResult {
  ResponseStatus status = ResponseStatus::kOk;
  std::string payload;
};

/// Executes one schema-level request (`parse`, `check`, `lint`,
/// `implications`, `witness`) against `session`, under a per-request
/// `ResourceGuard` built from the frame's budget headers clamped by the
/// server-wide `caps` (protocol.h `ClampBudget`).
///
/// `check`, `witness`, `lint` and `implications` run the verbs of
/// src/commands/commands.h, the same functions `crsat_cli` runs for
/// `check [--witness=M]`, `lint [--json]` and `implies`. The verb's exit
/// code picks the status and its output streams the payload:
///
///   exit 0 -> kOk,         payload = stdout text
///   exit 1 -> kFindings,   payload = stdout text
///   exit 2 -> kBadRequest, payload = stderr text
///   exit 3 -> kResource,   payload = stderr text, or stdout when the
///                          verb wrote its trip report there (`lint`
///                          with the "json" payload)
///
/// So a kOk/kFindings payload is byte-identical to the one-shot CLI's
/// stdout by construction (tests/server_test.cc, tools/server_smoke.sh).
/// Stderr notes beside a verdict, such as a witness dropped by a resource
/// limit, and the text of a failure the CLI reports only on stderr, are
/// not carried: such a failure arrives as kFindings with an empty
/// payload. A guard trip is kResource, the degradation ladder's honest
/// UNKNOWN, never a guessed verdict.
///
/// `check`, `witness` and `implications isa` read the session's
/// `commands::Analysis`, so the expansion and the maximal acceptable
/// support are computed once per parsed schema; each request still runs
/// under its own guard (see `commands::Analysis` for the budget rule).
///
/// `stats` and `shutdown` are service-level requests handled by the
/// server itself, not here; routing one in returns kBadRequest.
HandlerResult HandleRequest(Session& session, const Frame& request,
                            const ResourceLimits& caps);

/// The exit-code -> status/payload mapping above, applied to one verb's
/// result. Exposed so a caller can compute a reply without a session, as
/// bench_server's one-shot references do.
HandlerResult FromCommand(commands::CommandResult result);

}  // namespace server
}  // namespace crsat

#endif  // CRSAT_SERVER_HANDLERS_H_
