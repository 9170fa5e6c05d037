#ifndef CRSAT_SERVER_SESSION_H_
#define CRSAT_SERVER_SESSION_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

#include "src/commands/analysis.h"
#include "src/cr/schema_text.h"

namespace crsat {
namespace server {

/// Per-connection session state: the reason crsatd exists. A client pays
/// `ParseSchema` once (kParse) and then issues many queries against the
/// stored `NamedSchema` over the same connection, and the session's
/// `commands::Analysis` computes the expansion and the maximal acceptable
/// support at most once for all of them.
///
/// Concurrency contract: the scheduler (src/server/scheduler.h)
/// dispatches at most ONE request per session at a time, and every
/// dispatch/completion transition goes through the scheduler mutex — so
/// the fields below are accessed serially with happens-before edges
/// between consecutive requests, and need no lock of their own. The
/// counters are atomics only because the `stats` handler may snapshot
/// them from another session's request.
struct Session {
  explicit Session(std::uint64_t session_id) : id(session_id) {}

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  const std::uint64_t id;

  /// The strictly-parsed schema (set by a successful kParse, replaced
  /// by the next). Absent until the first successful parse;
  /// schema-dependent requests on a schema-less session are
  /// kBadRequest.
  std::optional<NamedSchema> schema;
  /// The analysis of `schema` (present exactly when `schema` is), shared
  /// by check, witness and `implies isa`. Declared after `schema`, which
  /// it points into, so it is destroyed first; a parse resets it before
  /// replacing the schema. It holds no request's guard.
  std::optional<commands::Analysis> analysis;
  /// The raw DSL text of the last kParse — stored even when the strict
  /// parse failed, because lint works on a *leniently* re-parsed schema
  /// (permit_empty_ranges) exactly as `crsat_cli lint` does, so lint
  /// diagnostics stay byte-identical to the one-shot CLI.
  std::string schema_text;
  /// True once any kParse stored `schema_text` (distinguishes "no parse
  /// yet" from an empty schema file).
  bool text_loaded = false;
  /// Client-supplied display name (its local path), used verbatim when
  /// rendering source-mapped diagnostics.
  std::string display_name;

  /// Requests fully served on this session (responses written).
  std::atomic<std::uint64_t> requests_served{0};
  /// Requests shed by admission control on this session.
  std::atomic<std::uint64_t> requests_shed{0};
};

}  // namespace server
}  // namespace crsat

#endif  // CRSAT_SERVER_SESSION_H_
