#ifndef CRSAT_COMMANDS_COMMANDS_H_
#define CRSAT_COMMANDS_COMMANDS_H_

#include <string>
#include <string_view>

#include "src/base/resource_guard.h"
#include "src/commands/analysis.h"
#include "src/cr/schema.h"
#include "src/cr/schema_text.h"

namespace crsat {
namespace commands {

/// The request pipeline shared by `crsat_cli` and crsatd: the verbs both
/// front ends serve (check, check --witness, lint, implies), each run to
/// completion and returned as the exact bytes of both output streams.
/// `crsat_cli` prints `out` to stdout and `err` to stderr and exits with
/// `exit_code`; crsatd maps the same result onto a response frame
/// (src/server/handlers.h). Neither front end formats a verdict itself,
/// so their outputs cannot drift apart.
///
/// The verbs read the process-wide solver counters (`check --json`
/// reports them) but never reset them: resetting is the one-shot CLI's
/// business, and inside crsatd a reset would corrupt concurrent requests.

/// The CLI exit-code contract.
constexpr int kExitOk = 0;        // Success, no adverse findings.
constexpr int kExitFindings = 1;  // Unsat classes, lint errors, failures.
constexpr int kExitUsage = 2;     // Bad command line or request.
constexpr int kExitResource = 3;  // A resource limit tripped.

struct CommandResult {
  int exit_code = kExitOk;
  std::string out;  // Exact stdout text.
  std::string err;  // Exact stderr text.
};

/// True for the witness renderers `check --witness=MODE` accepts:
/// "text", "json" and "dot".
bool IsWitnessMode(std::string_view mode);

/// `check`: finite satisfiability of every class (Theorem 3.3), read
/// from `analysis`, which must be the analysis of `parsed.schema`.
/// ISA-free schemas take the Lenzerini-Nobili fast path; everything else
/// uses the analysis's checker, built under `guard` (may be null) unless
/// an earlier request built it. A non-empty `witness_mode` (see
/// `IsWitnessMode`) also synthesizes a certified finite model (§3.3,
/// Figure 6) under `guard`; a resource limit tripped during synthesis
/// keeps the verdict and its exit code and reports the trip in place of
/// the witness. `json` selects the machine-readable report.
CommandResult Check(const NamedSchema& parsed, Analysis& analysis, bool json,
                    std::string_view witness_mode, ResourceGuard* guard);

/// `lint`: structural diagnostics over `schema_text`, parsed leniently so
/// empty cardinality ranges reach the empty-range rule. Diagnostics
/// carry source positions prefixed with `display_name`. Exit 1 when any
/// error-severity finding is reported, 3 when `guard` trips before every
/// rule ran.
CommandResult Lint(const std::string& display_name,
                   std::string_view schema_text, bool json,
                   ResourceGuard* guard);

/// `implies` (§4) over `analysis.schema()`: `words` is
/// "isa <Sub> <Super>" or "card <Class> <Rel> <Role>", whitespace-separated.
/// `isa` is a lookup on the analysis's support; `card` runs its own
/// engine, because it extends the schema with `Cexc`. A wrong word count,
/// an unknown name, or a query the implication checker rejects as invalid
/// for this schema is exit 2 with the reason on stderr. The query runs
/// under `guard` (may be null); a trip is exit 3 with the trip report.
CommandResult Implies(Analysis& analysis, std::string_view words,
                      ResourceGuard* guard);

}  // namespace commands
}  // namespace crsat

#endif  // CRSAT_COMMANDS_COMMANDS_H_
