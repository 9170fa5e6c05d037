// crsat_cli — command-line front end for the reasoner.
//
// Exit codes: 0 = success, 1 = findings (unsatisfiable classes,
// lint errors, state violations) or a runtime failure, 2 = usage error,
// 3 = a resource limit tripped (see --timeout-ms & friends).
//
// Usage:
//   crsat_cli check <schema-file> [--threads N] [--json]
//                   [--witness[=text|json|dot]]
//                   [--timeout-ms N] [--max-compounds N] [--max-memory-mb N]
//       satisfiability of every class; --threads sets the reasoning
//       pool's parallelism (0 = auto: CRSAT_THREADS or the hardware),
//       --json emits a machine-readable report including the effective
//       thread count, per-invocation solver stats, and (when any limit
//       flag is given) the final resource counters. The limit flags bound
//       the run: wall clock, compound objects materialized by the
//       expansion, approximate instrumented memory. A tripped limit
//       aborts cleanly with a structured report and exit code 3.
//       --witness additionally synthesizes a ModelChecker-certified
//       finite model populating every satisfiable class (src/witness/),
//       rendered as text, JSON, or Graphviz DOT; with --json the witness
//       is embedded in the report. Synthesis runs under the same resource
//       limits as the check: a limit tripped *during synthesis* keeps the
//       satisfiability verdict (and its exit code) and reports the trip
//       in place of the witness.
//   crsat_cli expand <schema-file>       print the expansion (Figure 4 style)
//   crsat_cli system <schema-file>       print the disequation system
//   crsat_cli model <schema-file> <Class>    materialize + print a model
//   crsat_cli debug <schema-file> <Class>    minimal unsat core
//   crsat_cli implies <schema-file> isa <Sub> <Super>
//   crsat_cli implies <schema-file> card <Class> <Rel> <Role>
//       (prints the tightest implied (min, max) for the triple). A wrong
//       word count, an unknown class, relationship or role, or a query
//       that does not fit the schema (role outside the relationship,
//       unsatisfiable class) exits 2 with the reason on stderr, exactly
//       like `client ... implies`; it used to exit 1.
//   crsat_cli checkstate <schema-file> <state-file>
//       (integrity check: is the database state a model of the schema?)
//   crsat_cli report <schema-file>   implied-cardinality table (Figure 7
//                                    generalized to every legal triple)
//   crsat_cli dot <schema-file>      Graphviz ER diagram on stdout
//   crsat_cli lint <schema-file> [--json]
//                  [--timeout-ms N] [--max-compounds N] [--max-memory-mb N]
//       structural diagnostics (no expansion/LP): ISA cycles, conflicting
//       or empty cardinality ranges, redundant ISA edges, unreferenced
//       entities, trivially-empty relationships. Exits 1 when any
//       error-severity finding is reported, 3 when a resource limit
//       tripped before every rule ran.
//   crsat_cli conform [--seeds N] [--seed-start S] [--bound K]
//                     [--tuple-bound T] [--classes N] [--relationships N]
//                     [--json] [--no-baseline] [--no-metamorphic]
//                     [--no-minimize] [--dump-dir DIR]
//       differential conformance sweep: for each generator seed, the
//       production reasoner is cross-checked against a brute-force
//       bounded oracle (domain size <= K), the Lenzerini-Nobili baseline
//       on ISA-free siblings, its own verdicts under metamorphic schema
//       rewrites, and its certified witnesses. Exits 1 if any
//       disagreement is found; each disagreeing schema is minimized and
//       printed (and written under --dump-dir when given).
//   crsat_cli conform --chaos-seeds N [--chaos-start S] [--classes N]
//                     [--relationships N] [--json] [--dump-dir DIR]
//       chaos conformance sweep (DESIGN.md §14): each seed's schema is
//       checked fault-free, then re-checked under a seed-derived random
//       failpoint schedule. A faulted run must return the identical
//       verdicts or degrade to a resource-status UNKNOWN; any other
//       outcome is a verdict flip, reported with the CRSAT_FAILPOINTS
//       string that replays it. Exits 1 on any flip.
//   crsat_cli serve (--port N | --unix-socket PATH) [--threads N]
//                   [--timeout-ms N] [--max-compounds N] [--max-memory-mb N]
//                   [--max-queued N] [--max-queued-per-lane N]
//       crsatd: the concurrent reasoning service (DESIGN.md §15).
//       Listens on 127.0.0.1:<port> (0 = ephemeral, the bound port is
//       printed) or an AF_UNIX socket; each connection is a session
//       holding one parsed schema; requests run on the reasoning pool
//       behind admission control and fair queueing. The limit
//       flags become server-wide caps clamping every request's budget
//       headers. SIGTERM/SIGINT (or a client `shutdown`) drains
//       gracefully: in-flight requests finish, new ones are refused.
//   crsat_cli client (--port N | --unix-socket PATH)
//                    [--timeout-ms N] [--max-compounds N] [--max-memory-mb N]
//                    check <schema-file>
//                  | lint <schema-file> [--json]
//                  | witness <schema-file> [text|json|dot]
//                  | implies <schema-file> isa <Sub> <Super>
//                  | implies <schema-file> card <Class> <Rel> <Role>
//                  | stats
//                  | shutdown
//       one-shot client for crsatd: parses the schema into the session,
//       issues the request, prints the response payload (stdout for
//       ok/findings, stderr otherwise) and exits with the CLI contract
//       (0/1/2/3; load-shed and draining refusals map to 3). The limit
//       flags ride in the request's budget headers. check, lint, witness
//       and implies run the same src/commands/ verbs as the one-shot
//       commands, so verdict output is byte-identical to them.
//
// Fault injection: every command honors CRSAT_FAILPOINTS (grammar in
// src/base/failpoint.h), arming deterministic failures on the recovery
// seams. A simulated allocation failure surfaces as exit code 3, like
// any other resource limit.
//
// Schema files use the DSL documented in src/cr/schema_text.h; state
// files the DSL in src/cr/state_text.h. Samples live in
// examples/schemas/.

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <new>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include "src/base/json.h"
#include "src/commands/commands.h"
#include "src/crsat.h"
#include "src/server/client.h"
#include "src/server/server.h"

namespace {

// Distinct exit codes so scripts can tell outcomes apart.
using crsat::commands::kExitFindings;
using crsat::commands::kExitOk;
using crsat::commands::kExitResource;
using crsat::commands::kExitUsage;

int Usage() {
  std::cerr
      << "usage:\n"
         "  crsat_cli check  <schema-file> [--threads N] [--json]\n"
         "                   [--witness[=text|json|dot]] "
         "[--backend=reasoner|saturation]\n"
         "                   [--timeout-ms N] [--max-compounds N] "
         "[--max-memory-mb N]\n"
         "  crsat_cli expand <schema-file>\n"
         "  crsat_cli system <schema-file>\n"
         "  crsat_cli model  <schema-file> <Class>\n"
         "  crsat_cli debug  <schema-file> <Class>\n"
         "  crsat_cli implies <schema-file> isa <Sub> <Super>\n"
         "  crsat_cli implies <schema-file> card <Class> <Rel> <Role>\n"
         "  crsat_cli checkstate <schema-file> <state-file>\n"
         "  crsat_cli report <schema-file>\n"
         "  crsat_cli dot <schema-file>\n"
         "  crsat_cli lint <schema-file> [--json]\n"
         "                 [--timeout-ms N] [--max-compounds N] "
         "[--max-memory-mb N]\n"
         "  crsat_cli conform [--seeds N] [--seed-start S] [--bound K]\n"
         "                    [--tuple-bound T] [--classes N] "
         "[--relationships N]\n"
         "                    [--engines reasoner[,oracle][,saturation]]\n"
         "                    [--json] [--no-baseline] [--no-metamorphic]\n"
         "                    [--no-minimize] [--dump-dir DIR]\n"
         "  crsat_cli conform --chaos-seeds N [--chaos-start S] "
         "[--classes N]\n"
         "                    [--relationships N] [--json] [--dump-dir "
         "DIR]\n"
         "  crsat_cli serve (--port N | --unix-socket PATH) [--threads N]\n"
         "                  [--timeout-ms N] [--max-compounds N] "
         "[--max-memory-mb N]\n"
         "                  [--max-queued N] [--max-queued-per-lane N]\n"
         "  crsat_cli client (--port N | --unix-socket PATH) [limit "
         "flags]\n"
         "                   check|lint|witness|implies|stats|shutdown "
         "...\n"
         "exit codes: 0 ok, 1 findings/failure, 2 usage, 3 resource limit\n";
  return kExitUsage;
}

crsat::Result<std::string> ReadFile(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    return crsat::NotFoundError("cannot open file '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

crsat::Result<crsat::NamedSchema> LoadSchema(const std::string& path) {
  crsat::Result<std::string> text = ReadFile(path);
  if (!text.ok()) {
    return text.status();
  }
  return crsat::ParseSchema(*text);
}

int RunCheckState(const crsat::NamedSchema& parsed,
                  const std::string& state_path) {
  crsat::Result<std::string> text = ReadFile(state_path);
  if (!text.ok()) {
    std::cerr << text.status() << "\n";
    return EXIT_FAILURE;
  }
  crsat::Result<crsat::NamedState> state =
      crsat::ParseState(*text, parsed.schema);
  if (!state.ok()) {
    std::cerr << state.status() << "\n";
    return EXIT_FAILURE;
  }
  if (state->schema_name != parsed.name) {
    std::cerr << "warning: state declares schema '" << state->schema_name
              << "' but the loaded schema is '" << parsed.name << "'\n";
  }
  std::vector<std::string> violations =
      crsat::ModelChecker::Violations(parsed.schema, state->interpretation);
  if (violations.empty()) {
    std::cout << "state '" << state->name << "' is a model of schema '"
              << parsed.name << "' (" << state->interpretation.domain_size()
              << " individuals)\n";
    return EXIT_SUCCESS;
  }
  std::cout << "state '" << state->name << "' violates schema '"
            << parsed.name << "':\n";
  for (const std::string& violation : violations) {
    std::cout << "  - " << violation << "\n";
  }
  return EXIT_FAILURE;
}

crsat::Result<crsat::ClassId> ResolveClass(const crsat::Schema& schema,
                                           const std::string& name) {
  std::optional<crsat::ClassId> cls = schema.FindClass(name);
  if (!cls.has_value()) {
    return crsat::NotFoundError("no class named '" + name + "'");
  }
  return *cls;
}

// Shared flag state for the resource-bounded commands (check, lint).
struct GuardFlags {
  crsat::ResourceLimits limits;
  bool any = false;  // True when at least one limit flag was given.
  std::optional<crsat::ResourceGuard> guard;

  // The command's guard, started on first use; null when no limit flag
  // was given (the pipeline's zero-overhead "unlimited" convention).
  crsat::ResourceGuard* Guard() {
    if (any && !guard.has_value()) {
      guard.emplace(limits);
    }
    return guard.has_value() ? &*guard : nullptr;
  }
};

// Reads the value of the flag at argv[*i] as an integer >= `min_value`,
// advancing *i past it. False when the value is missing or malformed.
bool ParseLong(int argc, char** argv, int* i, long min_value, long* out) {
  if (*i + 1 >= argc) {
    return false;
  }
  char* end = nullptr;
  const long value = std::strtol(argv[++*i], &end, 10);
  if (end == nullptr || *end != '\0' || value < min_value) {
    return false;
  }
  *out = value;
  return true;
}

// Parses one `--timeout-ms/--max-compounds/--max-memory-mb N` pair at
// argv[i] (advancing i past the value). Returns false when `arg` is not a
// limit flag; `*bad` reports a malformed value.
bool ParseGuardFlag(const std::string& arg, int argc, char** argv, int* i,
                    GuardFlags* flags, bool* bad) {
  if (arg != "--timeout-ms" && arg != "--max-compounds" &&
      arg != "--max-memory-mb") {
    return false;
  }
  long value = 0;
  if (!ParseLong(argc, argv, i, 0, &value)) {
    *bad = true;
    return true;
  }
  if (arg == "--timeout-ms") {
    flags->limits.timeout = std::chrono::milliseconds(value);
  } else if (arg == "--max-compounds") {
    flags->limits.max_compounds = static_cast<std::uint64_t>(value);
  } else {
    flags->limits.max_memory_bytes =
        static_cast<std::uint64_t>(value) * 1024 * 1024;
  }
  flags->any = true;
  return true;
}

// Zeroes every per-invocation counter family that `check --json`
// reports, so the report covers exactly one run. Only the one-shot CLI
// may do this: inside crsatd a reset would corrupt concurrent requests.
void ResetAllStats() {
  crsat::GetSimplexStats().Reset();
  crsat::GetImplicationStats().Reset();
  crsat::GetExpansionStats().Reset();
  crsat::GetFastPathStats().Reset();
  crsat::GetRecoveryStats().Reset();
  crsat::ResetFailpointCounters();
}

// `check --backend=saturation`: classical (unrestricted-model) verdicts
// from the graph-saturation engine, next to the reasoner's finite-model
// semantics. "sat-with-reuse" means the only witness found is cyclic —
// on a schema the reasoner rejects, that contrast is the paper's
// finitely-unsat phenomenon, not a bug. Exit codes follow the verdict
// lattice: 0 when every class has some classical model (finite or
// cyclic), 1 when any class is classically unsatisfiable, 3 when any
// verdict is unknown (budget exhausted or guard trip).
int RunSaturationCheck(const crsat::NamedSchema& parsed, bool json,
                       crsat::ResourceGuard* guard) {
  const crsat::Schema& schema = parsed.schema;
  crsat::SaturationOptions options;
  options.guard = guard;
  crsat::SaturationReport report =
      crsat::SaturationEngine::Decide(schema, options);
  bool any_unsat = false;
  bool any_unknown = false;
  for (const crsat::SaturationClassResult& result : report.classes) {
    any_unsat =
        any_unsat || result.verdict == crsat::SaturationVerdict::kUnsat;
    any_unknown =
        any_unknown || result.verdict == crsat::SaturationVerdict::kUnknown;
  }
  if (json) {
    constexpr crsat::JsonLayout kMultiLine = crsat::JsonLayout::kMultiLine;
    crsat::JsonWriter out;
    out.BeginObject(kMultiLine).Member("schema", parsed.name);
    out.Member("backend", "saturation");
    out.Key("classes").BeginArray(kMultiLine);
    for (const crsat::SaturationClassResult& result : report.classes) {
      out.BeginObject().Member("name", schema.ClassName(result.cls));
      out.Member("verdict", crsat::SaturationVerdictToString(result.verdict));
      if (!result.unknown_reason.empty()) {
        out.Member("unknown_reason", result.unknown_reason);
      }
      out.End();
    }
    out.End().Member("templates_created", report.templates_created);
    out.Member("blocked_edges", report.blocked_edges);
    out.Member("individuals_reused", report.individuals_reused);
    out.Member("individuals_spawned", report.individuals_spawned);
    if (guard != nullptr) {
      out.Key("resource").Raw(guard->report().ToJson());
    }
    std::cout << out.End().str() << "\n";
  } else {
    std::cout << report.Summary(schema);
    if (any_unknown && guard != nullptr && guard->tripped()) {
      std::cerr << guard->report().ToString() << "\n";
    }
  }
  if (any_unknown) {
    return kExitResource;
  }
  return any_unsat ? kExitFindings : kExitOk;
}

// Prints a shared verb's output streams and returns its exit code.
int Print(const crsat::commands::CommandResult& result) {
  std::cout << result.out;
  std::cerr << result.err;
  return result.exit_code;
}

// argv[first..argc) joined by single spaces: the word list `implies`
// takes on both the one-shot and the client path.
std::string JoinArgs(int first, int argc, char** argv) {
  std::string words;
  for (int i = first; i < argc; ++i) {
    if (i > first) {
      words += ' ';
    }
    words += argv[i];
  }
  return words;
}

int RunModel(const crsat::Schema& schema, const std::string& class_name) {
  crsat::Result<crsat::ClassId> cls = ResolveClass(schema, class_name);
  if (!cls.ok()) {
    std::cerr << cls.status() << "\n";
    return EXIT_FAILURE;
  }
  crsat::Result<crsat::Expansion> expansion = crsat::Expansion::Build(schema);
  if (!expansion.ok()) {
    std::cerr << expansion.status() << "\n";
    return EXIT_FAILURE;
  }
  crsat::SatisfiabilityChecker checker(*expansion);
  crsat::Result<bool> satisfiable = checker.IsClassSatisfiable(*cls);
  if (!satisfiable.ok()) {
    std::cerr << satisfiable.status() << "\n";
    return EXIT_FAILURE;
  }
  if (!*satisfiable) {
    std::cerr << crsat::InvalidArgumentError(
                     "class '" + class_name +
                     "' is unsatisfiable; no model can populate it")
              << "\n";
    return EXIT_FAILURE;
  }
  // The synthesized witness populates every satisfiable class, `cls`
  // included.
  crsat::Result<crsat::CertifiedWitness> witness =
      crsat::WitnessSynthesizer(checker).Synthesize();
  if (!witness.ok()) {
    std::cerr << witness.status() << "\n";
    return EXIT_FAILURE;
  }
  std::cout << witness->interpretation().ToString();
  return EXIT_SUCCESS;
}

int RunDebug(const crsat::Schema& schema, const std::string& class_name) {
  crsat::Result<crsat::ClassId> cls = ResolveClass(schema, class_name);
  if (!cls.ok()) {
    std::cerr << cls.status() << "\n";
    return EXIT_FAILURE;
  }
  crsat::Result<crsat::UnsatCore> core = crsat::MinimizeUnsatCore(schema, *cls);
  if (!core.ok()) {
    std::cerr << core.status() << "\n";
    return EXIT_FAILURE;
  }
  std::cout << "class '" << class_name
            << "' is unsatisfiable; minimal explanation ("
            << core->constraints.size() << " constraints):\n";
  for (const crsat::CoreConstraint& constraint : core->constraints) {
    std::cout << "  - " << constraint.description << "\n";
  }
  crsat::Result<std::vector<crsat::RepairSuggestion>> repairs =
      crsat::SuggestRepairs(schema, *cls, *core);
  if (repairs.ok() && !repairs->empty()) {
    std::cout << "smallest single-constraint repairs:\n";
    for (const crsat::RepairSuggestion& suggestion : *repairs) {
      std::cout << "  * " << suggestion.description << "\n";
    }
  }
  return EXIT_SUCCESS;
}

// Differential conformance sweep (src/oracle/): generated schemas, the
// production reasoner cross-checked against the brute-force oracle, the
// LN baseline, metamorphic contracts and certified witnesses. Exits 1
// when any disagreement is found. `--dump-dir` writes each disagreeing
// schema (and its minimized form) as .schema files for artifact upload.
// Chaos sweep (`conform --chaos-seeds N`): fault-free verdicts vs the
// same pipeline under seed-derived failpoint schedules. Exits 1 when any
// faulted run produced a *different answer* (as opposed to an honest
// resource-status UNKNOWN). `--dump-dir` writes each flipping schema as
// a .schema file next to a .faults file holding the replaying
// CRSAT_FAILPOINTS string.
int RunChaos(const crsat::ChaosConformanceOptions& options, bool json,
             const std::string& dump_dir) {
  ResetAllStats();
  crsat::Result<crsat::ChaosReport> report =
      crsat::RunChaosConformance(options);
  if (!report.ok()) {
    std::cerr << report.status() << "\n";
    return crsat::IsResourceLimitStatus(report.status().code())
               ? kExitResource
               : kExitFindings;
  }
  if (!dump_dir.empty()) {
    int index = 0;
    for (const crsat::ChaosVerdictFlip& flip : report->flips) {
      const std::string stem = dump_dir + "/flip_" +
                               std::to_string(index++) + "_seed" +
                               std::to_string(flip.seed);
      std::ofstream(stem + ".schema") << flip.schema_text;
      std::ofstream(stem + ".faults") << flip.fault_schedule << "\n";
    }
  }
  if (json) {
    std::cout << report->ToJson() << "\n";
  } else {
    std::cout << report->Summary() << "\n";
    for (const crsat::ChaosVerdictFlip& flip : report->flips) {
      std::cout << "\nseed " << flip.seed << " [" << flip.kind << "]"
                << (flip.class_name.empty() ? "" : " class " + flip.class_name)
                << ": " << flip.detail << "\n  replay: CRSAT_FAILPOINTS=\""
                << flip.fault_schedule << "\"\n"
                << flip.schema_text;
    }
  }
  return report->flips.empty() ? kExitOk : kExitFindings;
}

int RunConform(int argc, char** argv) {
  crsat::ConformanceOptions options;
  crsat::ChaosConformanceOptions chaos_options;
  long chaos_seeds = 0;
  bool json = false;
  std::string dump_dir;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    long value = 0;
    if (arg == "--json") {
      json = true;
    } else if (arg == "--seeds" && ParseLong(argc, argv, &i, 1, &value)) {
      options.num_seeds = static_cast<int>(value);
    } else if (arg == "--seed-start" && ParseLong(argc, argv, &i, 0, &value)) {
      options.first_seed = static_cast<std::uint32_t>(value);
    } else if (arg == "--bound" && ParseLong(argc, argv, &i, 1, &value)) {
      options.oracle.max_domain = static_cast<int>(value);
    } else if (arg == "--tuple-bound" && ParseLong(argc, argv, &i, 1, &value)) {
      options.oracle.max_tuples_per_relationship =
          static_cast<std::uint64_t>(value);
    } else if (arg == "--classes" && ParseLong(argc, argv, &i, 1, &value)) {
      options.num_classes = static_cast<int>(value);
    } else if (arg == "--relationships" &&
               ParseLong(argc, argv, &i, 0, &value)) {
      options.num_relationships = static_cast<int>(value);
    } else if (arg == "--engines" && i + 1 < argc) {
      // The comma list selects which independent engines vote alongside
      // the reasoner. The reasoner is the engine under test and must be
      // listed; omitting "oracle" or "saturation" disables that voter.
      options.check_oracle = false;
      options.check_saturation = false;
      bool reasoner_listed = false;
      const std::string list = argv[++i];
      std::size_t start = 0;
      while (start <= list.size()) {
        const std::size_t comma = list.find(',', start);
        const std::string engine =
            comma == std::string::npos ? list.substr(start)
                                       : list.substr(start, comma - start);
        if (engine == "reasoner") {
          reasoner_listed = true;
        } else if (engine == "oracle") {
          options.check_oracle = true;
        } else if (engine == "saturation") {
          options.check_saturation = true;
        } else {
          return Usage();
        }
        if (comma == std::string::npos) {
          break;
        }
        start = comma + 1;
      }
      if (!reasoner_listed) {
        return Usage();
      }
    } else if (arg == "--no-baseline") {
      options.check_baseline = false;
    } else if (arg == "--no-metamorphic") {
      options.check_metamorphic = false;
    } else if (arg == "--no-minimize") {
      options.minimize = false;
    } else if (arg == "--dump-dir" && i + 1 < argc) {
      dump_dir = argv[++i];
    } else if (arg == "--chaos-seeds" && ParseLong(argc, argv, &i, 1, &value)) {
      chaos_seeds = value;
    } else if (arg == "--chaos-start" && ParseLong(argc, argv, &i, 0, &value)) {
      chaos_options.first_seed = static_cast<std::uint32_t>(value);
    } else {
      return Usage();
    }
  }
  if (chaos_seeds > 0) {
    chaos_options.num_seeds = static_cast<int>(chaos_seeds);
    chaos_options.num_classes = options.num_classes;
    chaos_options.num_relationships = options.num_relationships;
    return RunChaos(chaos_options, json, dump_dir);
  }
  // Start counters from zero so the report's stats block covers exactly
  // this sweep.
  ResetAllStats();
  crsat::Result<crsat::ConformanceReport> report =
      crsat::RunConformance(options);
  if (!report.ok()) {
    std::cerr << report.status() << "\n";
    return crsat::IsResourceLimitStatus(report.status().code())
               ? kExitResource
               : kExitFindings;
  }
  if (!dump_dir.empty()) {
    int index = 0;
    for (const crsat::ConformanceDisagreement& d : report->disagreements) {
      const std::string stem = dump_dir + "/disagreement_" +
                               std::to_string(index++) + "_seed" +
                               std::to_string(d.seed);
      std::ofstream(stem + ".schema") << d.schema_text;
      if (!d.minimized_schema_text.empty()) {
        std::ofstream(stem + ".min.schema") << d.minimized_schema_text;
      }
    }
  }
  if (json) {
    std::cout << report->ToJson() << "\n";
  } else {
    std::cout << report->Summary() << "\n";
    for (const crsat::ConformanceDisagreement& d : report->disagreements) {
      std::cout << "\nseed " << d.seed << " [" << d.kind << "] class "
                << d.class_name << ": " << d.detail << "\n"
                << (d.minimized_schema_text.empty()
                        ? d.schema_text
                        : d.minimized_schema_text);
    }
  }
  return report->disagreements.empty() ? kExitOk : kExitFindings;
}

// Set by SIGTERM/SIGINT; the serve loop polls it and begins a graceful
// drain (async-signal-safe: the handler only writes the flag).
volatile std::sig_atomic_t g_shutdown_requested = 0;

void OnShutdownSignal(int /*signum*/) { g_shutdown_requested = 1; }

// `crsat_cli serve`: run crsatd until a signal or a client `shutdown`.
int RunServe(int argc, char** argv) {
  crsat::server::ServerOptions options;
  GuardFlags guard_flags;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    long value = 0;
    bool bad = false;
    if (arg == "--port" && ParseLong(argc, argv, &i, 0, &value)) {
      options.port = static_cast<int>(value);
    } else if (arg == "--unix-socket" && i + 1 < argc) {
      options.unix_socket = argv[++i];
    } else if (arg == "--threads" && ParseLong(argc, argv, &i, 0, &value)) {
      options.threads = static_cast<int>(value);
    } else if (arg == "--max-queued" && ParseLong(argc, argv, &i, 1, &value)) {
      options.scheduler.max_queued = static_cast<std::size_t>(value);
    } else if (arg == "--max-queued-per-lane" &&
               ParseLong(argc, argv, &i, 1, &value)) {
      options.scheduler.max_queued_per_lane =
          static_cast<std::size_t>(value);
    } else if (!ParseGuardFlag(arg, argc, argv, &i, &guard_flags, &bad) ||
               bad) {
      return Usage();
    }
  }
  options.caps = guard_flags.limits;
  crsat::server::Server server(options);
  const crsat::Status started = server.Start();
  if (!started.ok()) {
    std::cerr << started << "\n";
    return started.code() == crsat::StatusCode::kInvalidArgument
               ? kExitUsage
               : kExitFindings;
  }
  std::signal(SIGTERM, OnShutdownSignal);
  std::signal(SIGINT, OnShutdownSignal);
  // Readiness line: scripts wait for it, and the ephemeral-port form
  // (`--port 0`) is only knowable from it.
  std::cout << "crsatd listening on " << server.endpoint()
            << " (threads=" << crsat::GlobalThreadCount() << ")"
            << std::endl;
  while (g_shutdown_requested == 0 && !server.draining()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.BeginDrain();
  server.Wait();
  std::cout << "crsatd drained\n";
  return kExitOk;
}

// Maps a response status byte back onto the CLI exit contract: 0..3 pass
// through; service-level refusals are resource-family (3) except a
// framing error, which is a hard failure (1).
int ExitCodeForReply(crsat::server::ResponseStatus status) {
  switch (status) {
    case crsat::server::ResponseStatus::kOk:
      return kExitOk;
    case crsat::server::ResponseStatus::kFindings:
      return kExitFindings;
    case crsat::server::ResponseStatus::kBadRequest:
      return kExitUsage;
    case crsat::server::ResponseStatus::kResource:
    case crsat::server::ResponseStatus::kOverloaded:
    case crsat::server::ResponseStatus::kShuttingDown:
      return kExitResource;
    case crsat::server::ResponseStatus::kProtocolError:
      return kExitFindings;
  }
  return kExitFindings;
}

// Prints a reply the way the one-shot commands do: payload on stdout for
// ok/findings (where it is the byte-identical verdict text), stderr for
// every refusal.
int PrintReply(const crsat::server::Reply& reply) {
  if (reply.status == crsat::server::ResponseStatus::kOk ||
      reply.status == crsat::server::ResponseStatus::kFindings) {
    std::cout << reply.payload;
  } else {
    std::cerr << "crsatd: " << crsat::server::ResponseStatusToString(
                                   reply.status)
              << "\n"
              << reply.payload;
  }
  return ExitCodeForReply(reply.status);
}

// `crsat_cli client`: one request against a running crsatd.
int RunClient(int argc, char** argv) {
  int port = -1;
  std::string unix_socket;
  GuardFlags guard_flags;
  int i = 2;
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    bool bad = false;
    long value = 0;
    if (arg == "--port") {
      if (!ParseLong(argc, argv, &i, 1, &value) || value > 65535) {
        return Usage();
      }
      port = static_cast<int>(value);
    } else if (arg == "--unix-socket" && i + 1 < argc) {
      unix_socket = argv[++i];
    } else if (ParseGuardFlag(arg, argc, argv, &i, &guard_flags, &bad)) {
      if (bad) {
        return Usage();
      }
    } else {
      break;  // First positional: the client command.
    }
  }
  if (i >= argc || (port < 0) == unix_socket.empty()) {
    return Usage();
  }
  crsat::server::RequestBudget budget;
  if (guard_flags.limits.timeout.has_value()) {
    budget.deadline_ms =
        static_cast<std::uint32_t>(guard_flags.limits.timeout->count());
  }
  budget.max_compounds = guard_flags.limits.max_compounds.value_or(0);
  budget.max_memory_bytes = guard_flags.limits.max_memory_bytes.value_or(0);

  crsat::server::Client client;
  const crsat::Status connected =
      unix_socket.empty() ? client.ConnectTcp(port)
                          : client.ConnectUnix(unix_socket);
  if (!connected.ok()) {
    std::cerr << connected << "\n";
    return kExitFindings;
  }
  auto call = [&](crsat::server::RequestType type, std::string payload)
      -> crsat::Result<crsat::server::Reply> {
    return client.Call(type, std::move(payload), budget);
  };
  auto finish = [](crsat::Result<crsat::server::Reply> reply) {
    if (!reply.ok()) {
      std::cerr << reply.status() << "\n";
      return kExitFindings;
    }
    return PrintReply(*reply);
  };

  const std::string command = argv[i++];
  if (command == "stats") {
    return finish(call(crsat::server::RequestType::kStats, ""));
  }
  if (command == "shutdown") {
    return finish(call(crsat::server::RequestType::kShutdown, ""));
  }
  if (i >= argc) {
    return Usage();
  }
  const std::string schema_path = argv[i++];
  crsat::Result<std::string> text = ReadFile(schema_path);
  if (!text.ok()) {
    std::cerr << text.status() << "\n";
    return kExitFindings;
  }
  // The session's display name is the local path, so source-mapped lint
  // output matches the one-shot CLI byte for byte.
  crsat::Result<crsat::server::Reply> parsed =
      client.Parse(schema_path, *text);
  if (!parsed.ok()) {
    std::cerr << parsed.status() << "\n";
    return kExitFindings;
  }
  // `lint` tolerates a strict-parse failure: the server lints from a
  // lenient re-parse of the stored text, matching `crsat_cli lint` on a
  // schema that `check` refuses to load.
  if (parsed->status != crsat::server::ResponseStatus::kOk &&
      !(command == "lint" &&
        parsed->status == crsat::server::ResponseStatus::kFindings)) {
    std::cerr << parsed->payload;
    return ExitCodeForReply(parsed->status);
  }
  if (command == "check") {
    return finish(call(crsat::server::RequestType::kCheck, ""));
  }
  if (command == "lint") {
    std::string payload;
    if (i < argc && std::string(argv[i]) == "--json") {
      payload = "json";
      ++i;
    }
    if (i != argc) {
      return Usage();
    }
    crsat::Result<crsat::server::Reply> reply =
        call(crsat::server::RequestType::kLint, payload);
    // An empty findings payload means even the lenient re-parse failed;
    // like the one-shot CLI, the parse error goes to stderr, not stdout
    // (the parse reply recorded the strict-parse diagnostics).
    if (reply.ok() &&
        reply->status == crsat::server::ResponseStatus::kFindings &&
        reply->payload.empty()) {
      std::cerr << parsed->payload;
    }
    return finish(std::move(reply));
  }
  if (command == "witness") {
    std::string mode;
    if (i < argc) {
      mode = argv[i++];
      if (!crsat::commands::IsWitnessMode(mode)) {
        return Usage();
      }
    }
    if (i != argc) {
      return Usage();
    }
    return finish(call(crsat::server::RequestType::kWitness, mode));
  }
  if (command == "implies") {
    return finish(call(crsat::server::RequestType::kImplications,
                       JoinArgs(i, argc, argv)));
  }
  return Usage();
}

int RealMain(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  const std::string command = argv[1];
  if (command == "conform") {
    return RunConform(argc, argv);
  }
  if (command == "serve") {
    return RunServe(argc, argv);
  }
  if (command == "client") {
    return RunClient(argc, argv);
  }
  if (argc < 3) {
    return Usage();
  }
  if (command == "lint") {
    bool json = false;
    GuardFlags guard_flags;
    for (int i = 3; i < argc; ++i) {
      const std::string arg = argv[i];
      bool bad = false;
      if (arg == "--json") {
        json = true;
      } else if (!ParseGuardFlag(arg, argc, argv, &i, &guard_flags, &bad) ||
                 bad) {
        return Usage();
      }
    }
    crsat::Result<std::string> text = ReadFile(argv[2]);
    if (!text.ok()) {
      std::cerr << text.status() << "\n";
      return kExitFindings;
    }
    return Print(
        crsat::commands::Lint(argv[2], *text, json, guard_flags.Guard()));
  }
  crsat::Result<crsat::NamedSchema> parsed = LoadSchema(argv[2]);
  if (!parsed.ok()) {
    std::cerr << parsed.status() << "\n";
    return EXIT_FAILURE;
  }
  const crsat::Schema& schema = parsed->schema;

  if (command == "check") {
    bool json = false;
    long threads = 0;
    std::string witness_mode;
    std::string backend = "reasoner";
    GuardFlags guard_flags;
    for (int i = 3; i < argc; ++i) {
      const std::string arg = argv[i];
      bool bad = false;
      if (arg == "--json") {
        json = true;
      } else if (arg.rfind("--backend=", 0) == 0) {
        backend = arg.substr(std::string("--backend=").size());
        if (backend != "reasoner" && backend != "saturation") {
          return Usage();
        }
      } else if (arg == "--witness") {
        witness_mode = "text";
      } else if (arg.rfind("--witness=", 0) == 0) {
        witness_mode = arg.substr(std::string("--witness=").size());
        if (!crsat::commands::IsWitnessMode(witness_mode)) {
          return Usage();
        }
      } else if (arg == "--threads") {
        if (!ParseLong(argc, argv, &i, 0, &threads)) {
          return Usage();
        }
      } else if (!ParseGuardFlag(arg, argc, argv, &i, &guard_flags, &bad) ||
                 bad) {
        return Usage();
      }
    }
    crsat::SetGlobalThreadCount(static_cast<int>(threads));
    // Per-invocation solver stats: start from zero so `--json` reports
    // exactly this run's counters.
    ResetAllStats();
    if (backend == "saturation") {
      // Witness synthesis is a reasoner-pipeline feature; the saturation
      // engine reports its own certified finite models.
      if (!witness_mode.empty()) {
        return Usage();
      }
      return RunSaturationCheck(*parsed, json, guard_flags.Guard());
    }
    crsat::commands::Analysis analysis(schema);
    return Print(crsat::commands::Check(*parsed, analysis, json, witness_mode,
                                        guard_flags.Guard()));
  }
  if (command == "expand") {
    crsat::Result<crsat::Expansion> expansion =
        crsat::Expansion::Build(schema);
    if (!expansion.ok()) {
      std::cerr << expansion.status() << "\n";
      return EXIT_FAILURE;
    }
    std::cout << expansion->ToString();
    return EXIT_SUCCESS;
  }
  if (command == "system") {
    crsat::Result<crsat::Expansion> expansion =
        crsat::Expansion::Build(schema);
    if (!expansion.ok()) {
      std::cerr << expansion.status() << "\n";
      return EXIT_FAILURE;
    }
    crsat::SatisfiabilityChecker checker(*expansion);
    std::cout << checker.cr_system().system.ToString();
    return EXIT_SUCCESS;
  }
  if (command == "model" && argc == 4) {
    return RunModel(schema, argv[3]);
  }
  if (command == "debug" && argc == 4) {
    return RunDebug(schema, argv[3]);
  }
  if (command == "implies") {
    crsat::commands::Analysis analysis(schema);
    return Print(crsat::commands::Implies(analysis, JoinArgs(3, argc, argv),
                                          /*guard=*/nullptr));
  }
  if (command == "checkstate" && argc == 4) {
    return RunCheckState(*parsed, argv[3]);
  }
  if (command == "report") {
    crsat::Result<std::vector<crsat::ImpliedCardinalityRow>> report =
        crsat::BuildImpliedCardinalityReport(schema);
    if (!report.ok()) {
      std::cerr << report.status() << "\n";
      return EXIT_FAILURE;
    }
    std::cout << crsat::ImpliedCardinalityReportToString(schema, *report);
    return EXIT_SUCCESS;
  }
  if (command == "dot") {
    std::cout << crsat::SchemaToDot(schema, parsed->name);
    return EXIT_SUCCESS;
  }
  return Usage();
}

}  // namespace

int main(int argc, char** argv) {
  // Outer backstop for the subsystem boundaries (`SimplexSolver::SolveWith`,
  // `Expansion::Build` convert their own allocation failures): whatever
  // still escapes becomes the resource exit code, not a terminate().
  try {
    return RealMain(argc, argv);
  } catch (const std::bad_alloc&) {
    std::cerr << "out of memory; aborting cleanly (treat as a resource "
                 "limit)\n";
    return kExitResource;
  }
}
