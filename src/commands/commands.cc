#include "src/commands/commands.h"

#include <atomic>
#include <cstdint>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "src/analysis/diagnostics.h"
#include "src/analysis/lint_engine.h"
#include "src/base/degradation.h"
#include "src/base/json.h"
#include "src/base/thread_pool.h"
#include "src/baseline/fast_path.h"
#include "src/expansion/expansion.h"
#include "src/lp/simplex.h"
#include "src/reasoner/implication.h"
#include "src/reasoner/implication_engine.h"
#include "src/reasoner/satisfiability.h"
#include "src/witness/witness.h"
#include "src/witness/witness_text.h"

namespace crsat {
namespace commands {

namespace {

CommandResult ErrorResult(int exit_code, const std::string& message) {
  return {exit_code, "", message + "\n"};
}

// The report for a tripped guard: JSON on stdout in `json` mode, text on
// stderr otherwise.
CommandResult TripReport(const ResourceGuard& guard, bool json) {
  if (json) {
    return {kExitResource,
            "{\n  \"error\": \"" + JsonEscape(guard.TripStatus().ToString()) +
                "\",\n  \"resource\": " + guard.report().ToJson() + "\n}\n",
            ""};
  }
  return ErrorResult(kExitResource, guard.TripStatus().ToString() + "\n" +
                                        guard.report().ToString());
}

// A pipeline step failed with `status`: the trip report when `guard`
// tripped, otherwise the status on stderr. A resource-family status
// without a tripped guard (converted bad_alloc, injected allocation
// fault) is still a resource limit, not a finding.
CommandResult Failure(const Status& status, const ResourceGuard* guard,
                      bool json) {
  if (guard != nullptr && guard->tripped()) {
    return TripReport(*guard, json);
  }
  return ErrorResult(
      IsResourceLimitStatus(status.code()) ? kExitResource : kExitFindings,
      status.ToString());
}

std::string Load(const std::atomic<std::uint64_t>& counter) {
  return std::to_string(counter.load(std::memory_order_relaxed));
}

// Solver counters as a JSON object. The one-shot CLI resets them before
// the command, so they cover exactly this invocation.
std::string SolverStatsJson() {
  const SimplexStats& stats = GetSimplexStats();
  return "{\"solves\": " + Load(stats.solves) +
         ", \"pivots\": " + Load(stats.pivots) +
         ", \"basis_pivots\": " + Load(stats.basis_pivots) +
         ", \"phase1_pivots\": " + Load(stats.phase1_pivots) +
         ", \"fast_solves\": " + Load(stats.fast_solves) +
         ", \"fast_pivots\": " + Load(stats.fast_pivots) +
         ", \"tier_fallbacks\": " +
         Load(GetRecoveryStats().tier_fallbacks) +
         ", \"warm_start_hits\": " + Load(stats.warm_start_hits) +
         ", \"warm_start_misses\": " + Load(stats.warm_start_misses) +
         ", \"dual_pivots\": " + Load(stats.dual_pivots) +
         ", \"incremental_hits\": " + Load(stats.incremental_hits) +
         ", \"incremental_fallbacks\": " + Load(stats.incremental_fallbacks) +
         ", \"dominance_lookups\": " +
         Load(GetImplicationStats().dominance_lookups) +
         ", \"dominance_hits\": " + Load(GetImplicationStats().dominance_hits) +
         ", \"derived_disjoint_pairs\": " +
         Load(GetExpansionStats().derived_disjoint_pairs) +
         ", \"pruned_subtrees\": " + Load(GetExpansionStats().pruned_subtrees) +
         ", \"ln_short_circuits\": " +
         Load(GetFastPathStats().ln_short_circuits) + "}";
}

// An implication query the checker could not answer. InvalidArgument
// means the query does not fit the schema (role outside the
// relationship, class outside the role's primary class, unsatisfiable
// class), which is a bad request like an unknown name.
CommandResult QueryFailure(const Status& status, const ResourceGuard* guard) {
  if (status.code() == StatusCode::kInvalidArgument) {
    return ErrorResult(kExitUsage, "implies: " + status.ToString());
  }
  return Failure(status, guard, /*json=*/false);
}

}  // namespace

bool IsWitnessMode(std::string_view mode) {
  return mode == "text" || mode == "json" || mode == "dot";
}

CommandResult Check(const NamedSchema& parsed, Analysis& analysis, bool json,
                    std::string_view witness_mode, ResourceGuard* guard) {
  const Schema& schema = parsed.schema;
  // ISA-free schemas skip the expansion pipeline entirely: the
  // Lenzerini-Nobili baseline computes the same verdicts with one unknown
  // per class. Witness synthesis needs the full checker, so the fast path
  // only applies to plain checks.
  std::optional<std::vector<bool>> satisfiable;
  if (witness_mode.empty()) {
    Result<const std::vector<bool>*> fast = analysis.FastVerdicts();
    if (!fast.ok()) {
      return Failure(fast.status(), guard, json);
    }
    if (*fast != nullptr) {
      satisfiable = **fast;
    }
  }
  const SatisfiabilityChecker* checker = nullptr;
  if (!satisfiable.has_value()) {
    Result<const SatisfiabilityChecker*> built = analysis.Checker(guard);
    if (!built.ok()) {
      return Failure(built.status(), guard, json);
    }
    checker = *built;
    Result<std::vector<bool>> verdicts = checker->SatisfiableClasses();
    if (!verdicts.ok()) {
      return Failure(verdicts.status(), guard, json);
    }
    satisfiable.emplace(std::move(verdicts.value()));
  }
  bool all_ok = true;
  bool any_satisfiable = false;
  for (ClassId cls : schema.AllClasses()) {
    all_ok = all_ok && (*satisfiable)[cls.value];
    any_satisfiable = any_satisfiable || (*satisfiable)[cls.value];
  }

  // Only a certified witness is ever emitted. A resource limit tripped
  // during synthesis leaves the verdict standing (it predates the trip)
  // and reports the trip in the witness slot.
  std::optional<CertifiedWitness> witness;
  std::optional<std::string> witness_failure;
  if (!witness_mode.empty() && any_satisfiable) {
    WitnessSynthesizer synthesizer(*checker);
    WitnessOptions witness_options;
    witness_options.guard = guard;
    witness_options.source_map = &parsed.source_map;
    Result<CertifiedWitness> result = synthesizer.Synthesize(witness_options);
    if (result.ok()) {
      witness.emplace(std::move(result.value()));
    } else if (IsResourceLimitStatus(result.status().code())) {
      witness_failure = result.status().ToString();
    } else {
      // Anything else (certification refusal included) is a hard error.
      return ErrorResult(kExitFindings, result.status().ToString());
    }
  }

  const int exit_code = all_ok ? kExitOk : kExitFindings;
  std::ostringstream out;
  if (json) {
    out << "{\n  \"schema\": \"" << JsonEscape(parsed.name)
        << "\",\n  \"threads\": " << GlobalThreadCount()
        << ",\n  \"classes\": [\n";
    bool first = true;
    for (ClassId cls : schema.AllClasses()) {
      if (!first) {
        out << ",\n";
      }
      first = false;
      out << "    {\"name\": \"" << JsonEscape(schema.ClassName(cls))
          << "\", \"satisfiable\": "
          << ((*satisfiable)[cls.value] ? "true" : "false") << "}";
    }
    out << "\n  ],\n  \"strongly_satisfiable\": "
        << (all_ok ? "true" : "false") << ",\n  \"stats\": "
        << SolverStatsJson()
        << ",\n  \"recovery\": " << GetRecoveryStats().ToJson();
    if (!witness_mode.empty()) {
      out << ",\n  \"witness\": ";
      if (witness.has_value()) {
        out << WitnessToJson(*witness);
      } else if (witness_failure.has_value()) {
        out << "{\"certified\": false, \"error\": \""
            << JsonEscape(*witness_failure) << "\"}";
      } else {
        out << "{\"certified\": false, \"error\": \"no class is "
               "satisfiable; nothing to witness\"}";
      }
    }
    if (guard != nullptr) {
      out << ",\n  \"resource\": " << guard->report().ToJson();
    }
    out << "\n}\n";
    return {exit_code, out.str(), ""};
  }

  for (ClassId cls : schema.AllClasses()) {
    out << ((*satisfiable)[cls.value] ? "  satisfiable    "
                                      : "  UNSATISFIABLE  ")
        << schema.ClassName(cls) << "\n";
  }
  out << (all_ok ? "schema is strongly satisfiable"
                 : "schema has unpopulatable classes (see 'debug')")
      << "\n";
  std::string err;
  if (witness.has_value()) {
    if (witness_mode == "json") {
      out << WitnessToJson(*witness) << "\n";
    } else if (witness_mode == "dot") {
      out << WitnessToDot(*witness);
    } else {
      out << "witness (certified): " << witness->stats().individuals
          << " individual(s), " << witness->stats().tuples << " tuple(s)\n"
          << witness->interpretation().ToString();
    }
  } else if (witness_failure.has_value()) {
    err = "witness synthesis stopped by a resource limit; the verdict "
          "above stands without a witness\n" +
          *witness_failure + "\n";
    if (guard != nullptr) {
      err += guard->report().ToString() + "\n";
    }
  } else if (!witness_mode.empty()) {
    out << "no witness: no class is satisfiable\n";
  }
  return {exit_code, out.str(), std::move(err)};
}

CommandResult Lint(const std::string& display_name,
                   std::string_view schema_text, bool json,
                   ResourceGuard* guard) {
  // Parse leniently so empty ranges reach the `empty-range` rule with a
  // source position instead of failing the build.
  ParseSchemaOptions options;
  options.permit_empty_ranges = true;
  Result<NamedSchema> parsed = ParseSchema(schema_text, options);
  if (!parsed.ok()) {
    return Failure(parsed.status(), guard, json);
  }
  LintOptions lint_options;
  lint_options.guard = guard;
  std::vector<Diagnostic> diagnostics = RunLint(*parsed, lint_options);
  if (guard != nullptr && guard->tripped()) {
    // Truncated run: partial findings are not trustworthy verdicts.
    return TripReport(*guard, json);
  }
  const int exit_code = HasErrors(diagnostics) ? kExitFindings : kExitOk;
  if (json) {
    return {exit_code, DiagnosticsToJson(diagnostics) + "\n", ""};
  }
  std::ostringstream out;
  int errors = 0, warnings = 0, notes = 0;
  for (const Diagnostic& diagnostic : diagnostics) {
    out << FormatDiagnostic(diagnostic, display_name) << "\n";
    switch (diagnostic.severity) {
      case Severity::kError:
        ++errors;
        break;
      case Severity::kWarning:
        ++warnings;
        break;
      case Severity::kNote:
        ++notes;
        break;
    }
  }
  if (diagnostics.empty()) {
    out << "schema '" << parsed->name << "': no findings\n";
  } else {
    out << errors << " error(s), " << warnings << " warning(s), " << notes
        << " note(s)\n";
  }
  return {exit_code, out.str(), ""};
}

CommandResult Implies(Analysis& analysis, std::string_view words,
                      ResourceGuard* guard) {
  const Schema& schema = analysis.schema();
  std::vector<std::string> args;
  std::istringstream in{std::string(words)};
  for (std::string word; in >> word;) {
    args.push_back(std::move(word));
  }
  auto bad_request = [](const std::string& reason) {
    return ErrorResult(kExitUsage, "implies: " + reason);
  };
  const bool isa = args.size() == 3 && args[0] == "isa";
  const bool card = args.size() == 4 && args[0] == "card";
  if (!isa && !card) {
    return bad_request(
        "expected 'isa <Sub> <Super>' or 'card <Class> <Rel> <Role>'");
  }
  const std::optional<ClassId> cls = schema.FindClass(args[1]);
  if (!cls.has_value()) {
    return bad_request("no class named '" + args[1] + "'");
  }
  std::ostringstream out;
  if (isa) {
    const std::optional<ClassId> super = schema.FindClass(args[2]);
    if (!super.has_value()) {
      return bad_request("no class named '" + args[2] + "'");
    }
    Result<const SatisfiabilityChecker*> checker = analysis.Checker(guard);
    if (!checker.ok()) {
      return QueryFailure(checker.status(), guard);
    }
    Result<bool> implied =
        ImplicationChecker::ImpliesIsa(**checker, *cls, *super);
    if (!implied.ok()) {
      return QueryFailure(implied.status(), guard);
    }
    out << args[1] << " <= " << args[2] << ": "
        << (*implied ? "implied" : "not implied") << "\n";
    return {kExitOk, out.str(), ""};
  }
  const std::optional<RelationshipId> rel = schema.FindRelationship(args[2]);
  if (!rel.has_value()) {
    return bad_request("no relationship named '" + args[2] + "'");
  }
  const std::optional<RoleId> role = schema.FindRole(args[3]);
  if (!role.has_value()) {
    return bad_request("no role named '" + args[3] + "'");
  }
  // One engine (one extended expansion) answers both bounds.
  ExpansionOptions options;
  options.guard = guard;
  Result<CardinalityImplicationEngine> engine =
      CardinalityImplicationEngine::Create(schema, *cls, *rel, *role, options);
  if (!engine.ok()) {
    return QueryFailure(engine.status(), guard);
  }
  Result<std::uint64_t> min = engine->TightestMin();
  if (!min.ok()) {
    return QueryFailure(min.status(), guard);
  }
  Result<std::optional<std::uint64_t>> max =
      engine->TightestMax(/*search_limit=*/64);
  if (!max.ok()) {
    return QueryFailure(max.status(), guard);
  }
  out << "tightest implied cardinality of (" << args[1] << ", " << args[2]
      << ", " << args[3] << "): (" << *min << ", "
      << (max->has_value() ? std::to_string(**max) : "*") << ")\n";
  return {kExitOk, out.str(), ""};
}

}  // namespace commands
}  // namespace crsat
