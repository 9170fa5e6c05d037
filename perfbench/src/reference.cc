#include "src/reference.h"

#include <algorithm>
#include <map>
#include <optional>

#include "src/cr/model_checker.h"
#include "src/oracle/brute_force.h"
#include "src/saturation/graph.h"
#include "src/saturation/saturation.h"

namespace perfbench {
namespace {

std::string_view Trim(std::string_view text) {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t')) {
    text.remove_prefix(1);
  }
  while (!text.empty() && (text.back() == ' ' || text.back() == '\t' ||
                           text.back() == '\r')) {
    text.remove_suffix(1);
  }
  return text;
}

std::vector<std::string_view> Split(std::string_view text, char separator) {
  std::vector<std::string_view> parts;
  while (true) {
    const std::size_t at = text.find(separator);
    parts.push_back(Trim(text.substr(0, at)));
    if (at == std::string_view::npos) {
      return parts;
    }
    text.remove_prefix(at + 1);
  }
}

}  // namespace

std::string ReferenceTally::Summary() const {
  return "UNSAT verdicts checked: " + std::to_string(classes) +
         ", confirmed " + std::to_string(unsat) + ", refuted " +
         std::to_string(sat) + ", unsettled " + std::to_string(unknown) +
         " (of which classically satisfiable by a validated cyclic "
         "saturation graph " + std::to_string(cyclic) + ")";
}

crsat::Result<std::vector<Expect>> ReferenceVerdicts(
    const crsat::Schema& schema, const std::vector<std::string>& forced_unsat,
    const std::vector<bool>& open, ReferenceTally* tally) {
  std::vector<Expect> reference(static_cast<std::size_t>(schema.num_classes()),
                                Expect::kUnknown);
  for (const std::string& name : forced_unsat) {
    std::optional<crsat::ClassId> cls = schema.FindClass(name);
    if (!cls.has_value()) {
      return crsat::InternalError("reference: no class " + name);
    }
    reference[static_cast<std::size_t>(cls->value)] = Expect::kUnsat;
  }
  auto wanted = [&](crsat::ClassId cls) {
    const std::size_t i = static_cast<std::size_t>(cls.value);
    return open[i] && reference[i] == Expect::kUnknown;
  };
  auto settle = [&](crsat::ClassId cls, Expect vote, const char* voter,
                    const crsat::Interpretation* model) -> crsat::Status {
    if (model != nullptr &&
        (!crsat::ModelChecker::CheckModel(schema, *model).empty() ||
         model->ClassExtension(cls).empty())) {
      return crsat::InternalError(std::string(voter) +
                                  " model fails ModelChecker for " +
                                  schema.ClassName(cls));
    }
    reference[static_cast<std::size_t>(cls.value)] = vote;
    return crsat::Status();
  };

  // A small finite-materialization budget: a class that needs a cyclic
  // witness (sat-with-reuse) settles nothing either way, and searching
  // for its finite model is where saturation spends its time.
  std::vector<bool> cyclic(reference.size(), false);
  crsat::SaturationOptions saturation_options;
  saturation_options.finite_node_cap = 8;
  saturation_options.max_steps = 20000;
  for (crsat::ClassId cls : schema.AllClasses()) {
    if (!wanted(cls)) {
      continue;
    }
    const crsat::SaturationClassResult result =
        crsat::SaturationEngine::DecideClass(schema, cls, saturation_options);
    crsat::Status settled;
    if (result.verdict == crsat::SaturationVerdict::kSatWithReuse) {
      // Classically satisfiable through a cyclic certificate; finite
      // satisfiability stays open for the oracle. The certificate is
      // re-checked so that the class is at least cross-checked.
      const std::vector<std::string> violations =
          crsat::ValidateSaturationGraph(schema, result.graph, cls);
      if (!violations.empty()) {
        return crsat::InternalError("saturation graph for " +
                                    schema.ClassName(cls) +
                                    " is invalid: " + violations.front());
      }
      cyclic[static_cast<std::size_t>(cls.value)] = true;
    } else if (result.verdict == crsat::SaturationVerdict::kUnsat) {
      settled = settle(cls, Expect::kUnsat, "saturation", nullptr);
    } else if (result.verdict == crsat::SaturationVerdict::kFiniteModel) {
      if (!result.model.has_value()) {
        return crsat::InternalError("saturation claims a model it lacks");
      }
      settled = settle(cls, Expect::kSat, "saturation", &*result.model);
    }
    if (!settled.ok()) {
      return settled;
    }
  }

  // The bounded oracle only runs when saturation left a class open; a
  // search that exhausts its budget settles nothing.
  bool any_open = false;
  for (crsat::ClassId cls : schema.AllClasses()) {
    any_open = any_open || wanted(cls);
  }
  if (any_open) {
    crsat::OracleOptions oracle_options;
    oracle_options.max_domain = 3;
    oracle_options.max_assignments = 200000;
    crsat::Result<crsat::OracleReport> oracle =
        crsat::BruteForceOracle::Decide(schema, oracle_options);
    if (!oracle.ok() &&
        oracle.status().code() != crsat::StatusCode::kResourceExhausted) {
      return oracle.status();
    }
    for (crsat::ClassId cls : schema.AllClasses()) {
      if (!oracle.ok() || !wanted(cls) || !oracle->Satisfiable(cls)) {
        continue;
      }
      const std::optional<crsat::Interpretation>& model =
          oracle->models[static_cast<std::size_t>(cls.value)];
      if (!model.has_value()) {
        return crsat::InternalError("oracle claims a model it lacks");
      }
      crsat::Status settled = settle(cls, Expect::kSat, "oracle", &*model);
      if (!settled.ok()) {
        return settled;
      }
    }
  }

  for (crsat::ClassId cls : schema.AllClasses()) {
    const std::size_t i = static_cast<std::size_t>(cls.value);
    if (!open[i]) {
      continue;
    }
    ++tally->classes;
    tally->sat += reference[i] == Expect::kSat;
    tally->unsat += reference[i] == Expect::kUnsat;
    tally->unknown += reference[i] == Expect::kUnknown;
    tally->cyclic += reference[i] == Expect::kUnknown && cyclic[i];
  }
  return reference;
}

std::string JudgeVerdicts(const crsat::Schema& schema,
                          const std::vector<bool>& verdicts,
                          const std::vector<Expect>& reference) {
  if (verdicts.size() != reference.size()) {
    return "verdict count mismatch";
  }
  for (crsat::ClassId cls : schema.AllClasses()) {
    const std::size_t i = static_cast<std::size_t>(cls.value);
    if ((reference[i] == Expect::kSat && !verdicts[i]) ||
        (reference[i] == Expect::kUnsat && verdicts[i])) {
      return "class " + schema.ClassName(cls) + ": reasoner says " +
             (verdicts[i] ? "SAT" : "UNSAT") + ", reference disagrees";
    }
  }
  return "";
}

std::string JudgeWitness(const crsat::Schema& schema,
                         const crsat::Interpretation& witness,
                         const std::vector<bool>& verdicts) {
  const std::vector<crsat::ModelViolation> violations =
      crsat::ModelChecker::CheckModel(schema, witness);
  if (!violations.empty()) {
    return "witness rejected by ModelChecker: " + violations.front().message;
  }
  for (crsat::ClassId cls : schema.AllClasses()) {
    const bool populated = !witness.ClassExtension(cls).empty();
    if (populated != verdicts[static_cast<std::size_t>(cls.value)]) {
      return "witness " + std::string(populated ? "populates" : "leaves empty") +
             " class " + schema.ClassName(cls) + " against its verdict";
    }
  }
  return "";
}

crsat::Result<crsat::Interpretation> ParseWitnessText(
    const crsat::Schema& schema, std::string_view text) {
  crsat::Interpretation witness(schema);
  std::map<std::string, crsat::Individual, std::less<>> individuals;
  auto individual = [&](std::string_view name) {
    auto found = individuals.find(name);
    if (found != individuals.end()) {
      return found->second;
    }
    const crsat::Individual fresh = witness.AddIndividual(std::string(name));
    individuals.emplace(std::string(name), fresh);
    return fresh;
  };
  const auto bad = [](const std::string& what) {
    return crsat::ParseError("witness text: " + what);
  };
  for (std::string_view line : Split(text, '\n')) {
    if (line.empty()) {
      continue;
    }
    const std::size_t equals = line.find(" = {");
    if (equals == std::string_view::npos || line.back() != '}') {
      return bad("malformed line");
    }
    const std::string name(line.substr(0, equals));
    std::string_view body = line.substr(equals + 4);
    body.remove_suffix(1);
    if (std::optional<crsat::ClassId> cls = schema.FindClass(name)) {
      if (body.empty()) {
        continue;
      }
      for (std::string_view member : Split(body, ',')) {
        if (!witness.AddToClass(*cls, individual(member)).ok()) {
          return bad("bad member of " + name);
        }
      }
      continue;
    }
    std::optional<crsat::RelationshipId> rel = schema.FindRelationship(name);
    if (!rel.has_value()) {
      return bad("unknown name " + name);
    }
    const std::vector<crsat::RoleId>& roles = schema.RolesOf(*rel);
    while (!body.empty()) {
      const std::size_t open = body.find('<');
      const std::size_t close = body.find('>');
      if (open == std::string_view::npos || close == std::string_view::npos ||
          close < open) {
        return bad("malformed tuple in " + name);
      }
      const std::vector<std::string_view> components =
          Split(body.substr(open + 1, close - open - 1), ',');
      if (components.size() != roles.size()) {
        return bad("arity mismatch in " + name);
      }
      std::vector<crsat::Individual> tuple;
      for (std::size_t k = 0; k < components.size(); ++k) {
        const std::size_t colon = components[k].find(": ");
        if (colon == std::string_view::npos ||
            components[k].substr(0, colon) != schema.RoleName(roles[k])) {
          return bad("role mismatch in " + name);
        }
        tuple.push_back(individual(components[k].substr(colon + 2)));
      }
      if (!witness.AddTuple(*rel, tuple).ok()) {
        return bad("bad tuple in " + name);
      }
      body.remove_prefix(close + 1);
    }
  }
  return witness;
}

crsat::Result<std::vector<bool>> ParseCheckReply(const crsat::Schema& schema,
                                                 std::string_view text) {
  std::vector<bool> verdicts(static_cast<std::size_t>(schema.num_classes()),
                             false);
  std::vector<bool> seen(verdicts.size(), false);
  for (std::string_view line : Split(text, '\n')) {
    bool satisfiable = false;
    if (line.starts_with("satisfiable ")) {
      satisfiable = true;
    } else if (!line.starts_with("UNSATISFIABLE ")) {
      continue;
    }
    const std::string name(Trim(line.substr(line.find(' '))));
    std::optional<crsat::ClassId> cls = schema.FindClass(name);
    if (!cls.has_value()) {
      return crsat::ParseError("check reply names unknown class " + name);
    }
    verdicts[static_cast<std::size_t>(cls->value)] = satisfiable;
    seen[static_cast<std::size_t>(cls->value)] = true;
  }
  for (bool each : seen) {
    if (!each) {
      return crsat::ParseError("check reply misses a class");
    }
  }
  return verdicts;
}

}  // namespace perfbench
