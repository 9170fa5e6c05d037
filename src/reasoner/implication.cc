#include "src/reasoner/implication.h"

#include <optional>

#include "src/base/thread_pool.h"
#include "src/reasoner/implication_engine.h"
#include "src/reasoner/satisfiability.h"

namespace crsat {

Result<bool> ImplicationChecker::ImpliesIsa(
    const SatisfiabilityChecker& checker, ClassId sub, ClassId super) {
  const Expansion& expansion = checker.expansion();
  // Target: compound classes containing `sub` but not `super` — exactly
  // the populations witnessing a violation of `sub <= super`.
  std::vector<int> targets;
  for (int class_index : expansion.ClassIndicesContaining(sub)) {
    if (!expansion.classes()[class_index].Contains(super)) {
      targets.push_back(class_index);
    }
  }
  CRSAT_ASSIGN_OR_RETURN(bool violable, checker.IsTargetSatisfiable(targets));
  return !violable;
}

Result<bool> ImplicationChecker::ImpliesMinCardinality(
    const Schema& schema, ClassId cls, RelationshipId rel, RoleId role,
    std::uint64_t min, const ExpansionOptions& options) {
  CRSAT_ASSIGN_OR_RETURN(
      CardinalityImplicationEngine engine,
      CardinalityImplicationEngine::Create(schema, cls, rel, role, options));
  return engine.ImpliesMin(min);
}

Result<bool> ImplicationChecker::ImpliesMaxCardinality(
    const Schema& schema, ClassId cls, RelationshipId rel, RoleId role,
    std::uint64_t max, const ExpansionOptions& options) {
  CRSAT_ASSIGN_OR_RETURN(
      CardinalityImplicationEngine engine,
      CardinalityImplicationEngine::Create(schema, cls, rel, role, options));
  return engine.ImpliesMax(max);
}

Result<std::vector<std::vector<bool>>> ImplicationChecker::ImpliedIsaClosure(
    const SatisfiabilityChecker& checker) {
  const Result<AcceptableSupport>& support = checker.Support();
  if (!support.ok()) {
    return support.status();
  }
  const Expansion& expansion = checker.expansion();
  const int n = expansion.schema().num_classes();
  std::vector<std::vector<bool>> implied(n, std::vector<bool>(n, true));
  for (size_t i = 0; i < expansion.classes().size(); ++i) {
    if (!support->positive[checker.cr_system().class_vars[i]]) {
      continue;
    }
    // A populated compound class containing c but not d witnesses that
    // `c <= d` is violable.
    const CompoundClass& compound = expansion.classes()[i];
    for (ClassId c : compound.Members()) {
      for (int d = 0; d < n; ++d) {
        if (!compound.Contains(ClassId(d))) {
          implied[c.value][d] = false;
        }
      }
    }
  }
  return implied;
}

Result<bool> ImplicationChecker::ImpliesDisjointness(
    const SatisfiabilityChecker& checker, ClassId a, ClassId b) {
  const Expansion& expansion = checker.expansion();
  // Target: compound classes containing both — populations witnessing an
  // overlap.
  std::vector<int> targets;
  for (int class_index : expansion.ClassIndicesContaining(a)) {
    if (expansion.classes()[class_index].Contains(b)) {
      targets.push_back(class_index);
    }
  }
  CRSAT_ASSIGN_OR_RETURN(bool violable, checker.IsTargetSatisfiable(targets));
  return !violable;
}

Result<bool> ImplicationChecker::ImpliesCovering(
    const SatisfiabilityChecker& checker, ClassId covered,
    const std::vector<ClassId>& coverers) {
  const Expansion& expansion = checker.expansion();
  // Target: compound classes containing `covered` but none of the
  // coverers.
  std::vector<int> targets;
  for (int class_index : expansion.ClassIndicesContaining(covered)) {
    bool any_coverer = false;
    for (ClassId coverer : coverers) {
      if (expansion.classes()[class_index].Contains(coverer)) {
        any_coverer = true;
        break;
      }
    }
    if (!any_coverer) {
      targets.push_back(class_index);
    }
  }
  CRSAT_ASSIGN_OR_RETURN(bool violable, checker.IsTargetSatisfiable(targets));
  return !violable;
}

Result<std::uint64_t> ImplicationChecker::TightestImpliedMin(
    const Schema& schema, ClassId cls, RelationshipId rel, RoleId role,
    const ExpansionOptions& options) {
  CRSAT_ASSIGN_OR_RETURN(
      CardinalityImplicationEngine engine,
      CardinalityImplicationEngine::Create(schema, cls, rel, role, options));
  return engine.TightestMin();
}

Result<std::optional<std::uint64_t>> ImplicationChecker::TightestImpliedMax(
    const Schema& schema, ClassId cls, RelationshipId rel, RoleId role,
    std::uint64_t search_limit, const ExpansionOptions& options) {
  CRSAT_ASSIGN_OR_RETURN(
      CardinalityImplicationEngine engine,
      CardinalityImplicationEngine::Create(schema, cls, rel, role, options));
  return engine.TightestMax(search_limit);
}

namespace {

Result<ImpliedCardinalityRow> BuildReportRow(const Schema& schema, ClassId cls,
                                             RelationshipId rel, RoleId role,
                                             std::uint64_t search_limit,
                                             const ExpansionOptions& options) {
  ImpliedCardinalityRow row;
  row.cls = cls;
  row.rel = rel;
  row.role = role;
  row.declared = schema.GetCardinality(cls, rel, role);
  CRSAT_ASSIGN_OR_RETURN(
      CardinalityImplicationEngine engine,
      CardinalityImplicationEngine::Create(schema, cls, rel, role, options));
  CRSAT_ASSIGN_OR_RETURN(bool satisfiable, engine.IsBaseClassSatisfiable());
  if (!satisfiable) {
    row.vacuous = true;
    return row;
  }
  CRSAT_ASSIGN_OR_RETURN(row.implied_min, engine.TightestMin());
  CRSAT_ASSIGN_OR_RETURN(row.implied_max, engine.TightestMax(search_limit));
  return row;
}

}  // namespace

Result<std::vector<ImpliedCardinalityRow>> BuildImpliedCardinalityReport(
    const Schema& schema, std::uint64_t search_limit,
    const ExpansionOptions& options) {
  // Enumerate the triples first (row order is part of the API), then build
  // the rows concurrently: each triple owns a private engine — its own
  // extended schema and expansion — so the tasks share only the immutable
  // input schema. Errors are reported for the first failing triple in row
  // order, matching the serial behaviour.
  struct Triple {
    ClassId cls;
    RelationshipId rel;
    RoleId role;
  };
  std::vector<Triple> triples;
  for (RelationshipId rel : schema.AllRelationships()) {
    for (RoleId role : schema.RolesOf(rel)) {
      ClassId primary = schema.PrimaryClass(role);
      for (ClassId cls : schema.SubclassesOf(primary)) {
        triples.push_back(Triple{cls, rel, role});
      }
    }
  }
  std::vector<std::optional<Result<ImpliedCardinalityRow>>> built(
      triples.size());
  GlobalThreadPool().ParallelFor(triples.size(), [&](size_t i) {
    built[i] = BuildReportRow(schema, triples[i].cls, triples[i].rel,
                              triples[i].role, search_limit, options);
  });
  std::vector<ImpliedCardinalityRow> rows;
  rows.reserve(triples.size());
  for (size_t i = 0; i < triples.size(); ++i) {
    if (!built[i]->ok()) {
      return built[i]->status();
    }
    rows.push_back(std::move(built[i]->value()));
  }
  return rows;
}

std::string ImpliedCardinalityReportToString(
    const Schema& schema, const std::vector<ImpliedCardinalityRow>& rows) {
  std::string text =
      "class / relationship.role            declared   implied\n";
  for (const ImpliedCardinalityRow& row : rows) {
    std::string triple = schema.ClassName(row.cls) + " / " +
                         schema.RelationshipName(row.rel) + "." +
                         schema.RoleName(row.role);
    if (triple.size() < 36) {
      triple.append(36 - triple.size(), ' ');
    }
    std::string declared = row.declared.ToString();
    if (declared.size() < 10) {
      declared.append(10 - declared.size(), ' ');
    }
    std::string implied;
    if (row.vacuous) {
      implied = "(class unsatisfiable; vacuous)";
    } else {
      implied = "(" + std::to_string(row.implied_min) + ", " +
                (row.implied_max.has_value()
                     ? std::to_string(*row.implied_max)
                     : "*") +
                ")";
    }
    text += triple + " " + declared + " " + implied + "\n";
  }
  return text;
}

}  // namespace crsat
