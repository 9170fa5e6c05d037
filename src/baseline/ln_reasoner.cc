#include "src/baseline/ln_reasoner.h"

#include <utility>

#include "src/lp/homogeneous.h"

namespace crsat {

Result<LnReasoner> LnReasoner::Create(const Schema& schema) {
  if (!schema.isa_statements().empty()) {
    return InvalidArgumentError(
        "Lenzerini-Nobili baseline does not support ISA statements");
  }
  if (!schema.disjointness_constraints().empty() ||
      !schema.covering_constraints().empty()) {
    return InvalidArgumentError(
        "Lenzerini-Nobili baseline does not support Section 5 extensions");
  }
  for (const CardinalityDeclaration& decl :
       schema.cardinality_declarations()) {
    if (decl.cls != schema.PrimaryClass(decl.role)) {
      return InvalidArgumentError(
          "Lenzerini-Nobili baseline does not support refinements on "
          "subclasses");
    }
  }
  return LnReasoner(schema);
}

LnReasoner::LnReasoner(const Schema& schema) : schema_(&schema) {
  for (ClassId cls : schema.AllClasses()) {
    class_vars_.push_back(
        system_.AddVariable(schema.ClassName(cls), /*nonnegative=*/true));
  }
  for (RelationshipId rel : schema.AllRelationships()) {
    rel_vars_.push_back(system_.AddVariable(schema.RelationshipName(rel),
                                            /*nonnegative=*/true));
  }
  for (RelationshipId rel : schema.AllRelationships()) {
    const std::vector<RoleId>& roles = schema.RolesOf(rel);
    for (RoleId role : roles) {
      ClassId primary = schema.PrimaryClass(role);
      Cardinality cardinality = schema.GetCardinality(primary, rel, role);
      if (cardinality.min > 0) {
        // x_R - min * x_C >= 0.
        LinearExpr expr = LinearExpr::Var(rel_vars_[rel.value]);
        expr.AddTerm(class_vars_[primary.value],
                     -Rational(static_cast<std::int64_t>(cardinality.min)));
        system_.AddGe(std::move(expr));
      }
      if (cardinality.max.has_value()) {
        // max * x_C - x_R >= 0.
        LinearExpr expr = LinearExpr::Term(
            class_vars_[primary.value],
            Rational(static_cast<std::int64_t>(*cardinality.max)));
        expr.AddTerm(rel_vars_[rel.value], Rational(-1));
        system_.AddGe(std::move(expr));
      }
    }
  }
}

namespace {

std::vector<Dependency> BuildDependencies(const Schema& schema,
                                          const std::vector<VarId>& class_vars,
                                          const std::vector<VarId>& rel_vars) {
  std::vector<Dependency> dependencies;
  for (RelationshipId rel : schema.AllRelationships()) {
    Dependency dependency;
    dependency.dependent = rel_vars[rel.value];
    for (RoleId role : schema.RolesOf(rel)) {
      dependency.depends_on.push_back(
          class_vars[schema.PrimaryClass(role).value]);
    }
    dependencies.push_back(std::move(dependency));
  }
  return dependencies;
}

}  // namespace

Result<bool> LnReasoner::IsClassSatisfiable(ClassId cls) const {
  CRSAT_ASSIGN_OR_RETURN(std::vector<bool> satisfiable, SatisfiableClasses());
  return static_cast<bool>(satisfiable[cls.value]);
}

Result<std::vector<bool>> LnReasoner::SatisfiableClasses() const {
  CRSAT_ASSIGN_OR_RETURN(
      AcceptableSupport support,
      ComputeAcceptableSupport(
          system_, BuildDependencies(*schema_, class_vars_, rel_vars_)));
  std::vector<bool> satisfiable(schema_->num_classes(), false);
  for (int c = 0; c < schema_->num_classes(); ++c) {
    satisfiable[c] = support.positive[class_vars_[c]];
  }
  return satisfiable;
}

Result<LnReasoner::Solution> LnReasoner::AcceptableIntegerSolution() const {
  CRSAT_ASSIGN_OR_RETURN(
      AcceptableSupport support,
      ComputeAcceptableSupport(
          system_, BuildDependencies(*schema_, class_vars_, rel_vars_),
          /*probe_cache=*/nullptr, /*guard=*/nullptr, /*seed_zero=*/nullptr,
          /*minimal_witness=*/true));
  std::vector<BigInt> integers = ScaleToIntegerSolution(support.witness);
  Solution solution;
  for (VarId var : class_vars_) {
    solution.class_counts.push_back(integers[var]);
  }
  for (VarId var : rel_vars_) {
    solution.rel_counts.push_back(integers[var]);
  }
  return solution;
}

}  // namespace crsat
