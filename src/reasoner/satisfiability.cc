#include "src/reasoner/satisfiability.h"

#include <utility>

#include "src/base/incremental.h"
#include "src/lp/simplex.h"

namespace crsat {

SatisfiabilityChecker::SatisfiabilityChecker(
    const Expansion& expansion,
    const std::vector<CardinalityOverride>* overrides)
    : expansion_(&expansion),
      cr_system_(SystemBuilder::Build(expansion, overrides)) {
  for (size_t i = 0; i < expansion.relationships().size(); ++i) {
    const CompoundRelationship& compound = expansion.relationships()[i];
    Dependency dependency;
    dependency.dependent = cr_system_.rel_vars[i];
    for (const CompoundClass& component : compound.components) {
      int class_index = expansion.ClassIndexOf(component);
      dependency.depends_on.push_back(cr_system_.class_vars[class_index]);
    }
    dependencies_.push_back(std::move(dependency));
  }
}

const std::vector<bool>& SatisfiabilityChecker::StructurallyDeadCompounds()
    const {
  if (!dead_compounds_.has_value()) {
    std::vector<bool> dead = cr_system_.empty_class_compounds;
    if (!known_empty_.empty()) {
      for (size_t i = 0; i < expansion_->classes().size(); ++i) {
        if (dead[i]) {
          continue;
        }
        for (ClassId member : expansion_->classes()[i].Members()) {
          if (IsKnownEmpty(member)) {
            dead[i] = true;
            break;
          }
        }
      }
    }
    dead_compounds_ = std::move(dead);
  }
  return *dead_compounds_;
}

const Result<AcceptableSupport>& SatisfiabilityChecker::Support(
    ResourceGuard* guard) const {
  if (!support_.has_value()) {
    support_ = ComputeSupport(guard != nullptr ? guard
                                               : expansion_->options().guard);
  }
  return *support_;
}

Result<AcceptableSupport> SatisfiabilityChecker::ComputeSupport(
    ResourceGuard* guard) const {
  const int num_variables = cr_system_.system.num_variables();
  // The structural pre-pass decided every class: no compound class can be
  // populated, so neither can a relationship unknown (each depends on
  // class unknowns). The support is empty without any LP.
  bool all_known_empty = true;
  for (int c = 0; c < expansion_->schema().num_classes(); ++c) {
    if (!IsKnownEmpty(ClassId(c))) {
      all_known_empty = false;
      break;
    }
  }
  if (all_known_empty) {
    AcceptableSupport empty;
    empty.positive.assign(num_variables, false);
    empty.witness.assign(num_variables, Rational());
    return empty;
  }
  // Seed the fixpoint with structurally dead unknowns (and, via one step
  // of dependency propagation, the relationship unknowns touching them)
  // so the LP never spends probe rounds proving them zero. The seeds are
  // sound, so the resulting support is the one the unseeded fixpoint
  // would reach; gated on the incremental toggle purely so the forced
  // cold reference path runs the historical solve sequence.
  std::vector<bool> seed;
  if (IncrementalReasoningEnabled()) {
    const std::vector<bool>& dead = StructurallyDeadCompounds();
    seed.assign(num_variables, false);
    for (size_t i = 0; i < cr_system_.class_vars.size(); ++i) {
      seed[cr_system_.class_vars[i]] = dead[i];
    }
    for (const Dependency& dependency : dependencies_) {
      for (VarId source : dependency.depends_on) {
        if (seed[source]) {
          seed[dependency.dependent] = true;
          break;
        }
      }
    }
  }
  return ComputeAcceptableSupport(cr_system_.system, dependencies_,
                                  probe_cache_, guard,
                                  seed.empty() ? nullptr : &seed,
                                  minimal_witness_);
}

Result<bool> SatisfiabilityChecker::IsClassSatisfiable(ClassId cls) const {
  if (IsKnownEmpty(cls)) {
    return false;  // Structural pre-pass already decided; skip the LP.
  }
  return IsTargetSatisfiable(expansion_->ClassIndicesContaining(cls));
}

Result<std::vector<bool>> SatisfiabilityChecker::SatisfiableClasses() const {
  const Result<AcceptableSupport>& support = Support();
  if (!support.ok()) {
    return support.status();
  }
  const int num_classes = expansion_->schema().num_classes();
  std::vector<bool> satisfiable(num_classes, false);
  for (int c = 0; c < num_classes; ++c) {
    if (IsKnownEmpty(ClassId(c))) {
      continue;
    }
    for (int class_index : expansion_->ClassIndicesContaining(ClassId(c))) {
      if (support->positive[cr_system_.class_vars[class_index]]) {
        satisfiable[c] = true;
        break;
      }
    }
  }
  return satisfiable;
}

Result<bool> SatisfiabilityChecker::IsTargetSatisfiable(
    const std::vector<int>& target_class_indices) const {
  if (IncrementalReasoningEnabled()) {
    // If every target compound is structurally dead the verdict is already
    // settled — skip the support computation entirely. This is the big win
    // for tight implication probes, where the overridden bound empties
    // every compound containing the probed class.
    const std::vector<bool>& dead = StructurallyDeadCompounds();
    bool all_dead = true;
    for (int class_index : target_class_indices) {
      if (!dead[class_index]) {
        all_dead = false;
        break;
      }
    }
    if (all_dead) {
      return false;
    }
  }
  const Result<AcceptableSupport>& support = Support();
  if (!support.ok()) {
    return support.status();
  }
  for (int class_index : target_class_indices) {
    if (support->positive[cr_system_.class_vars[class_index]]) {
      return true;
    }
  }
  return false;
}

Result<IntegerSolution> SatisfiabilityChecker::AcceptableIntegerSolution(
    ResourceGuard* guard, IntegerScaleStats* scale_stats) const {
  const Result<AcceptableSupport>& support = Support(guard);
  if (!support.ok()) {
    return support.status();
  }
  // The support witness is acceptable because its support is the maximal
  // acceptable support, and scaling by a positive constant keeps it so.
  std::vector<BigInt> integers =
      ScaleToIntegerSolution(support->witness, scale_stats);
  for (const Dependency& dependency : dependencies_) {
    if (integers[dependency.dependent].IsZero()) {
      continue;
    }
    for (VarId source : dependency.depends_on) {
      if (integers[source].IsZero()) {
        return InternalError(
            "witness: integer solution is not acceptable (populated compound "
            "relationship depends on an empty compound class)");
      }
    }
  }
  IntegerSolution solution;
  solution.class_counts.reserve(cr_system_.class_vars.size());
  for (VarId var : cr_system_.class_vars) {
    solution.class_counts.push_back(integers[var]);
  }
  solution.rel_counts.reserve(cr_system_.rel_vars.size());
  for (VarId var : cr_system_.rel_vars) {
    solution.rel_counts.push_back(integers[var]);
  }
  return solution;
}

Result<bool> IsTargetSatisfiableByEnumeration(
    const CrSystem& cr_system, const std::vector<Dependency>& dependencies,
    const std::vector<int>& target_class_indices) {
  const size_t num_class_vars = cr_system.class_vars.size();
  if (num_class_vars > 16) {
    return UnavailableError(
        "IsTargetSatisfiableByEnumeration is exponential and capped at 16 "
        "consistent compound classes");
  }
  std::vector<bool> is_target(num_class_vars, false);
  for (int class_index : target_class_indices) {
    is_target[class_index] = true;
  }
  const std::uint64_t subsets = std::uint64_t{1} << num_class_vars;
  for (std::uint64_t z = 0; z < subsets; ++z) {
    // Z = class unknowns pinned to zero (bit set => in Z). The target
    // needs some compound class outside Z.
    bool target_possible = false;
    for (size_t i = 0; i < num_class_vars; ++i) {
      if (is_target[i] && ((z >> i) & 1) == 0) {
        target_possible = true;
        break;
      }
    }
    if (!target_possible) {
      continue;
    }
    LinearSystem candidate = cr_system.system;
    for (size_t i = 0; i < num_class_vars; ++i) {
      VarId var = cr_system.class_vars[i];
      if ((z >> i) & 1) {
        candidate.AddEq(LinearExpr::Var(var));
      } else {
        // Strict positivity; homogeneity makes `>= 1` equivalent.
        LinearExpr expr = LinearExpr::Var(var);
        expr.AddConstant(Rational(-1));
        candidate.AddGe(std::move(expr));
      }
    }
    for (const Dependency& dependency : dependencies) {
      for (VarId source : dependency.depends_on) {
        bool source_in_z = false;
        for (size_t i = 0; i < num_class_vars; ++i) {
          if (cr_system.class_vars[i] == source && ((z >> i) & 1)) {
            source_in_z = true;
            break;
          }
        }
        if (source_in_z) {
          candidate.AddEq(LinearExpr::Var(dependency.dependent));
          break;
        }
      }
    }
    CRSAT_ASSIGN_OR_RETURN(LpResult lp,
                           SimplexSolver::CheckFeasibility(candidate));
    if (lp.outcome == LpOutcome::kOptimal) {
      return true;
    }
  }
  return false;
}

}  // namespace crsat
