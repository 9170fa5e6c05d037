#include "src/witness/integer_solution.h"

#include <utility>
#include <vector>

#include "src/lp/homogeneous.h"

namespace crsat {

Result<IntegerSolution> SolveIntegerStage(const SatisfiabilityChecker& checker,
                                          const WitnessOptions& options,
                                          WarmStartBasis* basis_carry,
                                          WitnessStats* stats) {
  ResourceGuard* guard = options.guard != nullptr
                             ? options.guard
                             : checker.expansion().options().guard;
  if (guard != nullptr) {
    CRSAT_RETURN_IF_ERROR(guard->CheckNow("witness/integer"));
  }
  const Result<AcceptableSupport>& cached = checker.Support(guard);
  if (!cached.ok()) {
    return cached.status();
  }
  const AcceptableSupport& support = *cached;
  const CrSystem& cr_system = checker.cr_system();

  // Nothing to witness when every class unknown is zero in every
  // acceptable solution. This test comes before the minimization LP, so an
  // all-UNSAT schema triggers no solver work here at all.
  bool any_class_positive = false;
  for (VarId var : cr_system.class_vars) {
    if (support.positive[var]) {
      any_class_positive = true;
      break;
    }
  }
  if (!any_class_positive) {
    return InvalidArgumentError(
        "witness: every class is unsatisfiable; there is no nonempty finite "
        "model to synthesize");
  }

  CRSAT_ASSIGN_OR_RETURN(
      std::vector<Rational> witness,
      MinimalWitnessForSupport(cr_system.system, support.positive,
                               support.witness, guard, basis_carry));

  IntegerScaleStats scale_stats;
  std::vector<BigInt> integers = ScaleToIntegerSolution(witness, &scale_stats);
  if (stats != nullptr) {
    stats->integer_fast_path = scale_stats.used_fast_path;
    stats->integer_exact_fallback = scale_stats.exact_fallback;
  }

  // Defensive re-check of the acceptability side-condition on the scaled
  // integers (scaling by a positive constant preserves supports, so a
  // failure here is a bug, not an input property).
  for (const Dependency& dependency : checker.dependencies()) {
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
  solution.class_counts.reserve(cr_system.class_vars.size());
  for (VarId var : cr_system.class_vars) {
    solution.class_counts.push_back(integers[var]);
  }
  solution.rel_counts.reserve(cr_system.rel_vars.size());
  for (VarId var : cr_system.rel_vars) {
    solution.rel_counts.push_back(integers[var]);
  }
  return solution;
}

}  // namespace crsat
