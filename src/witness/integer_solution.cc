#include "src/witness/integer_solution.h"

#include "src/lp/homogeneous.h"

namespace crsat {

Result<IntegerSolution> SolveIntegerStage(const SatisfiabilityChecker& checker,
                                          const WitnessOptions& options,
                                          WitnessStats* stats) {
  ResourceGuard* guard = options.guard != nullptr
                             ? options.guard
                             : checker.expansion().options().guard;
  if (guard != nullptr) {
    CRSAT_RETURN_IF_ERROR(guard->CheckNow("witness/integer"));
  }
  const Result<AcceptableSupport>& support = checker.Support(guard);
  if (!support.ok()) {
    return support.status();
  }
  // Nothing to witness when every class unknown is zero in every
  // acceptable solution.
  bool any_class_positive = false;
  for (VarId var : checker.cr_system().class_vars) {
    if (support->positive[var]) {
      any_class_positive = true;
      break;
    }
  }
  if (!any_class_positive) {
    return InvalidArgumentError(
        "witness: every class is unsatisfiable; there is no nonempty finite "
        "model to synthesize");
  }
  IntegerScaleStats scale_stats;
  CRSAT_ASSIGN_OR_RETURN(
      IntegerSolution solution,
      checker.AcceptableIntegerSolution(guard, &scale_stats));
  if (stats != nullptr) {
    stats->integer_fast_path = scale_stats.used_fast_path;
    stats->integer_exact_fallback = scale_stats.exact_fallback;
  }
  return solution;
}

}  // namespace crsat
