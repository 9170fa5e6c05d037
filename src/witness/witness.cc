#include "src/witness/witness.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "src/witness/tuple_assignment.h"

namespace crsat {

namespace {

ResourceGuard* ResolveGuard(const WitnessOptions& options,
                            const Expansion& expansion) {
  return options.guard != nullptr ? options.guard : expansion.options().guard;
}

}  // namespace

Result<CertifiedWitness> WitnessSynthesizer::Synthesize(
    const WitnessOptions& options) const {
  const Expansion& expansion = checker_->expansion();
  ResourceGuard* guard = ResolveGuard(options, expansion);
  // Stage 1: scale the minimal witness that the checker's cached support
  // carries; no LP runs beyond the support itself.
  if (guard != nullptr) {
    CRSAT_RETURN_IF_ERROR(guard->CheckNow("witness/integer"));
  }
  const Result<AcceptableSupport>& support = checker_->Support(guard);
  if (!support.ok()) {
    return support.status();
  }
  // Nothing to witness when every class unknown is zero in every
  // acceptable solution.
  const std::vector<VarId>& class_vars = checker_->cr_system().class_vars;
  if (std::none_of(class_vars.begin(), class_vars.end(),
                   [&](VarId var) { return support->positive[var]; })) {
    return InvalidArgumentError(
        "witness: every class is unsatisfiable; there is no nonempty finite "
        "model to synthesize");
  }
  IntegerScaleStats scale_stats;
  CRSAT_ASSIGN_OR_RETURN(
      IntegerSolution solution,
      checker_->AcceptableIntegerSolution(guard, &scale_stats));
  WitnessStats stats;
  stats.integer_fast_path = scale_stats.used_fast_path;
  stats.integer_exact_fallback = scale_stats.exact_fallback;
  CRSAT_ASSIGN_OR_RETURN(
      Interpretation interpretation,
      AssignTuples(expansion, solution, options, &stats, guard));
  if (guard != nullptr) {
    CRSAT_RETURN_IF_ERROR(guard->CheckNow("witness/certify"));
  }
  return CertifiedWitness::Certify(expansion.schema(),
                                   std::move(interpretation), stats,
                                   options.source_map);
}

Result<CertifiedWitness> WitnessSynthesizer::SynthesizeFromSolution(
    const Expansion& expansion, const IntegerSolution& solution,
    const WitnessOptions& options) {
  ResourceGuard* guard = ResolveGuard(options, expansion);
  WitnessStats stats;
  CRSAT_ASSIGN_OR_RETURN(
      Interpretation interpretation,
      AssignTuples(expansion, solution, options, &stats, guard));
  if (guard != nullptr) {
    CRSAT_RETURN_IF_ERROR(guard->CheckNow("witness/certify"));
  }
  return CertifiedWitness::Certify(expansion.schema(),
                                   std::move(interpretation), stats,
                                   options.source_map);
}

}  // namespace crsat
