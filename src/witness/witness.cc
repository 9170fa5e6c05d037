#include "src/witness/witness.h"

#include <string>
#include <utility>
#include <vector>

#include "src/witness/integer_solution.h"
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
  WitnessStats stats;
  CRSAT_ASSIGN_OR_RETURN(
      IntegerSolution solution,
      SolveIntegerStage(*checker_, options, &stats));
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
