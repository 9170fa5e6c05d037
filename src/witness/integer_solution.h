#ifndef CRSAT_WITNESS_INTEGER_SOLUTION_H_
#define CRSAT_WITNESS_INTEGER_SOLUTION_H_

#include "src/base/result.h"
#include "src/reasoner/satisfiability.h"
#include "src/witness/witness.h"

namespace crsat {

/// Stage 1 of witness synthesis: scales the minimal witness that the
/// checker's cached maximal acceptable support carries to a nonnegative
/// integer solution of Psi_S. Runs no LP beyond the support itself.
///
/// Polls the guard at `witness/integer`, then refuses with
/// `kInvalidArgument` when the support has no positive class variable (an
/// all-unsatisfiable schema has nothing to witness). Otherwise it is
/// `SatisfiabilityChecker::AcceptableIntegerSolution`: LCM scaling (int64
/// `SmallRational` fast path with exact BigInt fallback; recorded in
/// `stats`) and the acceptability re-check on the integers.
///
/// `stats` may be null.
Result<IntegerSolution> SolveIntegerStage(const SatisfiabilityChecker& checker,
                                          const WitnessOptions& options,
                                          WitnessStats* stats);

}  // namespace crsat

#endif  // CRSAT_WITNESS_INTEGER_SOLUTION_H_
