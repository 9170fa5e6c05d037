#ifndef CRSAT_WITNESS_TUPLE_ASSIGNMENT_H_
#define CRSAT_WITNESS_TUPLE_ASSIGNMENT_H_

#include "src/base/result.h"
#include "src/cr/interpretation.h"
#include "src/expansion/expansion.h"
#include "src/reasoner/satisfiability.h"
#include "src/witness/witness.h"

namespace crsat {

/// Stage 2 of witness synthesis: materializes an interpretation realizing
/// `solution` (possibly scaled up — acceptable solutions of the
/// homogeneous system stay acceptable under positive scaling).
///
/// For each consistent compound class with count `t`, `t` fresh
/// individuals are created and added to the member classes' extensions.
/// Tuples of each compound relationship draw their role fillers
/// round-robin from a global per-(relationship, role, compound class)
/// rotation, which keeps every individual's tuple count within the lifted
/// `[minc, maxc]` window. Relationship extensions are sets, so tuples
/// within one compound relationship must also be pairwise distinct; when
/// round-robin collides, the compound relationship is re-realized
/// coordinate by coordinate with a min-congestion max-flow assignment
/// (counted in `stats->flow_refinements`), and as a last resort the whole
/// solution is doubled and retried, up to 8 times (the rung-2 budget of
/// the degradation ladder, src/base/degradation.h; counted in
/// `stats->scaling_attempts`).
///
/// `guard` is polled per individual block and per tuple batch, charged for
/// the interpretation's dominant allocations, and handed down to every
/// max-flow solve; a trip unwinds with the guard's resource-limit status.
/// The result is NOT certified — stage 3 (`CertifiedWitness::Certify`) is
/// the only path from here to an emitted witness.
///
/// Fails with `kUnavailable` when the retry budget or
/// `options.max_model_size` is exhausted, and `kInvalidArgument` when
/// `solution` has the wrong shape for `expansion` or is not acceptable.
Result<Interpretation> AssignTuples(const Expansion& expansion,
                                    const IntegerSolution& solution,
                                    const WitnessOptions& options,
                                    WitnessStats* stats, ResourceGuard* guard);

}  // namespace crsat

#endif  // CRSAT_WITNESS_TUPLE_ASSIGNMENT_H_
