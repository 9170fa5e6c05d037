#ifndef CRSAT_LP_HOMOGENEOUS_H_
#define CRSAT_LP_HOMOGENEOUS_H_

#include <vector>

#include "src/base/result.h"
#include "src/lp/simplex.h"
#include "src/math/bigint.h"

namespace crsat {

/// Helpers for homogeneous linear systems (all constant terms zero), whose
/// solution sets are convex cones closed under addition and positive
/// scaling. The paper's systems Psi_S are of exactly this shape, which is
/// what lets strict constraints and integrality be handled by scaling.

/// Decides feasibility of a homogeneous `system` that may contain strict
/// (`expr > 0`) constraints, returning a satisfying assignment when one
/// exists. Each strict constraint is replaced by `expr >= 1`: sound because
/// scaling any solution with `expr > 0` for all strict rows makes every
/// such expression reach 1 without affecting the homogeneous rows.
/// Fails with `InvalidArgument` if `system` is not homogeneous.
Result<LpResult> SolveHomogeneousWithStrict(const LinearSystem& system);

/// Accounting for one `ScaleToIntegerSolution` run. The witness pipeline's
/// integer-solution stage surfaces these so tests can pin down which
/// arithmetic tier actually produced a scaling.
struct IntegerScaleStats {
  /// The overflow-checked int64 (`SmallRational`) fast path produced the
  /// result.
  bool used_fast_path = false;
  /// The fast path overflowed (LCM or a scaled numerator left the int64
  /// range) and the exact BigInt path was run instead.
  bool exact_fallback = false;
};

/// Scales a rational solution of a homogeneous system to an integer one:
/// multiplies by the lcm of all denominators, then divides by the gcd of
/// the numerators (keeping the vector minimal). All-zero input stays zero.
///
/// Mirrors the simplex's two-tier arithmetic: the LCM/scaling runs on the
/// overflow-checked int64 `SmallRational` path first (src/lp/
/// small_rational.h) and falls back to exact `Rational`/`BigInt`
/// arithmetic when any intermediate leaves the representable range. Both
/// tiers compute the identical vector; `stats`, when non-null, records
/// which tier ran.
std::vector<BigInt> ScaleToIntegerSolution(const std::vector<Rational>& values,
                                           IntegerScaleStats* stats = nullptr);

/// Multiplies an integer solution by `factor` (solutions of homogeneous
/// systems are closed under positive scaling).
std::vector<BigInt> ScaleSolution(const std::vector<BigInt>& values,
                                  const BigInt& factor);

/// Result of a maximal-support computation.
struct SupportResult {
  /// `positive[v]` is true iff some solution of the restricted system
  /// assigns a strictly positive value to variable `v`.
  std::vector<bool> positive;
  /// A single solution realizing the full support simultaneously (the sum
  /// of per-variable witnesses; valid because the solution set is a cone).
  std::vector<Rational> witness;
};

/// Computes, for a homogeneous non-strict `system` with nonnegative
/// variables, which variables can be strictly positive once the variables
/// in `forced_zero` are pinned to 0. This is the LP core of the paper's
/// acceptable-solution search (Theorem 3.4): each probe solves
/// `system + {x_u = 0 : forced} + {sum of a group >= 1}`.
/// `forced_zero.size()` must equal `system.num_variables()`.
///
/// The probes run serially, in rounds: round 0 probes every variable as
/// one group, later rounds split the still-undetermined variables into up
/// to eight contiguous groups. When `IncrementalReasoningEnabled()`, one
/// cover LP computes the whole support instead, and the rounds run only
/// if it fails.
///
/// `basis_cache`, when non-null, threads warm-start bases across
/// *successive calls* (e.g. the implication engine's bisection probes,
/// which differ only in one overridden cardinality coefficient, or a
/// satisfiability fixpoint whose pinned-out set grows between iterations).
/// Every probe of this call shares one shape — the pinned system plus a
/// single `>= 1` row — so the call keeps a local carry: it is seeded from
/// the cache entry for that shape, every probe of a round offers the carry
/// the round started with to the solver, after each round the first
/// feasible probe's exported basis becomes the new carry, and the final
/// carry is stored back. A carried basis that is no longer primal-feasible
/// for a probe is repaired by dual pivots (see
/// `SimplexOptions::warm_start`); reuse affects cost only, never verdicts.
///
/// `guard`, when non-null, is polled between probe rounds and per pivot
/// inside each probe's solve; a trip aborts the computation with the
/// guard's status.
Result<SupportResult> ComputeMaximalSupport(
    const LinearSystem& system, const std::vector<bool>& forced_zero,
    WarmStartBasisCache* basis_cache = nullptr,
    ResourceGuard* guard = nullptr);

}  // namespace crsat

#endif  // CRSAT_LP_HOMOGENEOUS_H_
