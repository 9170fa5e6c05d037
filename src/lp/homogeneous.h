#ifndef CRSAT_LP_HOMOGENEOUS_H_
#define CRSAT_LP_HOMOGENEOUS_H_

#include <optional>
#include <vector>

#include "src/base/result.h"
#include "src/lp/simplex.h"
#include "src/math/bigint.h"

namespace crsat {

/// Helpers for homogeneous linear systems (all constant terms zero), whose
/// solution sets are convex cones closed under addition and positive
/// scaling. The paper's systems Psi_S are of exactly this shape, which is
/// what lets strict constraints and integrality be handled by scaling.
/// The acceptable-support fixpoint of Section 3.3 lives here too, at the
/// bottom of the file: it touches only the system and the simplex, and
/// both the reasoner (src/reasoner/satisfiability.h) and the
/// Lenzerini-Nobili baseline (src/baseline/ln_reasoner.h) drive it.

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
  /// True when `witness` is a *minimal* witness: `>= 1` on every supported
  /// variable, with the least total among such solutions. Only the cover
  /// LP's second stage produces one (see `ComputeMaximalSupport`).
  bool witness_is_minimal = false;
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
///
/// `minimal_witness` asks the cover LP for a second stage
/// (`SimplexOptions::then_minimize`): on its optimal face every supported
/// variable is `>= 1` and every other one is 0, so minimizing their sum
/// there leaves the minimal witness in `witness` (`witness_is_minimal`).
/// The probe rounds never produce one.
Result<SupportResult> ComputeMaximalSupport(
    const LinearSystem& system, const std::vector<bool>& forced_zero,
    WarmStartBasisCache* basis_cache = nullptr,
    ResourceGuard* guard = nullptr, bool minimal_witness = false);

/// The maximal support realizable by an *acceptable* solution of a
/// homogeneous system (Section 3.3: a solution is acceptable if every
/// relationship unknown that depends on a zero class unknown is itself
/// zero).
struct AcceptableSupport {
  /// `positive[v]` iff some acceptable solution assigns `v` a positive
  /// value — equivalently (acceptable solutions are closed under addition)
  /// iff the maximum-support acceptable solution does.
  std::vector<bool> positive;
  /// One acceptable solution whose support is exactly `positive`; the
  /// minimal one when the computation was asked for it.
  std::vector<Rational> witness;
};

/// A dependency edge: `dependent` must be zero whenever any variable in
/// `depends_on` is zero (the paper's "Var(R) depends on Var(C)").
struct Dependency {
  VarId dependent;
  std::vector<VarId> depends_on;
};

/// Computes the maximal acceptable support of a homogeneous non-strict
/// `system` under the given dependencies.
///
/// Algorithm (equivalent to Theorem 3.4's subset enumeration, but
/// polynomial in the system size): maintain a set of variables proven zero
/// in every acceptable solution; alternate (a) LP probes marking variables
/// that cannot be positive once the proven-zero ones are pinned, and (b)
/// dependency propagation, until a fixpoint. Acceptable solutions form a
/// cone closed under addition, so the surviving variables are exactly the
/// support of a single (witness) acceptable solution.
///
/// `probe_cache`, when non-null, carries warm-start bases across LP probes
/// — both across the fixpoint's own iterations (whose probe shapes shrink
/// as more variables are pinned; the shape-keyed cache serves each shape
/// family) and across successive calls on related systems (see
/// `ComputeMaximalSupport`). Reuse affects cost only, never verdicts.
///
/// `seed_zero`, when non-null (size = `system.num_variables()`), pre-pins
/// variables already known to be zero in every acceptable solution (e.g.
/// unknowns whose constraint rows force them to zero structurally). The
/// seeds must be sound: the fixpoint would prove them zero anyway, so
/// seeding skips LP rounds without changing the resulting support.
///
/// `guard`, when non-null, bounds the whole fixpoint (it is handed down to
/// every LP probe; see `ComputeMaximalSupport`).
///
/// `minimal_witness` makes `witness` the *minimal* acceptable solution
/// with support `positive`: every supported variable `>= 1`, least total.
/// Minimal witnesses keep the integer scaling, and the models built from
/// it, small; the fixpoint's last cover LP yields one in its second stage
/// for about two extra pivots. When that LP did not run (the probe rounds
/// decided: `CRSAT_NO_INCREMENTAL`, or a cover failure) one more LP
/// minimizes the total with the support pinned. Verdict-only callers pass
/// false and keep whatever solution the last LP left.
Result<AcceptableSupport> ComputeAcceptableSupport(
    const LinearSystem& system, const std::vector<Dependency>& dependencies,
    WarmStartBasisCache* probe_cache = nullptr, ResourceGuard* guard = nullptr,
    const std::vector<bool>* seed_zero = nullptr,
    bool minimal_witness = false);

/// Theorem 3.3's question for one target, asked of a single LP: is there
/// an acceptable solution of `system` (homogeneous and non-strict, over
/// nonnegative variables, as for `ComputeAcceptableSupport`) with some
/// `target` variable positive? Solves the cone with the `seed_zero`
/// variables substituted
/// out, plus one row `sum of target >= 1` (the probe shape of
/// `ComputeMaximalSupport`'s rounds, so `probe_cache` serves and keeps it
/// the same way). The seeds must be sound, as for
/// `ComputeAcceptableSupport`. Three outcomes:
///   - infeasible: no solution, so no acceptable one: `false`;
///   - a vertex on which every positive dependent has all its sources
///     positive: it is an acceptable solution with a positive target
///     (scaled, an acceptable integer solution): `true`;
///   - any other vertex is not acceptable and settles nothing: nullopt,
///     and the caller runs the support fixpoint (Theorem 3.4).
/// `guard`, when non-null, is polled per pivot; a trip returns its status.
Result<std::optional<bool>> ProbeAcceptableTarget(
    const LinearSystem& system, const std::vector<Dependency>& dependencies,
    const std::vector<bool>& seed_zero, const std::vector<VarId>& target,
    WarmStartBasisCache* probe_cache = nullptr,
    ResourceGuard* guard = nullptr);

}  // namespace crsat

#endif  // CRSAT_LP_HOMOGENEOUS_H_
