#include "src/lp/homogeneous.h"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <utility>

#include "src/base/degradation.h"
#include "src/base/failpoint.h"
#include "src/base/incremental.h"
#include "src/base/resource_guard.h"
#include "src/lp/small_rational.h"

namespace crsat {

Result<LpResult> SolveHomogeneousWithStrict(const LinearSystem& system) {
  if (!system.IsHomogeneous()) {
    return InvalidArgumentError(
        "SolveHomogeneousWithStrict requires a homogeneous system");
  }
  LinearSystem relaxed;
  for (VarId v = 0; v < system.num_variables(); ++v) {
    relaxed.AddVariable(system.VariableName(v), system.IsNonnegative(v));
  }
  for (const Constraint& constraint : system.constraints()) {
    if (constraint.sense == ConstraintSense::kGreater) {
      LinearExpr shifted = constraint.expr;
      shifted.AddConstant(Rational(-1));
      relaxed.AddGe(std::move(shifted));
    } else {
      relaxed.AddConstraint(constraint.expr, constraint.sense);
    }
  }
  return SimplexSolver::CheckFeasibility(relaxed);
}

namespace {

// The int64 tier of the LCM/scaling stage. Every step is exact or
// refused: inputs that do not narrow to int64, an LCM that leaves int64,
// or a scaled numerator flagged by `SmallRational`'s sticky overflow flag
// all return false, and the caller reruns on BigInt.
bool ScaleToIntegerSolutionFast(const std::vector<Rational>& values,
                                std::vector<BigInt>* out) {
  std::vector<SmallRational> narrow;
  narrow.reserve(values.size());
  for (const Rational& value : values) {
    Result<std::int64_t> num = value.numerator().ToInt64();
    Result<std::int64_t> den = value.denominator().ToInt64();
    if (!num.ok() || !den.ok()) {
      return false;
    }
    narrow.push_back(SmallRational::FromReduced(num.value(), den.value()));
  }
  std::int64_t lcm = 1;
  for (const SmallRational& value : narrow) {
    const std::int64_t den = value.denominator();
    const std::int64_t gcd = std::gcd(lcm, den);
    const __int128 wide = static_cast<__int128>(lcm / gcd) * den;
    if (wide > std::numeric_limits<std::int64_t>::max()) {
      return false;
    }
    lcm = static_cast<std::int64_t>(wide);
  }
  SmallRational::ClearOverflow();
  const SmallRational factor(lcm);
  std::vector<std::int64_t> scaled;
  scaled.reserve(narrow.size());
  std::int64_t gcd = 0;
  for (const SmallRational& value : narrow) {
    const SmallRational integer = value * factor;
    if (SmallRational::OverflowSeen()) {
      SmallRational::ClearOverflow();
      return false;
    }
    // lcm is a multiple of every denominator, so the reduced product is
    // integral by construction.
    scaled.push_back(integer.numerator());
    gcd = std::gcd(gcd, std::abs(integer.numerator()));
  }
  out->clear();
  out->reserve(scaled.size());
  for (std::int64_t value : scaled) {
    out->push_back(BigInt(gcd > 1 ? value / gcd : value));
  }
  return true;
}

}  // namespace

std::vector<BigInt> ScaleToIntegerSolution(const std::vector<Rational>& values,
                                           IntegerScaleStats* stats) {
  std::vector<BigInt> fast;
  if (ScaleToIntegerSolutionFast(values, &fast)) {
    if (stats != nullptr) {
      stats->used_fast_path = true;
      stats->exact_fallback = false;
    }
    return fast;
  }
  if (stats != nullptr) {
    stats->used_fast_path = false;
    stats->exact_fallback = true;
  }
  BigInt denominator_lcm(1);
  for (const Rational& value : values) {
    denominator_lcm = Lcm(denominator_lcm, value.denominator());
  }
  std::vector<BigInt> scaled;
  scaled.reserve(values.size());
  BigInt numerator_gcd;
  for (const Rational& value : values) {
    BigInt integer =
        value.numerator() * (denominator_lcm / value.denominator());
    numerator_gcd = Gcd(numerator_gcd, integer);
    scaled.push_back(std::move(integer));
  }
  if (numerator_gcd > BigInt(1)) {
    for (BigInt& value : scaled) {
      value /= numerator_gcd;
    }
  }
  return scaled;
}

std::vector<BigInt> ScaleSolution(const std::vector<BigInt>& values,
                                  const BigInt& factor) {
  std::vector<BigInt> scaled;
  scaled.reserve(values.size());
  for (const BigInt& value : values) {
    scaled.push_back(value * factor);
  }
  return scaled;
}

Result<SupportResult> ComputeMaximalSupport(
    const LinearSystem& system, const std::vector<bool>& forced_zero,
    WarmStartBasisCache* basis_cache, ResourceGuard* guard,
    bool minimal_witness) {
  if (!system.IsHomogeneous()) {
    return InvalidArgumentError(
        "ComputeMaximalSupport requires a homogeneous system");
  }
  if (system.HasStrictConstraints()) {
    return InvalidArgumentError(
        "ComputeMaximalSupport requires non-strict constraints");
  }
  if (forced_zero.size() != static_cast<size_t>(system.num_variables())) {
    return InvalidArgumentError(
        "forced_zero size must match the number of variables");
  }

  const int n = system.num_variables();
  for (VarId v = 0; v < n; ++v) {
    if (!system.IsNonnegative(v)) {
      return InvalidArgumentError(
          "ComputeMaximalSupport requires nonnegative variables");
    }
  }
  SupportResult result;
  result.positive.assign(n, false);
  result.witness.assign(n, Rational());

  // Substitute the pinned variables out: they are zero on the subspace of
  // interest, so their terms just vanish and the LP never sees them.
  std::vector<VarId> to_probe(n, -1);
  std::vector<VarId> from_probe;
  LinearSystem pinned;
  for (VarId v = 0; v < n; ++v) {
    if (!forced_zero[v]) {
      to_probe[v] = pinned.AddVariable(system.VariableName(v),
                                      /*nonnegative=*/true);
      from_probe.push_back(v);
    }
  }
  for (const Constraint& constraint : system.constraints()) {
    LinearExpr remapped;
    for (const auto& [var, coeff] : constraint.expr.terms()) {
      if (to_probe[var] >= 0) {
        remapped.AddTerm(to_probe[var], coeff);
      }
    }
    pinned.AddConstraint(std::move(remapped), constraint.sense);
  }
  // Group probing. Each probe asks one feasibility question about
  // a group G of still-undetermined variables:
  //
  //   sum of G >= 1
  //
  // (equivalent by scaling to "some variable of G positive" on the cone).
  // Infeasible => *every* variable of G is zero in every solution of the
  // pinned system — certified by a single LP. Feasible => the witness is a
  // solution of the shared pinned system, so it is folded into the global
  // accumulator and marks at least one member of G (its G-sum is >= 1)
  // plus typically many other variables positive at once.
  //
  // Round 0 probes all undetermined variables as ONE group — the common
  // case (most variables supported, or the whole cone trivial) then costs
  // a single LP. Later rounds split the survivors into up to
  // kMaxGroupsPerRound groups, probed one after another. Every group
  // shrinks the undetermined set each round (infeasible => members removed
  // as proven zero; feasible => >= 1 member marked positive), so the loop
  // terminates.
  //
  // Warm starts: every probe in this call has the same shape (the pinned
  // system plus one `>= 1` row), so a local carry — seeded from
  // `basis_cache`, replaced after each round by the first feasible
  // probe's export, stored back at the end — lets each probe start from
  // the previous vertex and repair primal feasibility with a few dual
  // pivots instead of a cold phase 1. Every probe of a round starts from
  // the carry the round started with.
  // Incremental path: compute the whole maximal support with ONE LP
  // instead of O(support) feasibility probes. For each unpinned variable
  // x_u add a deficit variable y_u >= 0 with `x_u + y_u >= 1`, and
  // minimize sum(y). The cone is closed under addition and scaling, so
  // solutions positive on each supportable coordinate sum and scale to
  // ONE solution with x_u >= 1 on every supportable u at once — that
  // point has y_u = 0 on the supportable set, and an unsupportable u has
  // x_u = 0 in every solution, forcing y_u = 1. The optimum is therefore
  // exactly the number of unsupportable variables, reached only when
  // x*_u > 0 for EVERY supportable u; since supp(x*) can never exceed the
  // maximal support (x* is itself a solution of the pinned cone),
  // supp(x*) IS the maximal support. One interior-like witness replaces
  // the probe rounds below, whose feasibility vertices certify only one
  // or two variables each. Verdict-equivalent — the maximal support is
  // unique — but kept behind the incremental gate so the forced-cold
  // reference path preserves the historical probe sequence.
  // Minimal witness: on the optimal face y_u = 0 wherever u is
  // supportable (so x_u >= 1) and x_u = 0 elsewhere, so a second stage
  // minimizing sum(x) on that face yields the least solution with x_u >= 1
  // on the support: the witness the integer stage scales.
  // A cover-LP failure — injected via `lp/support_cover_fail`, or a
  // genuine non-resource failure — degrades to the per-group probe
  // rounds below (rung 0 -> 1) instead of erroring out: the rounds
  // compute the same unique maximal support, just slower. Resource
  // statuses still propagate (the trip is sticky; retrying would trip
  // again immediately).
  if (IncrementalReasoningEnabled() && pinned.num_variables() > 0) {
    const int nu = pinned.num_variables();
    LinearSystem covered = pinned;
    LinearExpr total_deficit;
    LinearExpr total;
    std::vector<VarId> crash_vars;
    crash_vars.reserve(nu);
    for (VarId u = 0; u < nu; ++u) {
      if (minimal_witness) {
        total.AddTerm(u, Rational(1));
      }
      VarId y = covered.AddVariable("y_" + pinned.VariableName(u),
                                    /*nonnegative=*/true);
      LinearExpr cover = LinearExpr::Var(y);
      cover.AddTerm(u, Rational(1));
      cover.AddConstant(Rational(-1));
      covered.AddGe(std::move(cover));  // x_u + y_u >= 1
      total_deficit.AddTerm(y, Rational(1));
      crash_vars.push_back(y);
    }
    const int cover_constraints =
        static_cast<int>(covered.constraints().size());
    SimplexOptions options;
    options.guard = guard;
    // y = 1, x = 0 is feasible, and each y's unit column evicts its row's
    // artificial in one sparse pivot: the crash makes phase 1 a no-op.
    options.crash_vars = &crash_vars;
    if (minimal_witness) {
      options.then_minimize = &total;
    }
    WarmStartBasis carry;
    WarmStartBasis exported;
    if (basis_cache != nullptr) {
      const WarmStartBasis* cached =
          basis_cache->Lookup(covered.num_variables(), cover_constraints);
      if (cached != nullptr) {
        carry = *cached;
      }
      if (!carry.empty()) {
        options.warm_start = &carry;
      }
      options.export_basis = &exported;
    }
    if (!CRSAT_FAILPOINT("lp/support_cover_fail")) {
      Result<LpResult> lp = SimplexSolver::SolveWith(
          covered, total_deficit, /*maximize=*/false, options);
      if (!lp.ok() && IsResourceLimitStatus(lp.status().code())) {
        return lp.status();
      }
      // lp.ok() with a non-optimal outcome cannot happen on a sound
      // solver (x = 0, y = 1 is always feasible and the objective is
      // bounded below by zero); treat it like any other cover failure
      // and let the probe rounds decide.
      if (lp.ok() && lp->outcome == LpOutcome::kOptimal) {
        if (basis_cache != nullptr && !exported.empty()) {
          basis_cache->Store(covered.num_variables(), cover_constraints,
                             std::move(exported));
        }
        for (VarId u = 0; u < nu; ++u) {
          result.witness[from_probe[u]] = lp->values[u];
          result.positive[from_probe[u]] = lp->values[u].IsPositive();
        }
        result.witness_is_minimal = minimal_witness;
        return result;
      }
    }
    GetRecoveryStats().cover_fallbacks.fetch_add(1,
                                                 std::memory_order_relaxed);
  }

  constexpr size_t kMaxGroupsPerRound = 8;
  const int probe_constraints =
      static_cast<int>(pinned.constraints().size()) + 1;
  WarmStartBasis carry;
  if (basis_cache != nullptr) {
    const WarmStartBasis* cached =
        basis_cache->Lookup(pinned.num_variables(), probe_constraints);
    if (cached != nullptr) {
      carry = *cached;
    }
  }
  std::vector<VarId> undetermined;
  for (VarId v = 0; v < pinned.num_variables(); ++v) {
    undetermined.push_back(v);
  }
  int round = 0;
  while (!undetermined.empty()) {
    if (guard != nullptr) {
      // Round boundary: consult the clock unconditionally so deadline
      // trips surface between rounds even when probes are tiny.
      CRSAT_RETURN_IF_ERROR(guard->CheckNow("homogeneous/probe_round"));
    }
    const size_t num_groups =
        round == 0 ? 1
                   : std::min(kMaxGroupsPerRound, undetermined.size());
    ++round;
    // Contiguous chunks of the (deterministically ordered) undetermined
    // list; chunk g covers [g*U/G, (g+1)*U/G).
    std::vector<bool> proven_zero(pinned.num_variables(), false);
    WarmStartBasis next_carry;
    for (size_t g = 0; g < num_groups; ++g) {
      const size_t begin = g * undetermined.size() / num_groups;
      const size_t end = (g + 1) * undetermined.size() / num_groups;
      LinearSystem probe = pinned;
      LinearExpr at_least_one;
      for (size_t i = begin; i < end; ++i) {
        at_least_one.AddTerm(undetermined[i], Rational(1));
      }
      at_least_one.AddConstant(Rational(-1));
      probe.AddGe(std::move(at_least_one));
      SimplexOptions options;
      if (!carry.empty()) {
        options.warm_start = &carry;
      }
      WarmStartBasis exported;
      options.export_basis = &exported;
      options.guard = guard;
      CRSAT_ASSIGN_OR_RETURN(
          LpResult verdict,
          SimplexSolver::SolveWith(probe, LinearExpr(), /*maximize=*/false,
                                   options));
      if (next_carry.empty()) {
        next_carry = std::move(exported);
      }
      if (verdict.outcome != LpOutcome::kOptimal) {
        // No solution of the pinned system makes any member of this group
        // positive; they are settled (and stay out of later witnesses).
        for (size_t i = begin; i < end; ++i) {
          proven_zero[undetermined[i]] = true;
        }
        continue;
      }
      for (VarId u = 0; u < pinned.num_variables(); ++u) {
        result.witness[from_probe[u]] += verdict.values[u];
        if (verdict.values[u].IsPositive()) {
          result.positive[from_probe[u]] = true;
        }
      }
    }
    // The first feasible probe's basis seeds the next round and,
    // ultimately, the caller's next same-shaped call.
    if (!next_carry.empty()) {
      carry = std::move(next_carry);
    }
    std::vector<VarId> still_undetermined;
    for (VarId v : undetermined) {
      if (!proven_zero[v] && !result.positive[from_probe[v]]) {
        still_undetermined.push_back(v);
      }
    }
    undetermined = std::move(still_undetermined);
  }
  if (basis_cache != nullptr && !carry.empty()) {
    basis_cache->Store(pinned.num_variables(), probe_constraints,
                       std::move(carry));
  }
  return result;
}

namespace {

// The least solution of `system` with every `positive` variable >= 1 and
// every other one 0: the cover LP's second stage, for a support the probe
// rounds decided. Falls back to `fallback` if the LP is not optimal
// (cannot happen for a correct support; defensive).
Result<std::vector<Rational>> MinimalWitnessForSupport(
    const LinearSystem& system, const std::vector<bool>& positive,
    const std::vector<Rational>& fallback, ResourceGuard* guard) {
  LinearSystem pinned = system;
  LinearExpr total;
  for (VarId v = 0; v < pinned.num_variables(); ++v) {
    if (positive[v]) {
      LinearExpr at_least_one = LinearExpr::Var(v);
      at_least_one.AddConstant(Rational(-1));
      pinned.AddGe(std::move(at_least_one));
      total.AddTerm(v, Rational(1));
    } else {
      pinned.AddEq(LinearExpr::Var(v));
    }
  }
  SimplexOptions options;
  options.guard = guard;
  CRSAT_ASSIGN_OR_RETURN(
      LpResult lp,
      SimplexSolver::SolveWith(pinned, total, /*maximize=*/false, options));
  if (lp.outcome != LpOutcome::kOptimal) {
    return fallback;
  }
  return std::move(lp.values);
}

}  // namespace

Result<AcceptableSupport> ComputeAcceptableSupport(
    const LinearSystem& system, const std::vector<Dependency>& dependencies,
    WarmStartBasisCache* probe_cache, ResourceGuard* guard,
    const std::vector<bool>* seed_zero, bool minimal_witness) {
  const int n = system.num_variables();
  std::vector<bool> forced_zero =
      seed_zero != nullptr ? *seed_zero : std::vector<bool>(n, false);
  SupportResult support;
  while (true) {
    // Every iteration sees the shape-keyed cache: later iterations pin
    // more variables (a different probe shape), so they miss the earlier
    // iterations' entries but warm-start within their own shape family —
    // and across calls on similarly-pinned systems.
    CRSAT_ASSIGN_OR_RETURN(
        support,
        ComputeMaximalSupport(system, forced_zero, probe_cache, guard,
                              minimal_witness));
    // (a) Variables the LP proves zero under the current pinning are zero
    // in every acceptable solution (every acceptable solution satisfies
    // the pinned system). Pinning them does not change the LP's maximal
    // support, so they alone never call for another round.
    for (VarId v = 0; v < n; ++v) {
      if (!support.positive[v]) {
        forced_zero[v] = true;
      }
    }
    // (b) Dependency propagation: a relationship unknown is zero in every
    // acceptable solution once one of its class unknowns is. After (a)
    // every unpinned variable is positive in the last LP, so each new pin
    // here shrinks the support and the LP must run again.
    bool changed = false;
    for (const Dependency& dependency : dependencies) {
      if (forced_zero[dependency.dependent]) {
        continue;
      }
      for (VarId source : dependency.depends_on) {
        if (forced_zero[source]) {
          forced_zero[dependency.dependent] = true;
          changed = true;
          break;
        }
      }
    }
    if (!changed) {
      break;
    }
  }
  AcceptableSupport result;
  result.positive = std::move(support.positive);
  result.witness = std::move(support.witness);
  // The last LP's support is the final one, so a minimal witness from its
  // second stage is the answer; the probe rounds leave a sum of vertices.
  // An empty support's zero witness is minimal already.
  if (minimal_witness && !support.witness_is_minimal &&
      std::find(result.positive.begin(), result.positive.end(), true) !=
          result.positive.end()) {
    CRSAT_ASSIGN_OR_RETURN(
        result.witness,
        MinimalWitnessForSupport(system, result.positive, result.witness,
                                 guard));
  }
  return result;
}

}  // namespace crsat
