// Tests for the two-tier simplex arithmetic (int64 fast path with exact
// fallback), the `SmallRational` scalar, warm starts, the lexicographic
// second stage (`SimplexOptions::then_minimize`), and the atomic
// `SimplexStats` counters.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <ostream>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/degradation.h"
#include "src/base/failpoint.h"
#include "src/lp/simplex.h"
#include "src/lp/small_rational.h"

namespace crsat {
namespace {

LinearExpr Expr(std::vector<std::pair<VarId, std::int64_t>> terms,
                std::int64_t constant = 0) {
  LinearExpr expr;
  for (const auto& [var, coeff] : terms) {
    expr.AddTerm(var, Rational(coeff));
  }
  expr.AddConstant(Rational(constant));
  return expr;
}

TEST(SmallRationalTest, ArithmeticMatchesRationalSemantics) {
  SmallRational::ClearOverflow();
  SmallRational a = SmallRational::FromReduced(1, 3);
  SmallRational b = SmallRational::FromReduced(1, 6);
  EXPECT_EQ(a + b, SmallRational::FromReduced(1, 2));
  EXPECT_EQ(a - b, SmallRational::FromReduced(1, 6));
  EXPECT_EQ(a * b, SmallRational::FromReduced(1, 18));
  EXPECT_EQ(a / b, SmallRational(2));
  EXPECT_EQ(-a, SmallRational::FromReduced(-1, 3));
  EXPECT_TRUE(a > b);
  EXPECT_TRUE(b < a);
  EXPECT_TRUE(SmallRational().IsZero());
  EXPECT_FALSE(SmallRational::OverflowSeen());
}

TEST(SmallRationalTest, KeepsCanonicalForm) {
  SmallRational::ClearOverflow();
  // 4/8 reduces to 1/2; negative denominators normalize on division.
  SmallRational half = SmallRational::FromReduced(1, 2);
  EXPECT_EQ(SmallRational(4) / SmallRational(8), half);
  SmallRational negative = SmallRational(1) / SmallRational(-2);
  EXPECT_EQ(negative.numerator(), -1);
  EXPECT_EQ(negative.denominator(), 2);
  EXPECT_FALSE(SmallRational::OverflowSeen());
}

TEST(SmallRationalTest, OverflowRaisesStickyFlag) {
  SmallRational::ClearOverflow();
  SmallRational huge(INT64_MAX);
  SmallRational result = huge * huge;  // ~2^126, cannot fit.
  (void)result;
  EXPECT_TRUE(SmallRational::OverflowSeen());
  // Sticky: survives subsequent in-range operations.
  SmallRational ok = SmallRational(2) + SmallRational(3);
  EXPECT_EQ(ok, SmallRational(5));
  EXPECT_TRUE(SmallRational::OverflowSeen());
  SmallRational::ClearOverflow();
  EXPECT_FALSE(SmallRational::OverflowSeen());
}

TEST(SmallRationalTest, NearOverflowAdditionFlagsExactly) {
  SmallRational::ClearOverflow();
  SmallRational max(INT64_MAX);
  SmallRational one(1);
  (void)(max + one);
  EXPECT_TRUE(SmallRational::OverflowSeen());
  SmallRational::ClearOverflow();
  // Same magnitudes, but the result reduces back into range: (max/2) * 2.
  SmallRational halfish = SmallRational::FromReduced(INT64_MAX, 2);
  EXPECT_EQ(halfish * SmallRational(2), SmallRational(INT64_MAX));
  EXPECT_FALSE(SmallRational::OverflowSeen());
}

TEST(SmallRationalTest, Int64MinNumeratorStaysExact) {
  SmallRational::ClearOverflow();
  const SmallRational min(INT64_MIN);
  // Halving takes the 64-bit reduction path with |num| = 2^63.
  EXPECT_EQ(min / SmallRational(2), SmallRational(-(std::int64_t{1} << 62)));
  EXPECT_EQ(min * SmallRational(1), min);
  const SmallRational third = min / SmallRational(3);
  EXPECT_EQ(third.numerator(), INT64_MIN);
  EXPECT_EQ(third.denominator(), 3);
  EXPECT_EQ(third * SmallRational(3), min);
  EXPECT_FALSE(SmallRational::OverflowSeen());
}

TEST(SmallRationalTest, IntegerResultsOutOfRangeFlag) {
  // Results with denominator 1 skip the gcd; the range check must not.
  const SmallRational min(INT64_MIN);
  SmallRational::ClearOverflow();
  (void)(-min);
  EXPECT_TRUE(SmallRational::OverflowSeen());
  SmallRational::ClearOverflow();
  (void)(min / SmallRational(-1));
  EXPECT_TRUE(SmallRational::OverflowSeen());
  SmallRational::ClearOverflow();
  (void)(min - SmallRational(1));
  EXPECT_TRUE(SmallRational::OverflowSeen());
  SmallRational::ClearOverflow();
  (void)(min * SmallRational(2));
  EXPECT_TRUE(SmallRational::OverflowSeen());
  SmallRational::ClearOverflow();
  // The extremes themselves are representable.
  EXPECT_EQ(min + SmallRational(0), min);
  EXPECT_EQ(SmallRational(INT64_MAX) - SmallRational(0),
            SmallRational(INT64_MAX));
  EXPECT_EQ(-SmallRational(INT64_MAX), SmallRational(-INT64_MAX));
  EXPECT_FALSE(SmallRational::OverflowSeen());
}

TEST(SmallRationalTest, WideIntermediatesReduceBackIntoRange) {
  SmallRational::ClearOverflow();
  // p and q are coprime, so both fractions are reduced and every product
  // below needs 128 bits before the gcd brings it back.
  const std::int64_t p = INT64_MAX;
  const std::int64_t q = INT64_MAX - 1;
  const SmallRational p_over_q = SmallRational::FromReduced(p, q);
  const SmallRational q_over_p = SmallRational::FromReduced(q, p);
  EXPECT_EQ(p_over_q * q_over_p, SmallRational(1));
  EXPECT_EQ(p_over_q / p_over_q, SmallRational(1));
  EXPECT_EQ(SmallRational::FromReduced(INT64_MIN, p) *
                SmallRational::FromReduced(p, 2),
            SmallRational(-(std::int64_t{1} << 62)));
  // (1/q + 1/q) has the wide denominator q^2 before reducing to 2/q, and
  // 2/q reduces further to 1/(q/2).
  const SmallRational sum =
      SmallRational::FromReduced(1, q) + SmallRational::FromReduced(1, q);
  EXPECT_EQ(sum.numerator(), 1);
  EXPECT_EQ(sum.denominator(), q / 2);
  EXPECT_EQ(p_over_q - p_over_q, SmallRational());
  EXPECT_FALSE(SmallRational::OverflowSeen());
  // The same operand sizes with no common factor do overflow.
  (void)(SmallRational::FromReduced(1, p) + SmallRational::FromReduced(1, q));
  EXPECT_TRUE(SmallRational::OverflowSeen());
  SmallRational::ClearOverflow();
}

// --- Cross-tier equivalence -------------------------------------------

// Generates a random system with small integer coefficients. Feasible and
// infeasible instances both occur.
LinearSystem RandomSystem(std::mt19937* rng, int num_vars, int num_rows) {
  std::uniform_int_distribution<int> coeff(-4, 4);
  std::uniform_int_distribution<int> rhs(-6, 6);
  std::uniform_int_distribution<int> sense(0, 2);
  LinearSystem system;
  for (int v = 0; v < num_vars; ++v) {
    system.AddVariable("x" + std::to_string(v));
  }
  for (int r = 0; r < num_rows; ++r) {
    LinearExpr expr;
    for (int v = 0; v < num_vars; ++v) {
      expr.AddTerm(v, Rational(coeff(*rng)));
    }
    expr.AddConstant(Rational(rhs(*rng)));
    switch (sense(*rng)) {
      case 0:
        system.AddLe(std::move(expr));
        break;
      case 1:
        system.AddGe(std::move(expr));
        break;
      default:
        system.AddEq(std::move(expr));
        break;
    }
  }
  return system;
}

class TwoTierPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(TwoTierPropertyTest, TiersAgreeOnRandomSystems) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  for (int instance = 0; instance < 40; ++instance) {
    LinearSystem system = RandomSystem(&rng, 4, 5);
    LinearExpr objective;
    for (int v = 0; v < 4; ++v) {
      objective.AddTerm(v, Rational((instance + v) % 3 - 1));
    }
    SimplexOptions two_tier;
    two_tier.tier = SimplexOptions::Tier::kTwoTier;
    SimplexOptions exact;
    exact.tier = SimplexOptions::Tier::kExactOnly;
    LpResult fast =
        SimplexSolver::SolveWith(system, objective, /*maximize=*/false,
                                 two_tier)
            .value();
    LpResult reference =
        SimplexSolver::SolveWith(system, objective, /*maximize=*/false, exact)
            .value();
    ASSERT_EQ(fast.outcome, reference.outcome) << "instance " << instance;
    if (fast.outcome == LpOutcome::kOptimal) {
      // Objective values must agree exactly; both tiers are exact. (The
      // argmin vertex is also identical because the fast tier performs the
      // same pivot sequence, but the objective is the contract.)
      EXPECT_EQ(fast.objective, reference.objective) << "instance "
                                                     << instance;
      EXPECT_EQ(fast.values, reference.values) << "instance " << instance;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TwoTierPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(TwoTierTest, BigCoefficientsFallBackAndStayExact) {
  // Coefficients chosen so fast-tier pivoting overflows: products of
  // ~2^62 numerators leave int64 after one elimination step.
  const std::int64_t big = std::int64_t{1} << 62;
  LinearSystem system;
  VarId x = system.AddVariable("x");
  VarId y = system.AddVariable("y");
  LinearExpr row1;
  row1.AddTerm(x, Rational(BigInt(big)));
  row1.AddTerm(y, Rational(BigInt(big - 1)));
  row1.AddConstant(Rational(BigInt(-big)));
  system.AddLe(std::move(row1));
  LinearExpr row2;
  row2.AddTerm(x, Rational(BigInt(big - 3)));
  row2.AddTerm(y, Rational(BigInt(big - 5)));
  row2.AddConstant(Rational(BigInt(-big + 4)));
  system.AddGe(std::move(row2));

  GetSimplexStats().Reset();
  GetRecoveryStats().Reset();
  LpResult two_tier =
      SimplexSolver::SolveWith(system, Expr({{x, 1}, {y, 1}}),
                               /*maximize=*/false, SimplexOptions())
          .value();
  SimplexOptions exact;
  exact.tier = SimplexOptions::Tier::kExactOnly;
  LpResult reference =
      SimplexSolver::SolveWith(system, Expr({{x, 1}, {y, 1}}),
                               /*maximize=*/false, exact)
          .value();
  EXPECT_EQ(two_tier.outcome, reference.outcome);
  if (two_tier.outcome == LpOutcome::kOptimal) {
    EXPECT_EQ(two_tier.objective, reference.objective);
    EXPECT_EQ(two_tier.values, reference.values);
  }
  // The first solve must have abandoned the fast tier.
  EXPECT_GE(GetRecoveryStats().tier_fallbacks.load(), 1u);
  EXPECT_EQ(GetSimplexStats().fast_solves.load(), 0u);
}

TEST(TwoTierTest, UnrepresentableInputFallsBackBeforePivoting) {
  // A coefficient that does not even fit int64 forces the fallback at
  // tableau-construction time.
  BigInt huge(1);
  for (int i = 0; i < 5; ++i) {
    huge = huge * BigInt(INT64_MAX);
  }
  LinearSystem system;
  VarId x = system.AddVariable("x");
  LinearExpr row;
  row.AddTerm(x, Rational(huge));
  row.AddConstant(Rational(-1));
  system.AddGe(std::move(row));
  GetRecoveryStats().Reset();
  LpResult result = SimplexSolver::CheckFeasibility(system).value();
  EXPECT_EQ(result.outcome, LpOutcome::kOptimal);
  EXPECT_EQ(GetRecoveryStats().tier_fallbacks.load(), 1u);
}

TEST(TwoTierTest, StatsResetZeroesEverything) {
  LinearSystem system;
  VarId x = system.AddVariable("x");
  system.AddLe(Expr({{x, 1}}, -3));
  (void)SimplexSolver::Solve(system, Expr({{x, 1}}), /*maximize=*/true)
      .value();
  SimplexStats& stats = GetSimplexStats();
  EXPECT_GT(stats.solves.load(), 0u);
  stats.Reset();
  EXPECT_EQ(stats.solves.load(), 0u);
  EXPECT_EQ(stats.pivots.load(), 0u);
  EXPECT_EQ(stats.phase1_pivots.load(), 0u);
  EXPECT_EQ(stats.fast_solves.load(), 0u);
  EXPECT_EQ(stats.fast_pivots.load(), 0u);
  EXPECT_EQ(stats.warm_start_hits.load(), 0u);
  EXPECT_EQ(stats.warm_start_misses.load(), 0u);
}

// --- Sparse systems shaped like Psi_S ---------------------------------

// A seeded sparse system shaped like Psi_S: homogeneous flow-balance rows
// (`==`, `>=` or `<=`) over edge unknowns with 3-6 nonzeros each (fewer
// when a drawn self-loop is skipped), each edge +1 in one row and -1 in
// another, a few free edges, a dense budget row over the nonnegative
// edges, a handful of `x >= 1` demands and of fractional ratio rows, and
// after every seventh node a -2 multiple of an earlier equality, which
// phase 1 must drop as redundant (as it must one balance row per
// connected component). Row counts above 64 put a column's row occupancy
// in more than one machine word.
LinearSystem SparseSystem(std::mt19937* rng, int num_rows) {
  const int num_nodes = num_rows - num_rows / 8 - 6;
  std::uniform_int_distribution<int> degree(3, 6);
  std::vector<int> stubs;
  for (int node = 0; node < num_nodes; ++node) {
    stubs.insert(stubs.end(), degree(*rng), node);
  }
  std::shuffle(stubs.begin(), stubs.end(), *rng);
  LinearSystem system;
  std::vector<LinearExpr> rows(num_nodes);
  for (std::size_t i = 0; i + 1 < stubs.size(); i += 2) {
    if (stubs[i] == stubs[i + 1]) {
      continue;  // A self-loop would cancel out of its row.
    }
    const VarId edge = system.AddVariable(
        "x" + std::to_string(i / 2), /*nonnegative=*/i % 26 != 8);
    rows[stubs[i]].AddTerm(edge, Rational(1));
    rows[stubs[i + 1]].AddTerm(edge, Rational(-1));
  }
  const int num_vars = system.num_variables();
  LinearExpr budget;
  for (int v = 0; v < num_vars; ++v) {
    if (system.IsNonnegative(v)) {
      budget.AddTerm(v, Rational(1));
    }
  }
  budget.AddConstant(Rational(-50));
  system.AddLe(std::move(budget));
  std::uniform_int_distribution<int> kind_of(0, 5);
  std::vector<LinearExpr> equalities;
  for (int node = 0; node < num_nodes; ++node) {
    LinearExpr& expr = rows[node];
    const int kind = kind_of(*rng);
    if (kind <= 2) {
      equalities.push_back(expr);
      system.AddEq(std::move(expr));
    } else if (kind <= 4) {
      system.AddGe(std::move(expr));
    } else {
      system.AddLe(std::move(expr));
    }
    if (node % 7 == 6 && !equalities.empty()) {
      std::uniform_int_distribution<std::size_t> pick_eq(
          0, equalities.size() - 1);
      system.AddEq(equalities[pick_eq(*rng)] * Rational(-2));
    }
  }
  std::uniform_int_distribution<int> pick_var(0, num_vars - 1);
  for (int extra = 0; extra < 3; ++extra) {
    LinearExpr demand;
    demand.AddTerm(pick_var(*rng), Rational(1));
    demand.AddConstant(Rational(-1));
    system.AddGe(std::move(demand));
    LinearExpr ratio;
    ratio.AddTerm(pick_var(*rng), Rational(2));
    ratio.AddTerm(pick_var(*rng), Rational(-3));
    ratio.AddTerm(pick_var(*rng), Rational(1));
    system.AddGe(std::move(ratio));
  }
  return system;
}

LinearExpr SparseObjective(std::mt19937* rng, int num_vars) {
  std::uniform_int_distribution<int> coeff(-2, 3);
  LinearExpr objective;
  for (int v = 0; v < num_vars; v += 3) {
    objective.AddTerm(v, Rational(coeff(*rng)));
  }
  return objective;
}

// `system` with every `x >= 1` demand raised to `x >= 2` and the budget
// cut from 50 to 20, so an exported basis still pivots in but may land
// primal-infeasible and need dual repair (or prove infeasibility).
LinearSystem Perturbed(const LinearSystem& system) {
  LinearSystem changed;
  for (int v = 0; v < system.num_variables(); ++v) {
    changed.AddVariable(system.VariableName(v), system.IsNonnegative(v));
  }
  for (const Constraint& constraint : system.constraints()) {
    LinearExpr expr = constraint.expr;
    if (expr.constant() == Rational(-1)) {
      expr.AddConstant(Rational(-1));
    } else if (expr.constant() == Rational(-50)) {
      expr.AddConstant(Rational(30));
    }
    changed.AddConstraint(std::move(expr), constraint.sense);
  }
  return changed;
}

struct SolveWork {
  std::uint64_t pivots = 0;
  std::uint64_t phase1_pivots = 0;
  std::uint64_t dual_pivots = 0;

  bool operator==(const SolveWork& other) const {
    return pivots == other.pivots && phase1_pivots == other.phase1_pivots &&
           dual_pivots == other.dual_pivots;
  }
};

std::ostream& operator<<(std::ostream& out, const SolveWork& work) {
  return out << "{" << work.pivots << ", " << work.phase1_pivots << ", "
             << work.dual_pivots << "}";
}

// Solves once and returns the result with the solve's pivot counts (read
// as deltas of the process-wide counters; tests in one binary run one at
// a time).
LpResult SolveCounting(const LinearSystem& system,
                       const LinearExpr& objective,
                       const SimplexOptions& options, SolveWork* work) {
  SimplexStats& stats = GetSimplexStats();
  const std::uint64_t pivots = stats.pivots.load();
  const std::uint64_t phase1 = stats.phase1_pivots.load();
  const std::uint64_t dual = stats.dual_pivots.load();
  LpResult result =
      SimplexSolver::SolveWith(system, objective, /*maximize=*/false, options)
          .value();
  work->pivots = stats.pivots.load() - pivots;
  work->phase1_pivots = stats.phase1_pivots.load() - phase1;
  work->dual_pivots = stats.dual_pivots.load() - dual;
  return result;
}

class SparseTierPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SparseTierPropertyTest, TiersAgreeOnSparseSystems) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 7919u);
  std::uniform_int_distribution<int> rows(65, 200);
  int redundant_rows_dropped = 0;
  for (int instance = 0; instance < 4; ++instance) {
    const LinearSystem system = SparseSystem(&rng, rows(rng));
    const LinearExpr objective =
        SparseObjective(&rng, system.num_variables());
    WarmStartBasis basis;
    SimplexOptions two_tier;
    two_tier.export_basis = &basis;
    SimplexOptions exact;
    exact.tier = SimplexOptions::Tier::kExactOnly;
    const LpResult fast =
        SimplexSolver::SolveWith(system, objective, /*maximize=*/false,
                                 two_tier)
            .value();
    const LpResult reference =
        SimplexSolver::SolveWith(system, objective, /*maximize=*/false, exact)
            .value();
    ASSERT_EQ(fast.outcome, reference.outcome) << "instance " << instance;
    if (fast.outcome != LpOutcome::kOptimal) {
      continue;
    }
    EXPECT_EQ(fast.objective, reference.objective) << "instance " << instance;
    EXPECT_EQ(fast.values, reference.values) << "instance " << instance;
    EXPECT_TRUE(system.IsSatisfiedBy(fast.values)) << "instance " << instance;
    if (basis.basis.size() < system.num_constraints()) {
      ++redundant_rows_dropped;
    }
  }
  // Every seed's optimal solves drop the repeated equalities.
  EXPECT_GT(redundant_rows_dropped, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseTierPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(SparseTierTest, PivotCountsArePinned) {
  // {pivots, phase-1 pivots, dual pivots} of a cold solve and of a solve
  // of the perturbed system warm-started from the cold solve's basis, on
  // both tiers. Recorded from the dense kernel; a change to pricing, the
  // ratio-test tie-breaks or the row order moves them, and a faster
  // kernel must not.
  const SolveWork kExpected[][2] = {
      {{105, 105, 0}, {122, 122, 0}},  // Infeasible, infeasible.
      {{230, 136, 0}, {49, 34, 0}},    // Optimal (22 rows dropped), optimal.
      {{101, 74, 0}, {116, 105, 0}},   // Unbounded, unbounded.
      {{69, 42, 0}, {18, 12, 0}},      // Optimal, optimal.
      {{108, 69, 0}, {45, 32, 8}},     // Optimal, optimal after repair.
      {{73, 51, 0}, {2, 0, 2}},        // Optimal, repair proves infeasible.
      {{87, 50, 0}, {28, 16, 1}},      // Optimal, optimal after repair.
      {{70, 56, 0}, {70, 57, 0}},      // Unbounded, unbounded.
  };
  std::mt19937 rng(2024);
  std::uniform_int_distribution<int> rows(65, 200);
  for (int instance = 0; instance < 8; ++instance) {
    const LinearSystem system = SparseSystem(&rng, rows(rng));
    const LinearSystem perturbed = Perturbed(system);
    const LinearExpr objective =
        SparseObjective(&rng, system.num_variables());
    for (SimplexOptions::Tier tier : {SimplexOptions::Tier::kTwoTier,
                                      SimplexOptions::Tier::kExactOnly}) {
      WarmStartBasis basis;
      SimplexOptions cold;
      cold.tier = tier;
      cold.export_basis = &basis;
      SolveWork cold_work;
      (void)SolveCounting(system, objective, cold, &cold_work);
      SimplexOptions warm;
      warm.tier = tier;
      warm.warm_start = &basis;
      SolveWork warm_work;
      (void)SolveCounting(perturbed, objective, warm, &warm_work);
      const bool exact = tier == SimplexOptions::Tier::kExactOnly;
      EXPECT_EQ(cold_work, kExpected[instance][0])
          << "instance " << instance << (exact ? " (exact)" : "");
      EXPECT_EQ(warm_work, kExpected[instance][1])
          << "instance " << instance << (exact ? " (exact)" : "");
    }
  }
}

// --- Warm starts -------------------------------------------------------

TEST(WarmStartTest, SecondSolveSkipsPhase1) {
  // Two solves of the same system: the second reuses the first's basis.
  LinearSystem system;
  VarId x = system.AddVariable("x");
  VarId y = system.AddVariable("y");
  system.AddGe(Expr({{x, 1}, {y, 1}}, -4));
  system.AddLe(Expr({{x, 1}}, -10));
  LinearExpr objective = Expr({{x, 2}, {y, 3}});

  WarmStartBasis basis;
  SimplexOptions first;
  first.export_basis = &basis;
  LpResult cold =
      SimplexSolver::SolveWith(system, objective, /*maximize=*/false, first)
          .value();
  ASSERT_EQ(cold.outcome, LpOutcome::kOptimal);
  ASSERT_FALSE(basis.empty());

  GetSimplexStats().Reset();
  SimplexOptions second;
  second.warm_start = &basis;
  LpResult warm =
      SimplexSolver::SolveWith(system, objective, /*maximize=*/false, second)
          .value();
  ASSERT_EQ(warm.outcome, LpOutcome::kOptimal);
  EXPECT_EQ(warm.objective, cold.objective);
  EXPECT_EQ(warm.values, cold.values);
  EXPECT_EQ(GetSimplexStats().warm_start_hits.load(), 1u);
  EXPECT_EQ(GetSimplexStats().phase1_pivots.load(), 0u);
}

TEST(WarmStartTest, PerturbedCoefficientsStillVerifyFeasibility) {
  // Same shape, one changed coefficient — the carried basis either remains
  // feasible (hit) or is rejected (miss); the answer must be exact either
  // way.
  for (std::int64_t bound : {4, 5, 6, 50}) {
    LinearSystem base;
    VarId x = base.AddVariable("x");
    VarId y = base.AddVariable("y");
    base.AddGe(Expr({{x, 1}, {y, 1}}, -bound));
    base.AddLe(Expr({{x, 1}, {y, 2}}, -100));
    WarmStartBasis basis;
    SimplexOptions exporting;
    exporting.export_basis = &basis;
    LpResult first = SimplexSolver::SolveWith(base, Expr({{x, 1}}),
                                              /*maximize=*/false, exporting)
                         .value();
    ASSERT_EQ(first.outcome, LpOutcome::kOptimal);

    LinearSystem changed;
    VarId cx = changed.AddVariable("x");
    VarId cy = changed.AddVariable("y");
    changed.AddGe(Expr({{cx, 1}, {cy, 1}}, -(bound + 1)));
    changed.AddLe(Expr({{cx, 1}, {cy, 2}}, -100));
    SimplexOptions warm;
    warm.warm_start = &basis;
    LpResult with_warm = SimplexSolver::SolveWith(changed, Expr({{cx, 1}}),
                                                  /*maximize=*/false, warm)
                             .value();
    LpResult without =
        SimplexSolver::Solve(changed, Expr({{cx, 1}}), /*maximize=*/false)
            .value();
    EXPECT_EQ(with_warm.outcome, without.outcome) << "bound " << bound;
    EXPECT_EQ(with_warm.objective, without.objective) << "bound " << bound;
  }
}

TEST(WarmStartTest, MismatchedShapeIsRejectedNotWrong) {
  LinearSystem small;
  VarId x = small.AddVariable("x");
  small.AddLe(Expr({{x, 1}}, -1));
  WarmStartBasis basis;
  SimplexOptions exporting;
  exporting.export_basis = &basis;
  (void)SimplexSolver::SolveWith(small, Expr({{x, 1}}), /*maximize=*/true,
                                 exporting)
      .value();
  ASSERT_FALSE(basis.empty());

  LinearSystem larger;
  VarId a = larger.AddVariable("a");
  VarId b = larger.AddVariable("b");
  larger.AddLe(Expr({{a, 1}, {b, 1}}, -2));
  larger.AddGe(Expr({{a, 1}}, -1));
  GetSimplexStats().Reset();
  SimplexOptions warm;
  warm.warm_start = &basis;
  LpResult result = SimplexSolver::SolveWith(larger, Expr({{a, 1}, {b, 1}}),
                                             /*maximize=*/true, warm)
                        .value();
  EXPECT_EQ(result.outcome, LpOutcome::kOptimal);
  EXPECT_EQ(result.objective, Rational(2));
  EXPECT_EQ(GetSimplexStats().warm_start_hits.load(), 0u);
  EXPECT_GE(GetSimplexStats().warm_start_misses.load(), 1u);
}

TEST(WarmStartTest, RandomSystemsWarmRestartsMatchColdSolves) {
  std::mt19937 rng(99);
  for (int instance = 0; instance < 30; ++instance) {
    LinearSystem system = RandomSystem(&rng, 3, 4);
    LinearExpr objective = Expr({{0, 1}, {1, -1}, {2, 1}});
    WarmStartBasis basis;
    SimplexOptions exporting;
    exporting.export_basis = &basis;
    LpResult cold = SimplexSolver::SolveWith(system, objective,
                                             /*maximize=*/false, exporting)
                        .value();
    if (cold.outcome != LpOutcome::kOptimal || basis.empty()) {
      continue;
    }
    SimplexOptions warm;
    warm.warm_start = &basis;
    LpResult restarted = SimplexSolver::SolveWith(system, objective,
                                                  /*maximize=*/false, warm)
                             .value();
    ASSERT_EQ(restarted.outcome, LpOutcome::kOptimal) << "instance "
                                                      << instance;
    EXPECT_EQ(restarted.objective, cold.objective) << "instance " << instance;
  }
}

// --- Lexicographic second stage ----------------------------------------

// A bounded random system (every variable nonnegative, their sum at most
// 10) and a primary objective with many zero and tied coefficients, so
// the primary's optimal face is often more than a vertex.
struct LexInstance {
  LinearSystem system;
  LinearExpr primary;
  LinearExpr secondary;
  bool maximize = false;
};

LexInstance RandomLexInstance(std::mt19937* rng) {
  constexpr int kVars = 5;
  std::uniform_int_distribution<int> coeff(-3, 3);
  std::uniform_int_distribution<int> tie(-1, 1);
  LexInstance instance;
  instance.system = RandomSystem(rng, kVars, 3);
  LinearExpr budget;
  for (int v = 0; v < kVars; ++v) {
    budget.AddTerm(v, Rational(1));
    instance.primary.AddTerm(v, Rational(v % 2 == 0 ? tie(*rng) : 0));
    instance.secondary.AddTerm(v, Rational(coeff(*rng)));
  }
  budget.AddConstant(Rational(-10));
  instance.system.AddLe(std::move(budget));
  instance.maximize = tie(*rng) > 0;
  return instance;
}

// The reference: solve the primary, pin it to its optimum with an
// equality row, then minimize the secondary, each on the exact tier.
// Returns false when the primary has no optimum.
bool ReferenceLex(const LexInstance& instance, Rational* primary_value,
                  Rational* secondary_value) {
  SimplexOptions exact;
  exact.tier = SimplexOptions::Tier::kExactOnly;
  const LpResult primary =
      SimplexSolver::SolveWith(instance.system, instance.primary,
                               instance.maximize, exact)
          .value();
  if (primary.outcome != LpOutcome::kOptimal) {
    return false;
  }
  LinearSystem face = instance.system;
  LinearExpr on_face = instance.primary;
  on_face.AddConstant(-primary.objective);
  face.AddEq(std::move(on_face));
  const LpResult secondary =
      SimplexSolver::SolveWith(face, instance.secondary, /*maximize=*/false,
                               exact)
          .value();
  EXPECT_EQ(secondary.outcome, LpOutcome::kOptimal);  // The system is bounded.
  *primary_value = primary.objective;
  *secondary_value = secondary.objective;
  return true;
}

class LexicographicPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(LexicographicPropertyTest, SecondStageMatchesThePinnedReference) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 104729u);
  int faces_wider_than_a_vertex = 0;
  for (int instance_index = 0; instance_index < 60; ++instance_index) {
    SCOPED_TRACE(instance_index);
    const LexInstance instance = RandomLexInstance(&rng);
    Rational primary_value;
    Rational secondary_value;
    const bool optimal =
        ReferenceLex(instance, &primary_value, &secondary_value);
    SimplexOptions two_tier;
    two_tier.then_minimize = &instance.secondary;
    SimplexOptions exact = two_tier;
    exact.tier = SimplexOptions::Tier::kExactOnly;
    const LpResult plain =
        SimplexSolver::SolveWith(instance.system, instance.primary,
                                 instance.maximize, SimplexOptions{})
            .value();
    for (const SimplexOptions& options : {two_tier, exact}) {
      for (bool overflow : {false, true}) {
        FailpointSpec spec;
        spec.id = "lp/fast_tier_overflow";
        spec.mode = FailpointMode::kEveryK;
        std::optional<ScopedFailpoint> armed;
        if (overflow) {
          armed.emplace(spec);
          ASSERT_TRUE(armed->status().ok());
        }
        const LpResult lex =
            SimplexSolver::SolveWith(instance.system, instance.primary,
                                     instance.maximize, options)
                .value();
        if (!optimal) {
          EXPECT_NE(lex.outcome, LpOutcome::kOptimal);
          continue;
        }
        ASSERT_EQ(lex.outcome, LpOutcome::kOptimal);
        EXPECT_TRUE(instance.system.IsSatisfiedBy(lex.values));
        EXPECT_EQ(lex.objective, primary_value);
        EXPECT_EQ(instance.secondary.Evaluate(lex.values), secondary_value);
      }
    }
    if (optimal &&
        instance.secondary.Evaluate(plain.values) != secondary_value) {
      ++faces_wider_than_a_vertex;
    }
  }
  // The second stage moved off the primary's vertex somewhere.
  EXPECT_GT(faces_wider_than_a_vertex, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LexicographicPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(LexicographicTest, SecondaryUnboundedOnTheFaceIsUnbounded) {
  // min x subject to x <= 1 leaves y free on the face x = 0, so minimizing
  // -y there has no optimum.
  LinearSystem system;
  system.AddVariable("x");
  system.AddVariable("y");
  system.AddLe(Expr({{0, 1}}, -1));
  const LinearExpr secondary = Expr({{1, -1}});
  SimplexOptions options;
  options.then_minimize = &secondary;
  EXPECT_EQ(SimplexSolver::SolveWith(system, Expr({{0, 1}}),
                                     /*maximize=*/false, options)
                .value()
                .outcome,
            LpOutcome::kUnbounded);
}

TEST(LexicographicTest, SecondStageStaysOnTheOptimalFace) {
  // min x + y subject to x + y >= 2, x <= 5, y <= 5: every point of the
  // segment x + y = 2 is optimal; minimizing x then picks (0, 2) and
  // maximizing x (minimizing -x) picks (2, 0).
  LinearSystem system;
  system.AddVariable("x");
  system.AddVariable("y");
  system.AddGe(Expr({{0, 1}, {1, 1}}, -2));
  system.AddLe(Expr({{0, 1}}, -5));
  system.AddLe(Expr({{1, 1}}, -5));
  for (std::int64_t sign : {1, -1}) {
    const LinearExpr secondary = Expr({{0, sign}});
    SimplexOptions options;
    options.then_minimize = &secondary;
    const LpResult lex =
        SimplexSolver::SolveWith(system, Expr({{0, 1}, {1, 1}}),
                                 /*maximize=*/false, options)
            .value();
    ASSERT_EQ(lex.outcome, LpOutcome::kOptimal);
    EXPECT_EQ(lex.objective, Rational(2));
    EXPECT_EQ(lex.values[0], Rational(sign > 0 ? 0 : 2));
    EXPECT_EQ(lex.values[1], Rational(sign > 0 ? 2 : 0));
  }
}

TEST(LexicographicTest, SecondStageOverflowRestartsOnTheExactTier) {
  // min x + 2y over x + 2y >= 2, x <= 5, y <= 5 stays in int64
  // throughout. Minimizing M (y - x), M = 2^63 - 1, on its optimal face
  // does not: whichever of x and y the primary leaves basic, some reduced
  // cost of the second stage is 3M or 3M/2. So the fast tier finishes the
  // primary, overflows in the second stage, and the whole solve restarts
  // on Rational.
  LinearSystem system;
  system.AddVariable("x");
  system.AddVariable("y");
  system.AddGe(Expr({{0, 1}, {1, 2}}, -2));
  system.AddLe(Expr({{0, 1}}, -5));
  system.AddLe(Expr({{1, 1}}, -5));
  const LinearExpr primary = Expr({{0, 1}, {1, 2}});
  const LinearExpr secondary = Expr({{0, -INT64_MAX}, {1, INT64_MAX}});

  GetSimplexStats().Reset();
  GetRecoveryStats().Reset();
  const LpResult plain = SimplexSolver::SolveWith(system, primary,
                                                  /*maximize=*/false,
                                                  SimplexOptions())
                             .value();
  ASSERT_EQ(plain.outcome, LpOutcome::kOptimal);
  EXPECT_EQ(GetSimplexStats().fast_solves.load(), 1u);
  EXPECT_EQ(GetRecoveryStats().tier_fallbacks.load(), 0u);

  SimplexOptions options;
  options.then_minimize = &secondary;
  GetSimplexStats().Reset();
  GetRecoveryStats().Reset();
  const LpResult lex =
      SimplexSolver::SolveWith(system, primary, /*maximize=*/false, options)
          .value();
  EXPECT_EQ(GetSimplexStats().fast_solves.load(), 0u);
  EXPECT_EQ(GetRecoveryStats().tier_fallbacks.load(), 1u);

  SimplexOptions exact = options;
  exact.tier = SimplexOptions::Tier::kExactOnly;
  const LpResult reference =
      SimplexSolver::SolveWith(system, primary, /*maximize=*/false, exact)
          .value();
  ASSERT_EQ(lex.outcome, LpOutcome::kOptimal);
  ASSERT_EQ(reference.outcome, LpOutcome::kOptimal);
  EXPECT_EQ(lex.objective, Rational(2));
  EXPECT_EQ(lex.values, reference.values);
  EXPECT_EQ(lex.values[0], Rational(2));
  EXPECT_EQ(lex.values[1], Rational(0));
}

}  // namespace
}  // namespace crsat
