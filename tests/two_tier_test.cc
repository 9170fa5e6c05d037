// Tests for the two-tier simplex arithmetic (int64 fast path with exact
// fallback), the `SmallRational` scalar, warm starts, and the atomic
// `SimplexStats` counters.

#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/degradation.h"
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

}  // namespace
}  // namespace crsat
