#include "src/lp/homogeneous.h"

#include <gtest/gtest.h>

#include "src/lp/fourier_motzkin.h"

namespace crsat {
namespace {

LinearExpr Expr(std::vector<std::pair<VarId, std::int64_t>> terms) {
  LinearExpr expr;
  for (const auto& [var, coeff] : terms) {
    expr.AddTerm(var, Rational(coeff));
  }
  return expr;
}

TEST(HomogeneousTest, StrictFeasibleConeSolved) {
  // 2c <= h <= 3c, c > 0.
  LinearSystem system;
  VarId c = system.AddVariable("c");
  VarId h = system.AddVariable("h");
  system.AddGe(Expr({{h, 1}, {c, -2}}));
  system.AddGe(Expr({{c, 3}, {h, -1}}));
  system.AddGt(Expr({{c, 1}}));
  LpResult result = SolveHomogeneousWithStrict(system).value();
  ASSERT_EQ(result.outcome, LpOutcome::kOptimal);
  EXPECT_TRUE(system.IsSatisfiedBy(result.values));
}

TEST(HomogeneousTest, StrictInfeasibleConeDetected) {
  // h >= 4c and h <= 3c force c = 0, contradicting c > 0.
  LinearSystem system;
  VarId c = system.AddVariable("c");
  VarId h = system.AddVariable("h");
  system.AddGe(Expr({{h, 1}, {c, -4}}));
  system.AddGe(Expr({{c, 3}, {h, -1}}));
  system.AddGt(Expr({{c, 1}}));
  LpResult result = SolveHomogeneousWithStrict(system).value();
  EXPECT_EQ(result.outcome, LpOutcome::kInfeasible);
}

TEST(HomogeneousTest, MultipleStrictConstraintsSimultaneously) {
  LinearSystem system;
  VarId x = system.AddVariable("x");
  VarId y = system.AddVariable("y");
  system.AddEq(Expr({{x, 1}, {y, -2}}));  // x == 2y.
  system.AddGt(Expr({{x, 1}}));
  system.AddGt(Expr({{y, 1}}));
  LpResult result = SolveHomogeneousWithStrict(system).value();
  ASSERT_EQ(result.outcome, LpOutcome::kOptimal);
  EXPECT_TRUE(system.IsSatisfiedBy(result.values));
}

TEST(HomogeneousTest, RejectsInhomogeneousSystems) {
  LinearSystem system;
  VarId x = system.AddVariable("x");
  LinearExpr expr = LinearExpr::Var(x);
  expr.AddConstant(Rational(-1));
  system.AddGe(expr);
  EXPECT_FALSE(SolveHomogeneousWithStrict(system).ok());
}

TEST(HomogeneousTest, AgreesWithFourierMotzkinOnStrictSystems) {
  // FM handles strict constraints natively; the >=1 reduction must agree.
  for (int a = 1; a <= 4; ++a) {
    for (int b = 1; b <= 4; ++b) {
      LinearSystem system;
      VarId c = system.AddVariable("c");
      VarId h = system.AddVariable("h");
      system.AddGe(Expr({{h, 1}, {c, -a}}));  // h >= a*c.
      system.AddGe(Expr({{c, b}, {h, -1}}));  // h <= b*c.
      system.AddGt(Expr({{c, 1}}));
      LpResult lp = SolveHomogeneousWithStrict(system).value();
      FmResult fm = FourierMotzkinSolver::Solve(system).value();
      EXPECT_EQ(lp.outcome == LpOutcome::kOptimal, fm.feasible)
          << "a=" << a << " b=" << b;
    }
  }
}

TEST(HomogeneousTest, ScaleToIntegerSolutionClearsDenominators) {
  std::vector<Rational> values = {Rational(1, 2), Rational(1, 3),
                                  Rational(0)};
  std::vector<BigInt> scaled = ScaleToIntegerSolution(values);
  EXPECT_EQ(scaled[0], BigInt(3));
  EXPECT_EQ(scaled[1], BigInt(2));
  EXPECT_EQ(scaled[2], BigInt(0));
}

TEST(HomogeneousTest, ScaleToIntegerSolutionReducesByGcd) {
  std::vector<Rational> values = {Rational(4), Rational(6)};
  std::vector<BigInt> scaled = ScaleToIntegerSolution(values);
  EXPECT_EQ(scaled[0], BigInt(2));
  EXPECT_EQ(scaled[1], BigInt(3));
}

TEST(HomogeneousTest, ScaleToIntegerSolutionAllZeros) {
  std::vector<Rational> values = {Rational(0), Rational(0)};
  std::vector<BigInt> scaled = ScaleToIntegerSolution(values);
  EXPECT_EQ(scaled[0], BigInt(0));
  EXPECT_EQ(scaled[1], BigInt(0));
}

TEST(HomogeneousTest, ScaleSolutionMultiplies) {
  std::vector<BigInt> values = {BigInt(1), BigInt(3)};
  std::vector<BigInt> doubled = ScaleSolution(values, BigInt(2));
  EXPECT_EQ(doubled[0], BigInt(2));
  EXPECT_EQ(doubled[1], BigInt(6));
}

TEST(HomogeneousTest, MaximalSupportFindsAllPositivableVariables) {
  // x == 2y couples x and y; z independent; w forced zero by w <= 0.
  LinearSystem system;
  VarId x = system.AddVariable("x");
  VarId y = system.AddVariable("y");
  VarId z = system.AddVariable("z");
  VarId w = system.AddVariable("w");
  system.AddEq(Expr({{x, 1}, {y, -2}}));
  system.AddLe(Expr({{w, 1}}));
  SupportResult support = ComputeMaximalSupport(
                              system, std::vector<bool>(4, false))
                              .value();
  EXPECT_TRUE(support.positive[x]);
  EXPECT_TRUE(support.positive[y]);
  EXPECT_TRUE(support.positive[z]);
  EXPECT_FALSE(support.positive[w]);
  EXPECT_TRUE(system.IsSatisfiedBy(support.witness));
  EXPECT_TRUE(support.witness[x].IsPositive());
  EXPECT_TRUE(support.witness[z].IsPositive());
  EXPECT_TRUE(support.witness[w].IsZero());
}

TEST(HomogeneousTest, MaximalSupportHonorsForcedZeros) {
  // Pinning y forces x through x == 2y.
  LinearSystem system;
  VarId x = system.AddVariable("x");
  VarId y = system.AddVariable("y");
  system.AddEq(Expr({{x, 1}, {y, -2}}));
  std::vector<bool> forced = {false, true};
  SupportResult support = ComputeMaximalSupport(system, forced).value();
  EXPECT_FALSE(support.positive[x]);
  EXPECT_FALSE(support.positive[y]);
}

TEST(HomogeneousTest, MaximalSupportRejectsStrictOrInhomogeneous) {
  LinearSystem strict;
  VarId x = strict.AddVariable("x");
  strict.AddGt(LinearExpr::Var(x));
  EXPECT_FALSE(ComputeMaximalSupport(strict, {false}).ok());

  LinearSystem inhomogeneous;
  VarId y = inhomogeneous.AddVariable("y");
  LinearExpr expr = LinearExpr::Var(y);
  expr.AddConstant(Rational(1));
  inhomogeneous.AddGe(expr);
  EXPECT_FALSE(ComputeMaximalSupport(inhomogeneous, {false}).ok());

  LinearSystem fine;
  fine.AddVariable("z");
  EXPECT_FALSE(ComputeMaximalSupport(fine, {false, false}).ok());  // Size.
}

// The three unknowns of the target-probe systems below: two class unknowns
// and a relationship unknown `r` that depends on `sources`.
struct TargetSystem {
  LinearSystem system;
  VarId c = 0;
  VarId d = 0;
  VarId r = 0;
  std::vector<Dependency> dependencies;
};

TargetSystem RelationshipOver(const std::vector<bool>& on_c_and_d) {
  TargetSystem built;
  built.c = built.system.AddVariable("x_C");
  built.d = built.system.AddVariable("x_D");
  built.r = built.system.AddVariable("r");
  built.system.AddEq(Expr({{built.c, 1}, {built.r, -1}}));  // x_C == r.
  Dependency dependency{built.r, {}};
  if (on_c_and_d[0]) {
    dependency.depends_on.push_back(built.c);
  }
  if (on_c_and_d[1]) {
    dependency.depends_on.push_back(built.d);
  }
  built.dependencies.push_back(std::move(dependency));
  return built;
}

TEST(TargetProbeTest, InfeasibleProbeAnswersFalse) {
  TargetSystem built = RelationshipOver({true, false});
  built.system.AddEq(Expr({{built.c, 1}}));  // x_C == 0.
  std::optional<bool> decided =
      ProbeAcceptableTarget(built.system, built.dependencies,
                            std::vector<bool>(3, false), {built.c})
          .value();
  ASSERT_TRUE(decided.has_value());
  EXPECT_FALSE(*decided);
}

TEST(TargetProbeTest, AcceptableVertexAnswersTrue) {
  // r depends on x_C alone, and the vertex x_C = r = 1 is acceptable.
  TargetSystem built = RelationshipOver({true, false});
  std::optional<bool> decided =
      ProbeAcceptableTarget(built.system, built.dependencies,
                            std::vector<bool>(3, false), {built.c})
          .value();
  ASSERT_TRUE(decided.has_value());
  EXPECT_TRUE(*decided);
}

TEST(TargetProbeTest, NonAcceptableVertexLeavesTheFixpointToDecide) {
  // x_D appears in no row, so every vertex has x_D = 0: the probe's
  // x_C = r = 1, x_D = 0 makes r positive on a zero source. It decides
  // nothing, and the fixpoint finds x_C, x_D and r all positive.
  TargetSystem built = RelationshipOver({true, true});
  std::optional<bool> decided =
      ProbeAcceptableTarget(built.system, built.dependencies,
                            std::vector<bool>(3, false), {built.c})
          .value();
  EXPECT_FALSE(decided.has_value());
  AcceptableSupport support =
      ComputeAcceptableSupport(built.system, built.dependencies).value();
  EXPECT_TRUE(support.positive[built.c]);
  EXPECT_TRUE(support.positive[built.d]);
  EXPECT_TRUE(support.positive[built.r]);
}

TEST(TargetProbeTest, SeededTargetsAnswerFalseWithoutAnLp) {
  TargetSystem built = RelationshipOver({true, true});
  const std::vector<bool> seed = {true, false, true};
  GetSimplexStats().Reset();
  std::optional<bool> decided =
      ProbeAcceptableTarget(built.system, built.dependencies, seed,
                            {built.c})
          .value();
  ASSERT_TRUE(decided.has_value());
  EXPECT_FALSE(*decided);
  EXPECT_EQ(GetSimplexStats().solves.load(), 0u);
  // With x_C pinned, x_D alone is a target, and the pinned cone is the
  // single unknown x_D plus its probe row.
  WarmStartBasisCache cache;
  decided = ProbeAcceptableTarget(built.system, built.dependencies, seed,
                                  {built.d}, &cache)
                .value();
  ASSERT_TRUE(decided.has_value());
  EXPECT_TRUE(*decided);
  EXPECT_EQ(GetSimplexStats().solves.load(), 1u);
  EXPECT_NE(cache.Lookup(/*num_variables=*/1, /*num_constraints=*/2),
            nullptr);
}

TEST(TargetProbeTest, RejectsAMisSizedSeed) {
  TargetSystem built = RelationshipOver({true, false});
  EXPECT_FALSE(ProbeAcceptableTarget(built.system, built.dependencies,
                                     std::vector<bool>(2, false), {built.c})
                   .ok());
}

}  // namespace
}  // namespace crsat
