// The witness subsystem (src/witness/): round-trip property sweep
// (synthesized witnesses certify against ModelChecker across thread
// counts), the UNSAT-never-invokes-synthesis guarantee, the forced
// exact-BigInt scaling fallback, resource-guard propagation into every
// stage, and the non-bypassable certification gate.

#include <gtest/gtest.h>

#include <atomic>
#include <tuple>
#include <vector>

#include "src/base/thread_pool.h"
#include "src/cr/model_checker.h"
#include "src/cr/schema_text.h"
#include "src/generator/random_schema.h"
#include "src/lp/homogeneous.h"
#include "src/lp/simplex.h"
#include "src/reasoner/satisfiability.h"
#include "src/witness/witness.h"
#include "src/witness/witness_text.h"

namespace crsat {
namespace {

std::uint64_t Load(const std::atomic<std::uint64_t>& counter) {
  return counter.load(std::memory_order_relaxed);
}

// Sweep: (seed, thread count). Every satisfiable generated schema's
// witness must certify — and its cardinalities must hold under direct
// recount — at 1, 2, and 8 reasoning threads.
class WitnessRoundTripTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(WitnessRoundTripTest, EverySatisfiableSchemaYieldsCertifiedWitness) {
  const int seed = std::get<0>(GetParam());
  const int threads = std::get<1>(GetParam());
  SetGlobalThreadCount(threads);

  RandomSchemaParams params;
  params.seed = static_cast<std::uint32_t>(seed) + 7000;
  params.num_classes = 5;
  params.num_relationships = 3;
  params.isa_density = 0.3;
  params.primary_card_probability = 0.7;
  params.refinement_probability = 0.4;
  Schema schema = GenerateRandomSchema(params).value();
  Expansion expansion = Expansion::Build(schema).value();
  SatisfiabilityChecker checker(expansion);
  std::vector<bool> satisfiable = checker.SatisfiableClasses().value();
  bool any_satisfiable = false;
  for (bool flag : satisfiable) {
    any_satisfiable = any_satisfiable || flag;
  }

  WitnessSynthesizer synthesizer(checker);
  WitnessOptions options;
  options.max_model_size = 2000000;

  if (!any_satisfiable) {
    // Nothing to witness: synthesis must refuse up front, without running
    // a single additional simplex solve (asserted separately below with a
    // deterministic schema; here just the refusal code).
    Result<CertifiedWitness> refused = synthesizer.Synthesize(options);
    ASSERT_FALSE(refused.ok()) << "seed " << params.seed;
    EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument)
        << "seed " << params.seed;
    return;
  }

  Result<CertifiedWitness> witness = synthesizer.Synthesize(options);
  ASSERT_TRUE(witness.ok()) << "seed " << params.seed << ", threads "
                            << threads << ": " << witness.status().message();
  const Interpretation& model = witness->interpretation();

  // Certification already ran inside Synthesize; re-assert independently.
  EXPECT_TRUE(ModelChecker::IsModel(schema, model)) << "seed " << params.seed;

  // satisfiable <=> populated, class by class.
  for (int c = 0; c < schema.num_classes(); ++c) {
    EXPECT_EQ(!model.ClassExtension(ClassId(c)).empty(),
              static_cast<bool>(satisfiable[c]))
        << "class " << schema.ClassName(ClassId(c)) << ", seed "
        << params.seed;
  }

  // Direct cardinality recount, independent of ModelChecker's internals.
  for (RelationshipId rel : schema.AllRelationships()) {
    const std::vector<RoleId>& roles = schema.RolesOf(rel);
    for (size_t k = 0; k < roles.size(); ++k) {
      ClassId primary = schema.PrimaryClass(roles[k]);
      for (ClassId cls : schema.SubclassesOf(primary)) {
        Cardinality cardinality = schema.GetCardinality(cls, rel, roles[k]);
        for (Individual individual : model.ClassExtension(cls)) {
          std::uint64_t count =
              model.CountTuplesAt(rel, static_cast<int>(k), individual);
          EXPECT_GE(count, cardinality.min) << "seed " << params.seed;
          if (cardinality.max.has_value()) {
            EXPECT_LE(count, *cardinality.max) << "seed " << params.seed;
          }
        }
      }
    }
  }

  // Stats describe the certified artifact.
  EXPECT_EQ(witness->stats().individuals,
            static_cast<std::uint64_t>(model.domain_size()));
  EXPECT_TRUE(witness->stats().integer_fast_path ||
              witness->stats().integer_exact_fallback);
}

INSTANTIATE_TEST_SUITE_P(SeedsByThreads, WitnessRoundTripTest,
                         ::testing::Combine(::testing::Range(0, 12),
                                            ::testing::Values(1, 2, 8)));

TEST(WitnessSynthesizerTest, UnsatSchemaNeverInvokesSolverForWitness) {
  // Every A appears in >= 2 tuples of R at U1, but R has at most |A|
  // tuples (each B at most once at U2, |B| <= |A| forced by nothing --
  // actually 2|A| <= |R| <= |A| directly): A is unsatisfiable.
  NamedSchema parsed = ParseSchema(R"(
    schema Unsat {
      class A;
      relationship R(U1: A, U2: A);
      card A in R.U1 = (2, *);
      card A in R.U2 = (0, 1);
    }
  )")
                           .value();
  Expansion expansion = Expansion::Build(parsed.schema).value();
  SatisfiabilityChecker checker(expansion);
  std::vector<bool> satisfiable = checker.SatisfiableClasses().value();
  ASSERT_FALSE(satisfiable[0]);

  // The verdict above did all the LP work the pipeline will ever do on
  // this schema: synthesis must refuse before any further solve.
  GetSimplexStats().Reset();
  WitnessSynthesizer synthesizer(checker);
  Result<CertifiedWitness> witness = synthesizer.Synthesize();
  ASSERT_FALSE(witness.ok());
  EXPECT_EQ(witness.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Load(GetSimplexStats().solves), 0u);
  EXPECT_EQ(Load(GetSimplexStats().pivots), 0u);
}

TEST(WitnessSynthesizerTest, SynthesisAfterTheVerdictRunsNoLp) {
  // The support behind the verdict already carries the minimal witness
  // (the cover LP's second stage, or one LP on the probe-round path), so
  // synthesis only scales it: no solve, the first time or the second.
  NamedSchema parsed = ParseSchema(R"(
    schema Meeting {
      class Person, Speaker, Talk;
      isa Speaker < Person;
      relationship Holds(U1: Speaker, U2: Talk);
      card Speaker in Holds.U1 = (1, 2);
      card Talk in Holds.U2 = (1, 1);
    }
  )")
                           .value();
  Expansion expansion = Expansion::Build(parsed.schema).value();
  SatisfiabilityChecker checker(expansion);
  ASSERT_TRUE(checker.SatisfiableClasses().value()[0]);

  const WitnessSynthesizer synthesizer(checker);
  GetSimplexStats().Reset();
  ASSERT_TRUE(synthesizer.Synthesize().ok());
  EXPECT_EQ(Load(GetSimplexStats().solves), 0u);
  ASSERT_TRUE(synthesizer.Synthesize().ok());
  EXPECT_EQ(Load(GetSimplexStats().solves), 0u);
}

TEST(IntegerScaleTest, SmallDenominatorsStayOnFastPath) {
  std::vector<Rational> values = {Rational(1, 2), Rational(1, 3),
                                  Rational(5, 6)};
  IntegerScaleStats stats;
  std::vector<BigInt> integers = ScaleToIntegerSolution(values, &stats);
  EXPECT_TRUE(stats.used_fast_path);
  EXPECT_FALSE(stats.exact_fallback);
  ASSERT_EQ(integers.size(), 3u);
  EXPECT_EQ(integers[0], BigInt(3));
  EXPECT_EQ(integers[1], BigInt(2));
  EXPECT_EQ(integers[2], BigInt(5));
}

TEST(IntegerScaleTest, HugeDenominatorsForceExactFallback) {
  // Denominators 2^80 and 3^50: each alone exceeds int64, so the
  // SmallRational fast path cannot even represent the inputs and the
  // exact BigInt path must take over — and still produce the right
  // integers (2^80/gcd-reduced LCM arithmetic is exact).
  BigInt two_pow_80(1);
  for (int i = 0; i < 80; ++i) {
    two_pow_80 *= BigInt(2);
  }
  BigInt three_pow_50(1);
  for (int i = 0; i < 50; ++i) {
    three_pow_50 *= BigInt(3);
  }
  std::vector<Rational> values = {Rational(BigInt(1), two_pow_80),
                                  Rational(BigInt(1), three_pow_50)};
  IntegerScaleStats stats;
  std::vector<BigInt> integers = ScaleToIntegerSolution(values, &stats);
  EXPECT_FALSE(stats.used_fast_path);
  EXPECT_TRUE(stats.exact_fallback);
  ASSERT_EQ(integers.size(), 2u);
  // value[0] * LCM = LCM / 2^80 = 3^50; symmetrically for value[1].
  EXPECT_EQ(integers[0], three_pow_50);
  EXPECT_EQ(integers[1], two_pow_80);
}

TEST(WitnessGuardTest, DeadlineTripSurfacesAsResourceLimit) {
  NamedSchema parsed = ParseSchema(R"(
    schema Tiny {
      class A;
      relationship R(U1: A, U2: A);
      card A in R.U1 = (1, 2);
    }
  )")
                           .value();
  Expansion expansion = Expansion::Build(parsed.schema).value();
  SatisfiabilityChecker checker(expansion);
  ASSERT_TRUE(checker.SatisfiableClasses().value()[0]);

  ResourceLimits limits;
  limits.timeout = std::chrono::milliseconds(0);
  ResourceGuard guard(limits);
  WitnessSynthesizer synthesizer(checker);
  WitnessOptions options;
  options.guard = &guard;
  Result<CertifiedWitness> witness = synthesizer.Synthesize(options);
  ASSERT_FALSE(witness.ok());
  EXPECT_TRUE(IsResourceLimitStatus(witness.status().code()))
      << witness.status();
  EXPECT_TRUE(guard.tripped());
}

TEST(WitnessGuardTest, MemoryBudgetTripsDuringTupleAssignment) {
  // Satisfiability is trivial here, but the smallest witness has 40001
  // individuals and 40000 tuples; a 64 KiB budget cannot hold it.
  NamedSchema parsed = ParseSchema(R"(
    schema Heavy {
      class A, B;
      relationship R(U1: A, U2: B);
      card A in R.U1 = (40000, *);
      card B in R.U2 = (1, 1);
    }
  )")
                           .value();
  Expansion expansion = Expansion::Build(parsed.schema).value();
  SatisfiabilityChecker checker(expansion);
  ASSERT_TRUE(checker.SatisfiableClasses().value()[0]);

  ResourceLimits limits;
  limits.max_memory_bytes = 64 * 1024;
  ResourceGuard guard(limits);
  WitnessSynthesizer synthesizer(checker);
  WitnessOptions options;
  options.guard = &guard;
  Result<CertifiedWitness> witness = synthesizer.Synthesize(options);
  ASSERT_FALSE(witness.ok());
  EXPECT_EQ(witness.status().code(), StatusCode::kResourceExhausted)
      << witness.status();
  // Without a guard the same synthesis succeeds, proving the trip (and
  // not some latent failure) is what stopped it.
  Result<CertifiedWitness> unguarded = synthesizer.Synthesize();
  ASSERT_TRUE(unguarded.ok()) << unguarded.status();
  // The maximal acceptable support populates every consistent compound
  // variant of R, each at the 40000-tuple minimum.
  EXPECT_GE(unguarded->stats().tuples, 40000u);
}

TEST(CertifyTest, RefusesInterpretationsThatAreNotModels) {
  NamedSchema parsed = ParseSchema(R"(
    schema S {
      class Sub, Super;
      isa Sub < Super;
    }
  )")
                           .value();
  Interpretation broken(parsed.schema);
  Individual d = broken.AddIndividual();
  // In Sub but not Super: an ISA violation no witness may carry.
  ASSERT_TRUE(broken.AddToClass(parsed.schema.FindClass("Sub").value(), d)
                  .ok());
  Result<CertifiedWitness> certified = CertifiedWitness::Certify(
      parsed.schema, std::move(broken), WitnessStats{}, &parsed.source_map);
  ASSERT_FALSE(certified.ok());
  EXPECT_EQ(certified.status().code(), StatusCode::kInternal);
  EXPECT_NE(certified.status().message().find("certification refused"),
            std::string::npos)
      << certified.status();
  // The refusal names the violated declaration's source position.
  EXPECT_NE(certified.status().message().find("declared at"),
            std::string::npos)
      << certified.status();
}

TEST(WitnessTextTest, JsonAndDotRenderCertifiedWitness) {
  NamedSchema parsed = ParseSchema(R"(
    schema Pair {
      class A, B;
      relationship R(U1: A, U2: B);
      card A in R.U1 = (1, 1);
      card B in R.U2 = (1, 1);
    }
  )")
                           .value();
  Expansion expansion = Expansion::Build(parsed.schema).value();
  SatisfiabilityChecker checker(expansion);
  ASSERT_TRUE(checker.SatisfiableClasses().value()[0]);
  WitnessSynthesizer synthesizer(checker);
  CertifiedWitness witness = synthesizer.Synthesize().value();

  std::string json = WitnessToJson(witness);
  EXPECT_NE(json.find("\"certified\":true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"classes\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"R\""), std::string::npos) << json;

  std::string dot = WitnessToDot(witness);
  EXPECT_NE(dot.find("digraph witness"), std::string::npos) << dot;
  EXPECT_NE(dot.find("label=\"U1\""), std::string::npos) << dot;
}

TEST(SolveIntegerStageTest, ProducesAcceptableIntegers) {
  NamedSchema parsed = ParseSchema(R"(
    schema Meeting {
      class Speaker, Talk;
      relationship Holds(U1: Speaker, U2: Talk);
      card Speaker in Holds.U1 = (1, 2);
      card Talk in Holds.U2 = (1, 1);
    }
  )")
                           .value();
  Expansion expansion = Expansion::Build(parsed.schema).value();
  SatisfiabilityChecker checker(expansion);
  ASSERT_TRUE(checker.SatisfiableClasses().value()[0]);
  IntegerSolution solution = checker.AcceptableIntegerSolution().value();
  ASSERT_EQ(solution.class_counts.size(), expansion.classes().size());
  ASSERT_EQ(solution.rel_counts.size(), expansion.relationships().size());
  // Acceptability on the integers: populated relationship => populated
  // components.
  for (size_t j = 0; j < expansion.relationships().size(); ++j) {
    if (solution.rel_counts[j].IsZero()) {
      continue;
    }
    for (const CompoundClass& component :
         expansion.relationships()[j].components) {
      int index = expansion.ClassIndexOf(component);
      ASSERT_GE(index, 0);
      EXPECT_TRUE(solution.class_counts[index].IsPositive());
    }
  }
}

}  // namespace
}  // namespace crsat
