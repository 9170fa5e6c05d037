// Randomized cross-validation of the reasoning pipeline: the fixpoint
// engine against the paper's Theorem 3.4 enumeration, the full method
// against the Lenzerini-Nobili baseline on its fragment, and satisfiability
// verdicts against actually materialized (and checked) models, and schema
// debugging with its Lenzerini-Nobili probe stage against the cold path,
// and the cover LP's minimal witness against the separate minimal-witness
// LP of the probe-round path.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/base/incremental.h"
#include "src/baseline/ln_reasoner.h"
#include "src/cr/model_checker.h"
#include "src/generator/random_schema.h"
#include "src/reasoner/implication.h"
#include "src/reasoner/repair.h"
#include "src/reasoner/satisfiability.h"
#include "src/reasoner/unsat_core.h"
#include "src/witness/witness.h"
#include "tests/checked_schema.h"
#include "tests/debug_digest.h"

namespace crsat {
namespace {

using crsat::testing::CheckedSchema;
using crsat::testing::DebugDigest;

class FixpointVsEnumerationTest : public ::testing::TestWithParam<int> {};

TEST_P(FixpointVsEnumerationTest, VerdictsAgreeOnRandomSchemas) {
  RandomSchemaParams params;
  params.seed = static_cast<std::uint32_t>(GetParam());
  params.num_classes = 3;  // Keeps the 2^|Cc| reference enumeration cheap.
  params.num_relationships = 2;
  params.isa_density = 0.4;
  params.primary_card_probability = 0.8;
  params.refinement_probability = 0.5;
  Schema schema = GenerateRandomSchema(params).value();
  Expansion expansion = Expansion::Build(schema).value();
  if (expansion.classes().size() > 7) {
    GTEST_SKIP() << "expansion too large for the reference enumerator";
  }
  SatisfiabilityChecker checker(expansion);
  for (int c = 0; c < schema.num_classes(); ++c) {
    std::vector<int> target = expansion.ClassIndicesContaining(ClassId(c));
    bool fixpoint = checker.IsTargetSatisfiable(target).value();
    bool enumerated = IsTargetSatisfiableByEnumeration(
                          checker.cr_system(), checker.dependencies(), target)
                          .value();
    EXPECT_EQ(fixpoint, enumerated)
        << "class " << schema.ClassName(ClassId(c)) << ", seed "
        << params.seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FixpointVsEnumerationTest,
                         ::testing::Range(0, 30));

class SatisfiableMeansModelExistsTest
    : public ::testing::TestWithParam<int> {};

TEST_P(SatisfiableMeansModelExistsTest, WitnessModelsVerify) {
  RandomSchemaParams params;
  params.seed = static_cast<std::uint32_t>(GetParam()) + 1000;
  params.num_classes = 5;
  params.num_relationships = 3;
  params.isa_density = 0.3;
  params.primary_card_probability = 0.7;
  params.refinement_probability = 0.4;
  Schema schema = GenerateRandomSchema(params).value();
  Expansion expansion = Expansion::Build(schema).value();
  SatisfiabilityChecker checker(expansion);
  std::vector<bool> satisfiable = checker.SatisfiableClasses().value();

  // One witness model realizes the full support: every satisfiable class
  // must be populated in it, every unsatisfiable class empty.
  IntegerSolution solution = checker.AcceptableIntegerSolution().value();
  WitnessOptions options;
  options.max_model_size = 2000000;
  Result<CertifiedWitness> witness =
      WitnessSynthesizer::SynthesizeFromSolution(expansion, solution, options);
  ASSERT_TRUE(witness.ok()) << "seed " << params.seed << ": "
                            << witness.status().message();
  const Interpretation& model = witness->interpretation();
  EXPECT_TRUE(ModelChecker::IsModel(schema, model)) << "seed " << params.seed;
  for (int c = 0; c < schema.num_classes(); ++c) {
    bool populated =
        !model.ClassExtension(ClassId(c)).empty();
    EXPECT_EQ(populated, static_cast<bool>(satisfiable[c]))
        << "class " << schema.ClassName(ClassId(c)) << ", seed "
        << params.seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SatisfiableMeansModelExistsTest,
                         ::testing::Range(0, 15));

class BaselineAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(BaselineAgreementTest, FullMethodMatchesLenzeriniNobili) {
  RandomSchemaParams params;
  params.seed = static_cast<std::uint32_t>(GetParam()) + 2000;
  // Small on purpose: with no ISA, *every* subset of classes is a
  // consistent compound class, so this is the full method's worst case.
  params.num_classes = 4;
  params.num_relationships = 3;
  params.isa_density = 0.0;  // The baseline's fragment.
  params.refinement_probability = 0.0;
  params.primary_card_probability = 0.9;
  Schema schema = GenerateRandomSchema(params).value();
  LnReasoner baseline = LnReasoner::Create(schema).value();
  Expansion expansion = Expansion::Build(schema).value();
  SatisfiabilityChecker checker(expansion);
  EXPECT_EQ(baseline.SatisfiableClasses().value(),
            checker.SatisfiableClasses().value())
      << "seed " << params.seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, BaselineAgreementTest,
                         ::testing::Range(0, 30));

class TernaryRelationshipTest : public ::testing::TestWithParam<int> {};

TEST_P(TernaryRelationshipTest, PipelineHandlesHigherArity) {
  RandomSchemaParams params;
  params.seed = static_cast<std::uint32_t>(GetParam()) + 3000;
  params.num_classes = 4;
  params.num_relationships = 2;
  params.min_arity = 3;
  params.max_arity = 3;
  params.isa_density = 0.3;
  Schema schema = GenerateRandomSchema(params).value();
  Expansion expansion = Expansion::Build(schema).value();
  SatisfiabilityChecker checker(expansion);
  std::vector<bool> satisfiable = checker.SatisfiableClasses().value();
  IntegerSolution solution = checker.AcceptableIntegerSolution().value();
  WitnessOptions options;
  options.max_model_size = 2000000;
  Result<CertifiedWitness> witness =
      WitnessSynthesizer::SynthesizeFromSolution(expansion, solution, options);
  ASSERT_TRUE(witness.ok()) << "seed " << params.seed << ": "
                            << witness.status().message();
  const Interpretation& model = witness->interpretation();
  EXPECT_TRUE(ModelChecker::IsModel(schema, model)) << "seed " << params.seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, TernaryRelationshipTest,
                         ::testing::Range(0, 10));

class DisjointnessConsistencyTest : public ::testing::TestWithParam<int> {};

TEST_P(DisjointnessConsistencyTest,
       PrunedExpansionAgreesWithUnprunedOnVerdicts) {
  // Disjointness can be honored either via expansion pruning (extended
  // consistency) or ignored structurally; pruning must never flip a
  // verdict for schemas whose disjointness groups are what forces the
  // difference... here we compare pruned vs. full-consistency on schemas
  // WITHOUT disjointness, where both must coincide exactly.
  RandomSchemaParams params;
  params.seed = static_cast<std::uint32_t>(GetParam()) + 4000;
  params.num_classes = 4;
  params.num_relationships = 2;
  params.isa_density = 0.4;
  params.refinement_probability = 0.5;
  Schema schema = GenerateRandomSchema(params).value();
  ExpansionOptions extended;
  extended.use_extensions = true;
  ExpansionOptions plain;
  plain.use_extensions = false;
  Expansion a = Expansion::Build(schema, extended).value();
  Expansion b = Expansion::Build(schema, plain).value();
  SatisfiabilityChecker checker_a(a);
  SatisfiabilityChecker checker_b(b);
  EXPECT_EQ(checker_a.SatisfiableClasses().value(),
            checker_b.SatisfiableClasses().value())
      << "seed " << params.seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, DisjointnessConsistencyTest,
                         ::testing::Range(0, 20));

class ImpliedClosureAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(ImpliedClosureAgreementTest, ClosureMatchesPairwiseQueries) {
  RandomSchemaParams params;
  params.seed = static_cast<std::uint32_t>(GetParam()) + 5000;
  params.num_classes = 4;
  params.num_relationships = 2;
  params.isa_density = 0.4;
  params.primary_card_probability = 0.8;
  params.refinement_probability = 0.4;
  Schema schema = GenerateRandomSchema(params).value();
  testing::CheckedSchema checked(schema);
  std::vector<std::vector<bool>> closure =
      ImplicationChecker::ImpliedIsaClosure(checked.checker).value();
  for (ClassId c : schema.AllClasses()) {
    for (ClassId d : schema.AllClasses()) {
      // A fresh checker per query, so the closure's shared support is
      // compared with supports computed independently.
      testing::CheckedSchema fresh(schema);
      bool pairwise =
          ImplicationChecker::ImpliesIsa(fresh.checker, c, d).value();
      EXPECT_EQ(static_cast<bool>(closure[c.value][d.value]), pairwise)
          << schema.ClassName(c) << " <= " << schema.ClassName(d)
          << ", seed " << params.seed;
    }
    // The implied closure always contains the declared closure.
    for (ClassId d : schema.AllClasses()) {
      if (schema.IsSubclassOf(c, d)) {
        EXPECT_TRUE(closure[c.value][d.value]) << "seed " << params.seed;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ImpliedClosureAgreementTest,
                         ::testing::Range(0, 15));

class RepairSoundnessTest : public ::testing::TestWithParam<int> {};

TEST_P(RepairSoundnessTest, CoresMinimalOnRandomUnsatClasses) {
  RandomSchemaParams params;
  params.seed = static_cast<std::uint32_t>(GetParam()) + 6000;
  params.num_classes = 4;
  params.num_relationships = 3;
  params.isa_density = 0.4;
  params.primary_card_probability = 0.9;
  params.refinement_probability = 0.6;
  params.max_min_card = 3;
  params.max_card_slack = 1;
  Schema schema = GenerateRandomSchema(params).value();
  Expansion expansion = Expansion::Build(schema).value();
  SatisfiabilityChecker checker(expansion);
  std::vector<bool> satisfiable = checker.SatisfiableClasses().value();
  bool found_unsat = false;
  for (int c = 0; c < schema.num_classes() && !found_unsat; ++c) {
    if (satisfiable[c]) {
      continue;
    }
    found_unsat = true;
    ClassId cls(c);
    // The unsat core is nonempty (an unconstrained class is satisfiable,
    // so some constraint must be responsible).
    UnsatCore core = MinimizeUnsatCore(schema, cls).value();
    EXPECT_FALSE(core.constraints.empty()) << "seed " << params.seed;
    // Every repair suggestion names a core constraint, and relaxations
    // carry a replacement bound strictly looser than the declared one.
    std::vector<RepairSuggestion> repairs =
        SuggestRepairs(schema, cls, core).value();
    EXPECT_FALSE(repairs.empty()) << "seed " << params.seed;
    for (const RepairSuggestion& suggestion : repairs) {
      if (suggestion.action == RepairSuggestion::Action::kRelaxMin) {
        const CardinalityDeclaration& decl =
            schema.cardinality_declarations()[suggestion.constraint.index];
        ASSERT_TRUE(suggestion.relaxed.has_value());
        EXPECT_LT(suggestion.relaxed->min, decl.cardinality.min)
            << "seed " << params.seed;
      }
      if (suggestion.action == RepairSuggestion::Action::kRelaxMax) {
        const CardinalityDeclaration& decl =
            schema.cardinality_declarations()[suggestion.constraint.index];
        ASSERT_TRUE(suggestion.relaxed.has_value());
        ASSERT_TRUE(decl.cardinality.max.has_value());
        EXPECT_TRUE(!suggestion.relaxed->max.has_value() ||
                    *suggestion.relaxed->max > *decl.cardinality.max)
            << "seed " << params.seed;
      }
    }
  }
  if (!found_unsat) {
    GTEST_SKIP() << "seed produced a fully satisfiable schema";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RepairSoundnessTest,
                         ::testing::Range(0, 12));

// The three shapes of schema the debugging probes see: ISA-free (every
// probe takes the Lenzerini-Nobili stage), random ISA hierarchies (a probe
// does once it has erased the last ISA statement), and the paper's
// Figure-1 gadget beside ISA-free random classes, with C0 placed under the
// gadget in every other seed.
enum class DebugFamily { kIsaFree, kIsa, kFigure1 };

Schema DebuggingSchema(DebugFamily family, std::uint32_t seed) {
  RandomSchemaParams params;
  params.seed = seed;
  // Small on purpose: the cold path expands every probe, and an ISA-free
  // schema expands to every subset of its classes.
  params.num_classes = family == DebugFamily::kFigure1 ? 1 : 3;
  params.num_relationships = 2;
  params.isa_density = family == DebugFamily::kIsa ? 0.4 : 0.0;
  params.primary_card_probability = 0.9;
  params.refinement_probability = family == DebugFamily::kIsa ? 0.6 : 0.0;
  params.max_min_card = 3;
  params.max_card_slack = 1;
  params.infinite_max_probability = 0.1;
  Schema schema = GenerateRandomSchema(params).value();
  if (family != DebugFamily::kFigure1) {
    return schema;
  }
  SchemaBuilder builder = schema.ToBuilder();
  builder.AddClass("F1");
  builder.AddClass("F2");
  builder.AddIsa("F2", "F1");
  if (seed % 2 == 1) {
    builder.AddIsa("C0", "F2");
  }
  builder.AddRelationship("Fig1", {{"Fig1_V1", "F1"}, {"Fig1_V2", "F2"}});
  builder.SetCardinality("F1", "Fig1", "Fig1_V1", {2, std::nullopt});
  builder.SetCardinality("F2", "Fig1", "Fig1_V2", {0, 1});
  return builder.Build().value();
}

class DebuggingEquivalenceTest
    : public ::testing::TestWithParam<DebugFamily> {};

TEST_P(DebuggingEquivalenceTest, FastPathProbesMatchColdProbes) {
  // Cores compare by kind, index and description, repairs by action,
  // relaxed bound and description, on the first unsatisfiable class of
  // the first 70 seeds that have one.
  constexpr int kSchemasWithUnsat = 70;
  int with_unsat = 0;
  std::uint32_t seed = 7000;
  for (; with_unsat < kSchemasWithUnsat && seed < 9000; ++seed) {
    const Schema schema = DebuggingSchema(GetParam(), seed);
    CheckedSchema checked(schema);
    const std::vector<bool> satisfiable =
        checked.checker.SatisfiableClasses().value();
    int first_unsat = 0;
    while (first_unsat < schema.num_classes() && satisfiable[first_unsat]) {
      ++first_unsat;
    }
    if (first_unsat == schema.num_classes()) {
      continue;
    }
    ++with_unsat;
    const ClassId cls(first_unsat);
    const UnsatCore core = MinimizeUnsatCore(schema, cls).value();
    EXPECT_FALSE(core.constraints.empty()) << "seed " << seed;
    const std::string fast =
        DebugDigest(core, SuggestRepairs(schema, cls, core).value());
    ScopedIncrementalOverride off(false);
    const UnsatCore cold_core = MinimizeUnsatCore(schema, cls).value();
    EXPECT_EQ(
        DebugDigest(cold_core,
                    SuggestRepairs(schema, cls, cold_core).value()),
        fast)
        << "seed " << seed << ", class " << schema.ClassName(cls);
  }
  EXPECT_EQ(with_unsat, kSchemasWithUnsat) << "seeds up to " << seed;
}

INSTANTIATE_TEST_SUITE_P(Families, DebuggingEquivalenceTest,
                         ::testing::Values(DebugFamily::kIsaFree,
                                           DebugFamily::kIsa,
                                           DebugFamily::kFigure1));

class MinimalWitnessTest : public ::testing::TestWithParam<DebugFamily> {};

// Sum of a support's witness.
Rational WitnessTotal(const AcceptableSupport& support) {
  Rational total;
  for (const Rational& value : support.witness) {
    total += value;
  }
  return total;
}

TEST_P(MinimalWitnessTest, CoverSecondStageMatchesTheMinimalWitnessLp) {
  // The cover LP's second stage and the probe rounds' separate LP
  // (`ScopedIncrementalOverride(false)`) minimize the same total over the
  // same face, so the totals agree (the vertices may differ), and both
  // witnesses certify. Over the first 40 seeds with a satisfiable class.
  constexpr int kSchemasWithSat = 40;
  int with_sat = 0;
  std::uint32_t seed = 7000;
  for (; with_sat < kSchemasWithSat && seed < 9000; ++seed) {
    ScopedIncrementalOverride on(true);
    const Schema schema = DebuggingSchema(GetParam(), seed);
    CheckedSchema cover(schema);
    const AcceptableSupport& support = cover.checker.Support().value();
    const std::vector<bool> satisfiable =
        cover.checker.SatisfiableClasses().value();
    if (std::find(satisfiable.begin(), satisfiable.end(), true) ==
        satisfiable.end()) {
      continue;
    }
    ++with_sat;
    for (size_t v = 0; v < support.positive.size(); ++v) {
      EXPECT_EQ(support.witness[v] >= Rational(1), support.positive[v])
          << "seed " << seed << ", variable " << v;
    }
    EXPECT_TRUE(WitnessSynthesizer(cover.checker).Synthesize().ok())
        << "seed " << seed;

    // The same expansion: the override also changes how it is built.
    ScopedIncrementalOverride off(false);
    SatisfiabilityChecker rounds(cover.expansion);
    const AcceptableSupport& reference = rounds.Support().value();
    EXPECT_EQ(reference.positive, support.positive) << "seed " << seed;
    EXPECT_EQ(WitnessTotal(reference), WitnessTotal(support))
        << "seed " << seed;
    EXPECT_TRUE(WitnessSynthesizer(rounds).Synthesize().ok())
        << "seed " << seed;
  }
  EXPECT_EQ(with_sat, kSchemasWithSat) << "seeds up to " << seed;
}

INSTANTIATE_TEST_SUITE_P(Families, MinimalWitnessTest,
                         ::testing::Values(DebugFamily::kIsaFree,
                                           DebugFamily::kIsa,
                                           DebugFamily::kFigure1));

}  // namespace
}  // namespace crsat
