// Tests for the brute-force conformance oracle and the metamorphic
// rewrite library (src/oracle/).
//
// This binary deliberately links ONLY crsat_core + crsat_oracle (see
// tests/CMakeLists.txt): it is the link-time proof that the oracle does
// not depend on expansion/, lp/ or reasoner/ code. Do not include any
// header from those directories here.

#include <gtest/gtest.h>

#include "src/cr/model_checker.h"
#include "src/cr/schema.h"
#include "src/cr/schema_text.h"
#include "src/generator/random_schema.h"
#include "src/oracle/brute_force.h"
#include "src/oracle/metamorphic.h"

namespace crsat {
namespace {

Cardinality Card(std::uint64_t min, std::optional<std::uint64_t> max) {
  Cardinality cardinality;
  cardinality.min = min;
  cardinality.max = max;
  return cardinality;
}

Schema Build(SchemaBuilder& builder) {
  Result<Schema> schema = builder.Build();
  EXPECT_TRUE(schema.ok()) << schema.status();
  return std::move(schema).value();
}

bool OracleSat(const OracleReport& report, const Schema& schema,
               const std::string& cls) {
  return report.Satisfiable(*schema.FindClass(cls));
}

// The paper's Figure 1 interaction: ISA makes an LN-satisfiable
// constraint set unsatisfiable. Every C needs >= 2 tuples at V1, every
// tuple puts a D at V2, every D (a subset of C!) tolerates <= 1 tuple at
// V2 — so 2|C| <= |D| <= |C|, forcing C (and D) empty.
TEST(BruteForceOracle, IsaCardinalityInteractionIsUnsat) {
  SchemaBuilder builder;
  builder.AddClass("C");
  builder.AddClass("D");
  builder.AddIsa("D", "C");
  builder.AddRelationship("R", {{"V1", "C"}, {"V2", "D"}});
  builder.SetCardinality("C", "R", "V1", Card(2, std::nullopt));
  builder.SetCardinality("D", "R", "V2", Card(0, 1));
  Schema schema = Build(builder);

  Result<OracleReport> report = BruteForceOracle::Decide(schema);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(OracleSat(*report, schema, "C"));
  EXPECT_FALSE(OracleSat(*report, schema, "D"));
}

// Without the ISA edge the same cardinalities are satisfiable — the
// oracle must see the difference (this is the whole point of the paper).
TEST(BruteForceOracle, SameCardinalitiesWithoutIsaAreSat) {
  SchemaBuilder builder;
  builder.AddClass("C");
  builder.AddClass("D");
  builder.AddRelationship("R", {{"V1", "C"}, {"V2", "D"}});
  builder.SetCardinality("C", "R", "V1", Card(2, std::nullopt));
  builder.SetCardinality("D", "R", "V2", Card(0, 1));
  Schema schema = Build(builder);

  Result<OracleReport> report = BruteForceOracle::Decide(schema);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(OracleSat(*report, schema, "C"));
  EXPECT_TRUE(OracleSat(*report, schema, "D"));
}

TEST(BruteForceOracle, SimpleSatWithCertifiedModel) {
  SchemaBuilder builder;
  builder.AddClass("A");
  builder.AddClass("B");
  builder.AddRelationship("R", {{"U", "A"}, {"V", "B"}});
  builder.SetCardinality("A", "R", "U", Card(1, 2));
  builder.SetCardinality("B", "R", "V", Card(1, 1));
  Schema schema = Build(builder);

  Result<OracleReport> report = BruteForceOracle::Decide(schema);
  ASSERT_TRUE(report.ok()) << report.status();
  for (ClassId cls : schema.AllClasses()) {
    EXPECT_TRUE(report->Satisfiable(cls)) << schema.ClassName(cls);
    // The report carries an exemplar model; re-judging it must agree.
    ASSERT_TRUE(report->models[cls.value].has_value());
    const Interpretation& model = *report->models[cls.value];
    EXPECT_FALSE(model.ClassExtension(cls).empty());
    EXPECT_TRUE(ModelChecker::CheckModel(schema, model).empty());
    EXPECT_LE(model.domain_size(), OracleOptions().max_domain);
  }
}

TEST(BruteForceOracle, DisjointSuperclassesForceSubclassEmpty) {
  SchemaBuilder builder;
  builder.AddClass("A");
  builder.AddClass("B");
  builder.AddClass("C");
  builder.AddIsa("C", "A");
  builder.AddIsa("C", "B");
  builder.AddDisjointness({"A", "B"});
  Schema schema = Build(builder);

  Result<OracleReport> report = BruteForceOracle::Decide(schema);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(OracleSat(*report, schema, "A"));
  EXPECT_TRUE(OracleSat(*report, schema, "B"));
  EXPECT_FALSE(OracleSat(*report, schema, "C"));
}

// Covering propagates emptiness upward: B is forced empty by its own
// cardinalities, and A (covered by B alone) must then be empty too.
TEST(BruteForceOracle, CoveringPropagatesEmptiness) {
  SchemaBuilder builder;
  builder.AddClass("A");
  builder.AddClass("B");
  builder.AddIsa("B", "A");
  builder.AddCovering("A", {"B"});
  builder.AddRelationship("R", {{"U", "B"}, {"V", "B"}});
  builder.SetCardinality("B", "R", "U", Card(2, std::nullopt));
  builder.SetCardinality("B", "R", "V", Card(0, 1));
  Schema schema = Build(builder);

  Result<OracleReport> report = BruteForceOracle::Decide(schema);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(OracleSat(*report, schema, "B"));
  EXPECT_FALSE(OracleSat(*report, schema, "A"));
}

// A refinement that contradicts the superclass declaration empties the
// subclass but leaves the superclass satisfiable.
TEST(BruteForceOracle, ConflictingRefinementEmptiesSubclassOnly) {
  SchemaBuilder builder;
  builder.AddClass("C");
  builder.AddClass("D");
  builder.AddIsa("D", "C");
  builder.AddRelationship("R", {{"U", "C"}, {"V", "C"}});
  builder.SetCardinality("C", "R", "U", Card(1, 1));
  builder.SetCardinality("D", "R", "U", Card(2, 2));
  Schema schema = Build(builder);

  Result<OracleReport> report = BruteForceOracle::Decide(schema);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(OracleSat(*report, schema, "C"));
  EXPECT_FALSE(OracleSat(*report, schema, "D"));
}

TEST(BruteForceOracle, ArityThreeSolvesWithBacktracking) {
  SchemaBuilder builder;
  builder.AddClass("A");
  builder.AddClass("B");
  builder.AddClass("C");
  builder.AddRelationship(
      "S", {{"X", "A"}, {"Y", "B"}, {"Z", "C"}});
  builder.SetCardinality("A", "S", "X", Card(1, 2));
  builder.SetCardinality("B", "S", "Y", Card(1, std::nullopt));
  Schema schema = Build(builder);

  Result<OracleReport> report = BruteForceOracle::Decide(schema);
  ASSERT_TRUE(report.ok()) << report.status();
  for (ClassId cls : schema.AllClasses()) {
    EXPECT_TRUE(report->Satisfiable(cls)) << schema.ClassName(cls);
  }
}

// Minimum model needs 4 individuals (one A, three Bs — the disjointness
// stops one individual from playing both roles): the verdict must flip
// from UNSAT-up-to-bound to SAT exactly when the bound admits it.
TEST(BruteForceOracle, VerdictIsBoundSensitive) {
  SchemaBuilder builder;
  builder.AddClass("A");
  builder.AddClass("B");
  builder.AddRelationship("R", {{"U", "A"}, {"V", "B"}});
  builder.SetCardinality("A", "R", "U", Card(3, std::nullopt));
  builder.SetCardinality("B", "R", "V", Card(0, 1));
  builder.AddDisjointness({"A", "B"});
  Schema schema = Build(builder);

  OracleOptions tight;
  tight.max_domain = 3;
  Result<OracleReport> bounded = BruteForceOracle::Decide(schema, tight);
  ASSERT_TRUE(bounded.ok()) << bounded.status();
  EXPECT_FALSE(OracleSat(*bounded, schema, "A"));

  OracleOptions enough;
  enough.max_domain = 4;
  Result<OracleReport> unbounded = BruteForceOracle::Decide(schema, enough);
  ASSERT_TRUE(unbounded.ok()) << unbounded.status();
  EXPECT_TRUE(OracleSat(*unbounded, schema, "A"));
  EXPECT_EQ(unbounded->classes[schema.FindClass("A")->value]
                .model_domain_size,
            4);
}

TEST(BruteForceOracle, ExhaustedBudgetIsAnErrorNotAVerdict) {
  SchemaBuilder builder;
  builder.AddClass("A");
  builder.AddClass("B");
  builder.AddDisjointness({"A", "B"});
  Schema schema = Build(builder);

  OracleOptions options;
  options.max_assignments = 1;
  Result<OracleReport> report = BruteForceOracle::Decide(schema, options);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kResourceExhausted);
}

TEST(BruteForceOracle, RefusesSchemasTooWideToEnumerate) {
  SchemaBuilder builder;
  for (int i = 0; i < 17; ++i) {
    builder.AddClass("C" + std::to_string(i));
  }
  Schema schema = Build(builder);
  Result<OracleReport> report = BruteForceOracle::Decide(schema);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

// --- Metamorphic rewrites ---------------------------------------------

Schema SmallMutationTarget() {
  SchemaBuilder builder;
  builder.AddClass("A");
  builder.AddClass("B");
  builder.AddClass("C");
  builder.AddIsa("B", "A");
  builder.AddIsa("C", "B");
  builder.AddRelationship("R", {{"U", "A"}, {"V", "B"}});
  builder.SetCardinality("A", "R", "U", Card(1, 2));
  builder.SetCardinality("B", "R", "V", Card(0, 3));
  builder.AddDisjointness({"A", "C"});
  return Build(builder);
}

TEST(Metamorphic, AppliesEveryRuleToARichSchema) {
  Schema schema = SmallMutationTarget();
  Result<std::vector<MutatedSchema>> mutants =
      ApplyMetamorphicRules(schema, /*seed=*/11);
  ASSERT_TRUE(mutants.ok()) << mutants.status();
  // The schema has relationships, cards, composable ISA and disjointness,
  // so all eight rules are applicable.
  EXPECT_EQ(mutants->size(), MetamorphicRuleNames().size());
  for (const MutatedSchema& mutant : *mutants) {
    EXPECT_GE(mutant.schema.AllClasses().size(),
              schema.AllClasses().size())
        << mutant.rule_name;
    ASSERT_EQ(mutant.class_map.size(), schema.AllClasses().size());
  }
}

TEST(Metamorphic, SameSeedSameMutants) {
  Schema schema = SmallMutationTarget();
  Result<std::vector<MutatedSchema>> first =
      ApplyMetamorphicRules(schema, 3);
  Result<std::vector<MutatedSchema>> second =
      ApplyMetamorphicRules(schema, 3);
  ASSERT_TRUE(first.ok() && second.ok());
  ASSERT_EQ(first->size(), second->size());
  for (size_t i = 0; i < first->size(); ++i) {
    EXPECT_EQ(SchemaToText((*first)[i].schema, "m"),
              SchemaToText((*second)[i].schema, "m"));
  }
}

// The oracle doubles as the judge of the rewrite rules themselves: on a
// small schema every declared verdict relation must hold against ground
// truth. (The conformance harness then holds the *reasoner* to the same
// contract over thousands of seeds.)
TEST(Metamorphic, VerdictRelationsHoldAgainstOracle) {
  for (std::uint32_t seed = 1; seed <= 8; ++seed) {
    RandomSchemaParams params;
    params.seed = seed;
    params.num_classes = 3;
    params.num_relationships = 2;
    params.isa_density = 0.4;
    Result<Schema> schema = GenerateRandomSchema(params);
    ASSERT_TRUE(schema.ok()) << schema.status();
    Result<OracleReport> original = BruteForceOracle::Decide(*schema);
    ASSERT_TRUE(original.ok()) << original.status();

    Result<std::vector<MutatedSchema>> mutants =
        ApplyMetamorphicRules(*schema, seed);
    ASSERT_TRUE(mutants.ok()) << mutants.status();
    for (const MutatedSchema& mutant : *mutants) {
      Result<OracleReport> mutated =
          BruteForceOracle::Decide(mutant.schema);
      ASSERT_TRUE(mutated.ok())
          << mutant.rule_name << ": " << mutated.status();
      for (ClassId cls : schema->AllClasses()) {
        const bool before = original->Satisfiable(cls);
        const bool after =
            mutated->Satisfiable(mutant.class_map[cls.value]);
        switch (mutant.relation) {
          case VerdictRelation::kEquisatisfiable:
            EXPECT_EQ(before, after)
                << mutant.rule_name << " seed " << seed << " class "
                << schema->ClassName(cls);
            break;
          case VerdictRelation::kSatPreserved:
            EXPECT_TRUE(!before || after)
                << mutant.rule_name << " seed " << seed << " class "
                << schema->ClassName(cls);
            break;
          case VerdictRelation::kUnsatPreserved:
            EXPECT_TRUE(before || !after)
                << mutant.rule_name << " seed " << seed << " class "
                << schema->ClassName(cls);
            break;
        }
      }
    }
  }
}

}  // namespace
}  // namespace crsat
