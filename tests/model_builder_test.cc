// The constructive half of Section 3.3 on fixed schemas: full synthesis
// from the checker (the Figure 6 meeting model, degree balancing, a
// ternary relationship) and stages 2-3 of WitnessSynthesizer from
// hand-built integer solutions (zero solution, size mismatch, an
// unacceptable solution, duplicate-tuple collisions, the size cap).

#include <gtest/gtest.h>

#include "src/cr/model_checker.h"
#include "src/reasoner/satisfiability.h"
#include "src/witness/integer_solution.h"
#include "src/witness/witness.h"
#include "tests/test_schemas.h"

namespace crsat {
namespace {

using ::crsat::testing::EmploymentSchema;
using ::crsat::testing::MeetingSchema;

TEST(ConstructiveModelTest, MeetingWitnessRealizesFigure6Shape) {
  // The paper's Figure 6 derives a model with 2 speaker-discussants and 2
  // talks from the solution of the disequation system. Our witness may
  // scale differently but must populate every class of the schema.
  Schema schema = MeetingSchema();
  Expansion expansion = Expansion::Build(schema).value();
  SatisfiabilityChecker checker(expansion);
  const CertifiedWitness witness =
      WitnessSynthesizer(checker).Synthesize().value();
  const Interpretation& model = witness.interpretation();
  EXPECT_TRUE(ModelChecker::IsModel(schema, model));
  for (ClassId cls : schema.AllClasses()) {
    EXPECT_FALSE(model.ClassExtension(cls).empty()) << schema.ClassName(cls);
  }
  // The schema forces speakers == discussants (Figure 7).
  EXPECT_EQ(model.ClassExtension(schema.FindClass("Speaker").value()),
            model.ClassExtension(schema.FindClass("Discussant").value()));
}

TEST(ConstructiveModelTest, EmploymentWitnessBalancesDegrees) {
  // Every employee in exactly one department; departments need >= 3
  // employees: the witness must respect both.
  Schema schema = EmploymentSchema();
  Expansion expansion = Expansion::Build(schema).value();
  SatisfiabilityChecker checker(expansion);
  const CertifiedWitness witness =
      WitnessSynthesizer(checker).Synthesize().value();
  const Interpretation& model = witness.interpretation();
  EXPECT_TRUE(ModelChecker::IsModel(schema, model));
  ClassId department = schema.FindClass("Department").value();
  ClassId employee = schema.FindClass("Employee").value();
  EXPECT_FALSE(model.ClassExtension(department).empty());
  EXPECT_GE(model.ClassExtension(employee).size(),
            3 * model.ClassExtension(department).size());
}

TEST(ConstructiveModelTest, TernaryRelationshipRealized) {
  SchemaBuilder builder;
  builder.AddClass("A");
  builder.AddClass("B");
  builder.AddClass("C");
  builder.AddRelationship("T", {{"U", "A"}, {"V", "B"}, {"W", "C"}});
  builder.SetCardinality("A", "T", "U", {1, 2});
  builder.SetCardinality("B", "T", "V", {1, 1});
  builder.SetCardinality("C", "T", "W", {1, 3});
  Schema schema = builder.Build().value();
  Expansion expansion = Expansion::Build(schema).value();
  SatisfiabilityChecker checker(expansion);
  const CertifiedWitness witness =
      WitnessSynthesizer(checker).Synthesize().value();
  EXPECT_TRUE(ModelChecker::IsModel(schema, witness.interpretation()));
  EXPECT_FALSE(witness.interpretation()
                   .ClassExtension(schema.FindClass("A").value())
                   .empty());
  EXPECT_FALSE(witness.interpretation()
                   .RelationshipExtension(schema.FindRelationship("T").value())
                   .empty());
}

TEST(SynthesizeFromSolutionTest, ZeroSolutionYieldsEmptyModel) {
  Schema schema = MeetingSchema();
  Expansion expansion = Expansion::Build(schema).value();
  IntegerSolution zeros;
  zeros.class_counts.assign(expansion.classes().size(), BigInt(0));
  zeros.rel_counts.assign(expansion.relationships().size(), BigInt(0));
  const CertifiedWitness witness =
      WitnessSynthesizer::SynthesizeFromSolution(expansion, zeros).value();
  EXPECT_EQ(witness.interpretation().domain_size(), 0);
  EXPECT_TRUE(ModelChecker::IsModel(schema, witness.interpretation()));
}

TEST(SynthesizeFromSolutionTest, MismatchedSolutionSizeRejected) {
  Schema schema = MeetingSchema();
  Expansion expansion = Expansion::Build(schema).value();
  IntegerSolution bad;
  bad.class_counts.assign(1, BigInt(0));
  bad.rel_counts.assign(expansion.relationships().size(), BigInt(0));
  EXPECT_FALSE(
      WitnessSynthesizer::SynthesizeFromSolution(expansion, bad).ok());
}

TEST(SynthesizeFromSolutionTest, UnacceptableSolutionRejected) {
  // Tuples in a compound relationship whose component class is empty.
  SchemaBuilder builder;
  builder.AddClass("A");
  builder.AddClass("B");
  builder.AddRelationship("R", {{"U", "A"}, {"V", "B"}});
  Schema schema = builder.Build().value();
  Expansion expansion = Expansion::Build(schema).value();
  IntegerSolution solution;
  solution.class_counts.assign(expansion.classes().size(), BigInt(0));
  solution.rel_counts.assign(expansion.relationships().size(), BigInt(0));
  solution.rel_counts[0] = BigInt(1);
  Result<CertifiedWitness> witness =
      WitnessSynthesizer::SynthesizeFromSolution(expansion, solution);
  ASSERT_FALSE(witness.ok());
  EXPECT_EQ(witness.status().code(), StatusCode::kInvalidArgument);
}

TEST(SynthesizeFromSolutionTest, DuplicateCollisionsResolvedByFlowOrScaling) {
  // One A, one B, and R pairing them with multiplicity exactly 2 on both
  // sides: at scale 1 the only candidate extension would need the tuple
  // (a, b) twice — impossible for a set. Synthesis must scale the
  // solution and realize 2 A's, 2 B's, 4 tuples (or similar).
  SchemaBuilder builder;
  builder.AddClass("A");
  builder.AddClass("B");
  builder.AddRelationship("R", {{"U", "A"}, {"V", "B"}});
  builder.SetCardinality("A", "R", "U", {2, 2});
  builder.SetCardinality("B", "R", "V", {2, 2});
  Schema schema = builder.Build().value();
  Expansion expansion = Expansion::Build(schema).value();

  IntegerSolution cramped;
  cramped.class_counts.assign(expansion.classes().size(), BigInt(0));
  cramped.rel_counts.assign(expansion.relationships().size(), BigInt(0));
  int a_index = expansion.ClassIndexOf(CompoundClass(0b01));
  int b_index = expansion.ClassIndexOf(CompoundClass(0b10));
  ASSERT_GE(a_index, 0);
  ASSERT_GE(b_index, 0);
  cramped.class_counts[a_index] = BigInt(1);
  cramped.class_counts[b_index] = BigInt(1);
  // Find the compound relationship <{A},{B}>.
  int rel_index = -1;
  for (size_t i = 0; i < expansion.relationships().size(); ++i) {
    if (expansion.relationships()[i].components[0] == CompoundClass(0b01) &&
        expansion.relationships()[i].components[1] == CompoundClass(0b10)) {
      rel_index = static_cast<int>(i);
    }
  }
  ASSERT_GE(rel_index, 0);
  cramped.rel_counts[rel_index] = BigInt(2);

  const CertifiedWitness witness =
      WitnessSynthesizer::SynthesizeFromSolution(expansion, cramped).value();
  const Interpretation& model = witness.interpretation();
  EXPECT_TRUE(ModelChecker::IsModel(schema, model));
  EXPECT_GE(model.ClassExtension(schema.FindClass("A").value()).size(), 2u);
  EXPECT_GE(
      model.RelationshipExtension(schema.FindRelationship("R").value()).size(),
      4u);
}

TEST(SynthesizeFromSolutionTest, SizeCapEnforced) {
  Schema schema = EmploymentSchema();
  Expansion expansion = Expansion::Build(schema).value();
  SatisfiabilityChecker checker(expansion);
  IntegerSolution solution = checker.AcceptableIntegerSolution().value();
  WitnessOptions options;
  options.max_model_size = 1;  // Far below any witness for this schema.
  Result<CertifiedWitness> witness =
      WitnessSynthesizer::SynthesizeFromSolution(expansion, solution, options);
  ASSERT_FALSE(witness.ok());
  EXPECT_EQ(witness.status().code(), StatusCode::kUnavailable);
}

}  // namespace
}  // namespace crsat
