#include "src/cr/schema.h"

#include <gtest/gtest.h>

#include "src/cr/schema_text.h"
#include "src/generator/random_schema.h"
#include "tests/test_schemas.h"

namespace crsat {
namespace {

using crsat::testing::MeetingSchema;

TEST(SchemaBuilderTest, MeetingSchemaBuilds) {
  Schema schema = MeetingSchema();
  EXPECT_EQ(schema.num_classes(), 3);
  EXPECT_EQ(schema.num_relationships(), 2);
  EXPECT_EQ(schema.num_roles(), 4);
}

TEST(SchemaBuilderTest, DuplicateClassNameRejected) {
  SchemaBuilder builder;
  builder.AddClass("A");
  builder.AddClass("A");
  Result<Schema> result = builder.Build();
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("duplicate class"),
            std::string::npos);
}

TEST(SchemaBuilderTest, UnknownClassInIsaRejected) {
  SchemaBuilder builder;
  builder.AddClass("A");
  builder.AddIsa("A", "Missing");
  EXPECT_FALSE(builder.Build().ok());
}

TEST(SchemaBuilderTest, ArityOneRejected) {
  SchemaBuilder builder;
  builder.AddClass("A");
  builder.AddRelationship("R", {{"U", "A"}});
  Result<Schema> result = builder.Build();
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("arity"), std::string::npos);
}

TEST(SchemaBuilderTest, RoleNamesMustBeGloballyUnique) {
  // Definition 2.1: role(R) and role(R') are disjoint.
  SchemaBuilder builder;
  builder.AddClass("A");
  builder.AddRelationship("R1", {{"U", "A"}, {"V", "A"}});
  builder.AddRelationship("R2", {{"U", "A"}, {"W", "A"}});
  EXPECT_FALSE(builder.Build().ok());
}

TEST(SchemaBuilderTest, CardinalityOnNonSubclassRejected) {
  SchemaBuilder builder;
  builder.AddClass("A");
  builder.AddClass("B");  // Not related to A by ISA.
  builder.AddRelationship("R", {{"U", "A"}, {"V", "A"}});
  builder.SetCardinality("B", "R", "U", {1, 1});
  Result<Schema> result = builder.Build();
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("subclass"), std::string::npos);
}

TEST(SchemaBuilderTest, CardinalityMaxBelowMinRejected) {
  SchemaBuilder builder;
  builder.AddClass("A");
  builder.AddRelationship("R", {{"U", "A"}, {"V", "A"}});
  builder.SetCardinality("A", "R", "U", {3, 2});
  EXPECT_FALSE(builder.Build().ok());
}

TEST(SchemaBuilderTest, DuplicateCardinalityDeclarationRejected) {
  SchemaBuilder builder;
  builder.AddClass("A");
  builder.AddRelationship("R", {{"U", "A"}, {"V", "A"}});
  builder.SetCardinality("A", "R", "U", {1, 2});
  builder.SetCardinality("A", "R", "U", {0, 3});
  EXPECT_FALSE(builder.Build().ok());
}

TEST(SchemaBuilderTest, RoleFromWrongRelationshipRejected) {
  SchemaBuilder builder;
  builder.AddClass("A");
  builder.AddRelationship("R1", {{"U1", "A"}, {"U2", "A"}});
  builder.AddRelationship("R2", {{"V1", "A"}, {"V2", "A"}});
  builder.SetCardinality("A", "R1", "V1", {1, 1});
  Result<Schema> result = builder.Build();
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("does not belong"),
            std::string::npos);
}

TEST(SchemaBuilderTest, ErrorsAccumulate) {
  SchemaBuilder builder;
  builder.AddClass("A");
  builder.AddClass("A");
  builder.AddIsa("A", "Missing");
  builder.AddRelationship("R", {{"U", "A"}});
  Result<Schema> result = builder.Build();
  ASSERT_FALSE(result.ok());
  // All three problems reported in one message.
  EXPECT_NE(result.status().message().find("duplicate class"),
            std::string::npos);
  EXPECT_NE(result.status().message().find("unknown class"),
            std::string::npos);
  EXPECT_NE(result.status().message().find("arity"), std::string::npos);
}

TEST(SchemaTest, IsaClosureIsReflexiveAndTransitive) {
  SchemaBuilder builder;
  builder.AddClass("A");
  builder.AddClass("B");
  builder.AddClass("C");
  builder.AddClass("D");
  builder.AddIsa("A", "B");
  builder.AddIsa("B", "C");
  builder.AddRelationship("R", {{"U", "A"}, {"V", "A"}});
  Schema schema = builder.Build().value();
  ClassId a = schema.FindClass("A").value();
  ClassId b = schema.FindClass("B").value();
  ClassId c = schema.FindClass("C").value();
  ClassId d = schema.FindClass("D").value();
  EXPECT_TRUE(schema.IsSubclassOf(a, a));
  EXPECT_TRUE(schema.IsSubclassOf(a, b));
  EXPECT_TRUE(schema.IsSubclassOf(a, c));
  EXPECT_TRUE(schema.IsSubclassOf(b, c));
  EXPECT_FALSE(schema.IsSubclassOf(c, a));
  EXPECT_FALSE(schema.IsSubclassOf(b, a));
  EXPECT_FALSE(schema.IsSubclassOf(a, d));
  EXPECT_FALSE(schema.IsSubclassOf(d, a));
}

TEST(SchemaTest, IsaCyclesAreAllowedAndMakeClassesEquivalent) {
  // Definition 2.1 does not forbid cycles; C <=* D and D <=* C.
  SchemaBuilder builder;
  builder.AddClass("C");
  builder.AddClass("D");
  builder.AddIsa("C", "D");
  builder.AddIsa("D", "C");
  builder.AddRelationship("R", {{"U", "C"}, {"V", "D"}});
  Schema schema = builder.Build().value();
  ClassId c = schema.FindClass("C").value();
  ClassId d = schema.FindClass("D").value();
  EXPECT_TRUE(schema.IsSubclassOf(c, d));
  EXPECT_TRUE(schema.IsSubclassOf(d, c));
}

TEST(SchemaTest, SubAndSuperclassEnumeration) {
  Schema schema = MeetingSchema();
  ClassId speaker = schema.FindClass("Speaker").value();
  ClassId discussant = schema.FindClass("Discussant").value();
  std::vector<ClassId> subs = schema.SubclassesOf(speaker);
  ASSERT_EQ(subs.size(), 2u);
  EXPECT_EQ(subs[0], speaker);
  EXPECT_EQ(subs[1], discussant);
  std::vector<ClassId> supers = schema.SuperclassesOf(discussant);
  ASSERT_EQ(supers.size(), 2u);
  EXPECT_EQ(supers[0], speaker);
  EXPECT_EQ(supers[1], discussant);
}

TEST(SchemaTest, CardinalityLookupWithDefault) {
  Schema schema = MeetingSchema();
  ClassId speaker = schema.FindClass("Speaker").value();
  ClassId discussant = schema.FindClass("Discussant").value();
  RelationshipId holds = schema.FindRelationship("Holds").value();
  RoleId u1 = schema.FindRole("U1").value();
  Cardinality speaker_card = schema.GetCardinality(speaker, holds, u1);
  EXPECT_EQ(speaker_card.min, 1u);
  EXPECT_FALSE(speaker_card.max.has_value());
  Cardinality discussant_card = schema.GetCardinality(discussant, holds, u1);
  EXPECT_EQ(discussant_card.min, 0u);
  EXPECT_EQ(discussant_card.max, std::optional<std::uint64_t>(2));
  // Undeclared triple: implicit default.
  RoleId u2 = schema.FindRole("U2").value();
  Cardinality implicit = schema.GetCardinality(discussant, holds, u2);
  EXPECT_TRUE(implicit.IsDefault());
}

TEST(SchemaTest, RoleMetadata) {
  Schema schema = MeetingSchema();
  RelationshipId holds = schema.FindRelationship("Holds").value();
  RoleId u1 = schema.FindRole("U1").value();
  RoleId u2 = schema.FindRole("U2").value();
  EXPECT_EQ(schema.RelationshipOf(u1), holds);
  EXPECT_EQ(schema.PrimaryClass(u1), schema.FindClass("Speaker").value());
  EXPECT_EQ(schema.PrimaryClass(u2), schema.FindClass("Talk").value());
  EXPECT_EQ(schema.RolePosition(u1), 0);
  EXPECT_EQ(schema.RolePosition(u2), 1);
  ASSERT_EQ(schema.RolesOf(holds).size(), 2u);
  EXPECT_EQ(schema.RolesOf(holds)[0], u1);
}

TEST(SchemaTest, DisjointnessDeclarationAndQuery) {
  SchemaBuilder builder;
  builder.AddClass("A");
  builder.AddClass("B");
  builder.AddClass("C");
  builder.AddRelationship("R", {{"U", "A"}, {"V", "B"}});
  builder.AddDisjointness({"A", "B"});
  Schema schema = builder.Build().value();
  ClassId a = schema.FindClass("A").value();
  ClassId b = schema.FindClass("B").value();
  ClassId c = schema.FindClass("C").value();
  EXPECT_TRUE(schema.AreDeclaredDisjoint(a, b));
  EXPECT_TRUE(schema.AreDeclaredDisjoint(b, a));
  EXPECT_FALSE(schema.AreDeclaredDisjoint(a, c));
  EXPECT_FALSE(schema.AreDeclaredDisjoint(a, a));
}

TEST(SchemaTest, DisjointnessValidation) {
  SchemaBuilder one_class;
  one_class.AddClass("A");
  one_class.AddRelationship("R", {{"U", "A"}, {"V", "A"}});
  one_class.AddDisjointness({"A"});
  EXPECT_FALSE(one_class.Build().ok());

  SchemaBuilder repeated;
  repeated.AddClass("A");
  repeated.AddRelationship("R", {{"U", "A"}, {"V", "A"}});
  repeated.AddDisjointness({"A", "A"});
  EXPECT_FALSE(repeated.Build().ok());
}

TEST(SchemaTest, CoveringDeclaration) {
  SchemaBuilder builder;
  builder.AddClass("Person");
  builder.AddClass("Adult");
  builder.AddClass("Minor");
  builder.AddIsa("Adult", "Person");
  builder.AddIsa("Minor", "Person");
  builder.AddRelationship("R", {{"U", "Person"}, {"V", "Person"}});
  builder.AddCovering("Person", {"Adult", "Minor"});
  Schema schema = builder.Build().value();
  ASSERT_EQ(schema.covering_constraints().size(), 1u);
  EXPECT_EQ(schema.covering_constraints()[0].covered,
            schema.FindClass("Person").value());
  EXPECT_EQ(schema.covering_constraints()[0].coverers.size(), 2u);
}

// Entry i of each builder list is declaration i of the matching schema
// accessor: unsat-core minimization and the repair search edit
// `ToBuilder()`'s lists by the schema's declaration indices.
void ExpectIndexAligned(const Schema& schema, const SchemaBuilder& builder) {
  ASSERT_EQ(builder.classes.size(), static_cast<size_t>(schema.num_classes()));
  for (ClassId cls : schema.AllClasses()) {
    EXPECT_EQ(builder.classes[cls.value], schema.ClassName(cls));
  }
  ASSERT_EQ(builder.relationships.size(),
            static_cast<size_t>(schema.num_relationships()));
  for (RelationshipId rel : schema.AllRelationships()) {
    const SchemaBuilder::Relationship& entry = builder.relationships[rel.value];
    EXPECT_EQ(entry.name, schema.RelationshipName(rel));
    ASSERT_EQ(entry.roles.size(), schema.RolesOf(rel).size());
    for (size_t k = 0; k < entry.roles.size(); ++k) {
      const RoleId role = schema.RolesOf(rel)[k];
      EXPECT_EQ(entry.roles[k].first, schema.RoleName(role));
      EXPECT_EQ(entry.roles[k].second,
                schema.ClassName(schema.PrimaryClass(role)));
    }
  }
  ASSERT_EQ(builder.isa.size(), schema.isa_statements().size());
  for (size_t i = 0; i < builder.isa.size(); ++i) {
    const IsaStatement& isa = schema.isa_statements()[i];
    EXPECT_EQ(builder.isa[i].subclass, schema.ClassName(isa.subclass));
    EXPECT_EQ(builder.isa[i].superclass, schema.ClassName(isa.superclass));
  }
  ASSERT_EQ(builder.cards.size(), schema.cardinality_declarations().size());
  for (size_t i = 0; i < builder.cards.size(); ++i) {
    const CardinalityDeclaration& decl = schema.cardinality_declarations()[i];
    EXPECT_EQ(builder.cards[i].cls, schema.ClassName(decl.cls));
    EXPECT_EQ(builder.cards[i].rel, schema.RelationshipName(decl.rel));
    EXPECT_EQ(builder.cards[i].role, schema.RoleName(decl.role));
    EXPECT_EQ(builder.cards[i].cardinality, decl.cardinality);
  }
  ASSERT_EQ(builder.disjointness.size(),
            schema.disjointness_constraints().size());
  for (size_t i = 0; i < builder.disjointness.size(); ++i) {
    const DisjointnessConstraint& group = schema.disjointness_constraints()[i];
    ASSERT_EQ(builder.disjointness[i].size(), group.classes.size());
    for (size_t k = 0; k < group.classes.size(); ++k) {
      EXPECT_EQ(builder.disjointness[i][k], schema.ClassName(group.classes[k]));
    }
  }
  ASSERT_EQ(builder.coverings.size(), schema.covering_constraints().size());
  for (size_t i = 0; i < builder.coverings.size(); ++i) {
    const CoveringConstraint& cover = schema.covering_constraints()[i];
    EXPECT_EQ(builder.coverings[i].covered, schema.ClassName(cover.covered));
    ASSERT_EQ(builder.coverings[i].coverers.size(), cover.coverers.size());
    for (size_t k = 0; k < cover.coverers.size(); ++k) {
      EXPECT_EQ(builder.coverings[i].coverers[k],
                schema.ClassName(cover.coverers[k]));
    }
  }
}

TEST(SchemaTest, ToBuilderRoundTripsAllDeclarations) {
  SchemaBuilder builder;
  builder.AddClass("A");
  builder.AddClass("B");
  builder.AddClass("C");
  builder.AddIsa("B", "A");
  builder.AddRelationship("R", {{"U", "A"}, {"V", "C"}});
  builder.SetCardinality("A", "R", "U", {1, 2});
  builder.SetCardinality("B", "R", "U", {1, 1});
  builder.AddDisjointness({"A", "C"});
  builder.AddCovering("A", {"B"});
  const Schema hand_built = builder.Build().value();

  RandomSchemaParams params;
  params.seed = 7;
  params.num_disjointness_groups = 1;
  const Result<Schema> generated = GenerateRandomSchema(params);
  ASSERT_TRUE(generated.ok()) << generated.status();

  for (const Schema* original : {&hand_built, &*generated}) {
    const SchemaBuilder editable = original->ToBuilder();
    ExpectIndexAligned(*original, editable);
    Result<Schema> copy = editable.Build();
    ASSERT_TRUE(copy.ok()) << copy.status();
    ExpectIndexAligned(*copy, editable);
    EXPECT_EQ(SchemaToText(*copy, "s"), SchemaToText(*original, "s"));
  }

  Schema copy = hand_built.ToBuilder().Build().value();
  ClassId b = copy.FindClass("B").value();
  RelationshipId r = copy.FindRelationship("R").value();
  RoleId u = copy.FindRole("U").value();
  EXPECT_EQ(copy.GetCardinality(b, r, u),
            (Cardinality{1, std::optional<std::uint64_t>(1)}));
}

TEST(SchemaTest, CardinalityToString) {
  EXPECT_EQ((Cardinality{1, std::nullopt}).ToString(), "(1, *)");
  EXPECT_EQ((Cardinality{0, std::optional<std::uint64_t>(2)}).ToString(),
            "(0, 2)");
}

}  // namespace
}  // namespace crsat
