#include "src/reasoner/repair.h"

#include <gtest/gtest.h>

#include "src/reasoner/satisfiability.h"
#include "tests/test_schemas.h"

namespace crsat {
namespace {

using crsat::testing::Figure1Schema;
using crsat::testing::MeetingSchema;
using crsat::testing::MeetingSchemaWithEagerDiscussants;

// Repairs are computed from the class's minimal unsat core, as `debug`
// does: the core is extracted once and handed over.
std::vector<RepairSuggestion> RepairsFor(const Schema& schema, ClassId cls) {
  const UnsatCore core = MinimizeUnsatCore(schema, cls).value();
  return SuggestRepairs(schema, cls, core).value();
}

TEST(RepairTest, SatisfiableClassHasNoRepairs) {
  // A satisfiable class has no core, so there is nothing to repair.
  Schema schema = MeetingSchema();
  Result<UnsatCore> core =
      MinimizeUnsatCore(schema, schema.FindClass("Speaker").value());
  ASSERT_FALSE(core.ok());
  EXPECT_EQ(core.status().code(), StatusCode::kInvalidArgument);
}

TEST(RepairTest, Figure1SuggestionsAreMinimalEdits) {
  Schema schema = Figure1Schema();
  ClassId c = schema.FindClass("C").value();
  std::vector<RepairSuggestion> suggestions = RepairsFor(schema, c);
  // Expected: remove the ISA edge, lower (2,*) min to 1, raise (0,1) max
  // to 2.
  bool found_isa_removal = false;
  bool found_min_relax = false;
  bool found_max_relax = false;
  for (const RepairSuggestion& suggestion : suggestions) {
    if (suggestion.action == RepairSuggestion::Action::kRemove &&
        suggestion.constraint.kind == CoreConstraint::Kind::kIsa) {
      found_isa_removal = true;
    }
    if (suggestion.action == RepairSuggestion::Action::kRelaxMin) {
      found_min_relax = true;
      ASSERT_TRUE(suggestion.relaxed.has_value());
      EXPECT_EQ(suggestion.relaxed->min, 1u);  // (2,*) -> (1,*).
    }
    if (suggestion.action == RepairSuggestion::Action::kRelaxMax) {
      found_max_relax = true;
      ASSERT_TRUE(suggestion.relaxed.has_value());
      EXPECT_EQ(suggestion.relaxed->max, std::optional<std::uint64_t>(2));
    }
  }
  EXPECT_TRUE(found_isa_removal);
  EXPECT_TRUE(found_min_relax);
  EXPECT_TRUE(found_max_relax);
}

TEST(RepairTest, SuggestionsActuallyRepair) {
  // Apply each cardinality relaxation and verify the class becomes
  // satisfiable.
  Schema schema = Figure1Schema();
  ClassId c = schema.FindClass("C").value();
  std::vector<RepairSuggestion> suggestions = RepairsFor(schema, c);
  for (const RepairSuggestion& suggestion : suggestions) {
    if (!suggestion.relaxed.has_value()) {
      continue;
    }
    const CardinalityDeclaration& decl =
        schema.cardinality_declarations()[suggestion.constraint.index];
    SchemaBuilder builder;
    builder.AddClass("C");
    builder.AddClass("D");
    builder.AddIsa("D", "C");
    builder.AddRelationship("R", {{"V1", "C"}, {"V2", "D"}});
    for (const CardinalityDeclaration& existing :
         schema.cardinality_declarations()) {
      Cardinality value = (&existing == &decl) ? *suggestion.relaxed
                                               : existing.cardinality;
      builder.SetCardinality(schema.ClassName(existing.cls),
                             schema.RelationshipName(existing.rel),
                             schema.RoleName(existing.role), value);
    }
    Schema repaired = builder.Build().value();
    Expansion expansion = Expansion::Build(repaired).value();
    SatisfiabilityChecker checker(expansion);
    EXPECT_TRUE(checker.IsClassSatisfiable(c).value())
        << suggestion.description;
  }
}

TEST(RepairTest, EagerDiscussantSuggestionsIncludeTheRefinement) {
  Schema schema = MeetingSchemaWithEagerDiscussants();
  ClassId speaker = schema.FindClass("Speaker").value();
  std::vector<RepairSuggestion> suggestions = RepairsFor(schema, speaker);
  EXPECT_FALSE(suggestions.empty());
  bool mentions_refinement = false;
  for (const RepairSuggestion& suggestion : suggestions) {
    if (suggestion.constraint.description.find("(2, 2)") !=
        std::string::npos) {
      mentions_refinement = true;
      // The natural fix: lower the eager minimum back to something
      // satisfiable, or raise the cap.
      EXPECT_TRUE(suggestion.action == RepairSuggestion::Action::kRelaxMin ||
                  suggestion.action == RepairSuggestion::Action::kRelaxMax ||
                  suggestion.action == RepairSuggestion::Action::kRemove);
    }
  }
  EXPECT_TRUE(mentions_refinement);
}

TEST(RepairTest, DisjointnessDrivenUnsatSuggestsRemovals) {
  SchemaBuilder builder;
  builder.AddClass("A");
  builder.AddClass("B");
  builder.AddClass("C");
  builder.AddIsa("B", "A");
  builder.AddIsa("B", "C");
  builder.AddDisjointness({"A", "C"});
  builder.AddRelationship("R", {{"U", "A"}, {"V", "C"}});
  Schema schema = builder.Build().value();
  std::vector<RepairSuggestion> suggestions =
      RepairsFor(schema, schema.FindClass("B").value());
  ASSERT_EQ(suggestions.size(), 3u);  // Two ISA edges + disjointness.
  for (const RepairSuggestion& suggestion : suggestions) {
    EXPECT_EQ(suggestion.action, RepairSuggestion::Action::kRemove);
  }
}

}  // namespace
}  // namespace crsat
