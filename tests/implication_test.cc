#include "src/reasoner/implication.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/commands/analysis.h"
#include "src/cr/schema_text.h"
#include "tests/checked_schema.h"
#include "tests/test_schemas.h"

namespace crsat {
namespace {

using crsat::testing::MeetingSchema;

class Figure7Test : public ::testing::Test {
 protected:
  void SetUp() override {
    speaker_ = schema_.FindClass("Speaker").value();
    discussant_ = schema_.FindClass("Discussant").value();
    talk_ = schema_.FindClass("Talk").value();
    holds_ = schema_.FindRelationship("Holds").value();
    participates_ = schema_.FindRelationship("Participates").value();
    u1_ = schema_.FindRole("U1").value();
    u2_ = schema_.FindRole("U2").value();
    u3_ = schema_.FindRole("U3").value();
    u4_ = schema_.FindRole("U4").value();
  }

  Schema schema_ = MeetingSchema();
  crsat::testing::CheckedSchema checked_{schema_};
  const SatisfiabilityChecker& checker_ = checked_.checker;
  ClassId speaker_, discussant_, talk_;
  RelationshipId holds_, participates_;
  RoleId u1_, u2_, u3_, u4_;
};

TEST_F(Figure7Test, SpeakerIsaDiscussantIsImplied) {
  // Figure 7, first inference: S |= Speaker <= Discussant (the reverse of
  // the declared ISA!).
  EXPECT_TRUE(
      ImplicationChecker::ImpliesIsa(checker_, speaker_, discussant_).value());
}

TEST_F(Figure7Test, MaxOneParticipationPerTalkIsImplied) {
  // Figure 7, second inference: maxc(Talk, Participates, U4) = 1.
  EXPECT_TRUE(ImplicationChecker::ImpliesMaxCardinality(
                  schema_, talk_, participates_, u4_, 1)
                  .value());
  EXPECT_FALSE(ImplicationChecker::ImpliesMaxCardinality(
                   schema_, talk_, participates_, u4_, 0)
                   .value());
}

TEST_F(Figure7Test, MaxOneHoldingPerSpeakerIsImplied) {
  // Figure 7, third inference: maxc(Speaker, Holds, U1) = 1, strictly
  // tighter than both the declared (1, inf) and the refinement (0, 2).
  EXPECT_TRUE(ImplicationChecker::ImpliesMaxCardinality(schema_, speaker_,
                                                        holds_, u1_, 1)
                  .value());
  EXPECT_FALSE(ImplicationChecker::ImpliesMaxCardinality(schema_, speaker_,
                                                         holds_, u1_, 0)
                   .value());
}

TEST_F(Figure7Test, DeclaredIsaIsImplied) {
  EXPECT_TRUE(
      ImplicationChecker::ImpliesIsa(checker_, discussant_, speaker_).value());
}

TEST_F(Figure7Test, ReflexiveIsaAlwaysImplied) {
  EXPECT_TRUE(
      ImplicationChecker::ImpliesIsa(checker_, talk_, talk_).value());
}

TEST_F(Figure7Test, NonImpliedIsaRejected) {
  EXPECT_FALSE(
      ImplicationChecker::ImpliesIsa(checker_, talk_, speaker_).value());
  EXPECT_FALSE(
      ImplicationChecker::ImpliesIsa(checker_, speaker_, talk_).value());
}

TEST_F(Figure7Test, ImpliedMinCardinalities) {
  // Every discussant participates exactly once (declared) and the schema
  // forces every speaker to hold exactly one talk: minc 1 is implied, 2 is
  // not.
  EXPECT_TRUE(ImplicationChecker::ImpliesMinCardinality(schema_, speaker_,
                                                        holds_, u1_, 1)
                  .value());
  EXPECT_FALSE(ImplicationChecker::ImpliesMinCardinality(schema_, speaker_,
                                                         holds_, u1_, 2)
                   .value());
  // Trivial bound always implied.
  EXPECT_TRUE(ImplicationChecker::ImpliesMinCardinality(schema_, speaker_,
                                                        holds_, u1_, 0)
                  .value());
}

TEST_F(Figure7Test, TightestBoundsMatchTheInferences) {
  EXPECT_EQ(ImplicationChecker::TightestImpliedMin(schema_, speaker_, holds_,
                                                   u1_)
                .value(),
            1u);
  EXPECT_EQ(ImplicationChecker::TightestImpliedMax(schema_, speaker_, holds_,
                                                   u1_)
                .value(),
            std::optional<std::uint64_t>(1));
  EXPECT_EQ(ImplicationChecker::TightestImpliedMax(schema_, talk_,
                                                   participates_, u4_)
                .value(),
            std::optional<std::uint64_t>(1));
  EXPECT_EQ(ImplicationChecker::TightestImpliedMin(schema_, talk_,
                                                   participates_, u4_)
                .value(),
            1u);
  EXPECT_EQ(ImplicationChecker::TightestImpliedMax(schema_, talk_, holds_,
                                                   u2_)
                .value(),
            std::optional<std::uint64_t>(1));
}

TEST_F(Figure7Test, UnboundedMaxReportsNoBound) {
  // In a schema without interaction, Speaker's holdings are genuinely
  // unbounded.
  SchemaBuilder builder;
  builder.AddClass("Speaker");
  builder.AddClass("Talk");
  builder.AddRelationship("Holds", {{"U1", "Speaker"}, {"U2", "Talk"}});
  builder.SetCardinality("Speaker", "Holds", "U1", {1, std::nullopt});
  Schema schema = builder.Build().value();
  ClassId speaker = schema.FindClass("Speaker").value();
  RelationshipId holds = schema.FindRelationship("Holds").value();
  RoleId u1 = schema.FindRole("U1").value();
  EXPECT_EQ(
      ImplicationChecker::TightestImpliedMax(schema, speaker, holds, u1, 8)
          .value(),
      std::nullopt);
  EXPECT_EQ(
      ImplicationChecker::TightestImpliedMin(schema, speaker, holds, u1)
          .value(),
      1u);
}

TEST_F(Figure7Test, RefinementTripleValidation) {
  // Talk is not a subclass of Speaker, so (Talk, Holds, U1) is ill-formed.
  Result<bool> result =
      ImplicationChecker::ImpliesMaxCardinality(schema_, talk_, holds_, u1_, 1);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  // Role from the wrong relationship.
  Result<bool> wrong_role = ImplicationChecker::ImpliesMaxCardinality(
      schema_, talk_, holds_, u4_, 1);
  ASSERT_FALSE(wrong_role.ok());
}

TEST_F(Figure7Test, TightestBoundsRejectUnsatisfiableClass) {
  Schema schema = crsat::testing::Figure1Schema();
  ClassId c = schema.FindClass("C").value();
  RelationshipId r = schema.FindRelationship("R").value();
  RoleId v1 = schema.FindRole("V1").value();
  Result<std::uint64_t> min_result =
      ImplicationChecker::TightestImpliedMin(schema, c, r, v1);
  ASSERT_FALSE(min_result.ok());
  EXPECT_NE(min_result.status().message().find("unsatisfiable"),
            std::string::npos);
  EXPECT_FALSE(
      ImplicationChecker::TightestImpliedMax(schema, c, r, v1).ok());
}

TEST_F(Figure7Test, VacuousImplicationForUnsatisfiableClass) {
  // In Figure 1's schema every class is empty, so any constraint on them
  // is implied.
  Schema schema = crsat::testing::Figure1Schema();
  ClassId c = schema.FindClass("C").value();
  ClassId d = schema.FindClass("D").value();
  RelationshipId r = schema.FindRelationship("R").value();
  RoleId v1 = schema.FindRole("V1").value();
  EXPECT_TRUE(ImplicationChecker::ImpliesIsa(
                  crsat::testing::CheckedSchema(schema).checker, c, d)
                  .value());
  EXPECT_TRUE(
      ImplicationChecker::ImpliesMaxCardinality(schema, c, r, v1, 0).value());
  EXPECT_TRUE(ImplicationChecker::ImpliesMinCardinality(schema, c, r, v1,
                                                        100)
                  .value());
}

TEST_F(Figure7Test, EagerDiscussantVariantImpliesEverything) {
  // With the Section 3.3 extra constraint the schema admits only the empty
  // model, so even contradictory-looking statements are implied.
  Schema schema = crsat::testing::MeetingSchemaWithEagerDiscussants();
  ClassId speaker = schema.FindClass("Speaker").value();
  ClassId talk = schema.FindClass("Talk").value();
  crsat::testing::CheckedSchema checked(schema);
  EXPECT_TRUE(
      ImplicationChecker::ImpliesIsa(checked.checker, speaker, talk).value());
  EXPECT_TRUE(
      ImplicationChecker::ImpliesIsa(checked.checker, talk, speaker).value());
}

TEST_F(Figure7Test, ImpliedIsaClosureMatchesPairwiseQueries) {
  std::vector<std::vector<bool>> closure =
      ImplicationChecker::ImpliedIsaClosure(checker_).value();
  for (ClassId c : schema_.AllClasses()) {
    for (ClassId d : schema_.AllClasses()) {
      bool pairwise =
          ImplicationChecker::ImpliesIsa(checker_, c, d).value();
      EXPECT_EQ(closure[c.value][d.value], pairwise)
          << schema_.ClassName(c) << " <= " << schema_.ClassName(d);
    }
  }
  // The Figure 7 headline: Speaker <= Discussant is implied although only
  // Discussant <= Speaker is declared.
  EXPECT_TRUE(closure[speaker_.value][discussant_.value]);
  EXPECT_TRUE(closure[discussant_.value][speaker_.value]);
  EXPECT_FALSE(closure[talk_.value][speaker_.value]);
  EXPECT_FALSE(closure[speaker_.value][talk_.value]);
}

TEST_F(Figure7Test, ImpliedIsaClosureSupersetOfDeclaredClosure) {
  std::vector<std::vector<bool>> closure =
      ImplicationChecker::ImpliedIsaClosure(checker_).value();
  for (ClassId c : schema_.AllClasses()) {
    for (ClassId d : schema_.AllClasses()) {
      if (schema_.IsSubclassOf(c, d)) {
        EXPECT_TRUE(closure[c.value][d.value]);
      }
    }
  }
}

TEST_F(Figure7Test, ImpliedIsaClosureVacuousForUnsatisfiableClasses) {
  Schema schema = crsat::testing::Figure1Schema();
  std::vector<std::vector<bool>> closure =
      ImplicationChecker::ImpliedIsaClosure(
          crsat::testing::CheckedSchema(schema).checker)
          .value();
  // Both classes empty in every model: everything is implied.
  EXPECT_TRUE(closure[0][1]);
  EXPECT_TRUE(closure[1][0]);
}

TEST_F(Figure7Test, FreshAuxiliaryNameAvoidsCollisions) {
  // A schema that already uses the auxiliary name must still work.
  SchemaBuilder builder;
  builder.AddClass("__Cexc");
  builder.AddClass("B");
  builder.AddRelationship("R", {{"U", "__Cexc"}, {"V", "B"}});
  builder.SetCardinality("__Cexc", "R", "U", {1, 1});
  Schema schema = builder.Build().value();
  ClassId cexc = schema.FindClass("__Cexc").value();
  RelationshipId r = schema.FindRelationship("R").value();
  RoleId u = schema.FindRole("U").value();
  EXPECT_TRUE(
      ImplicationChecker::ImpliesMaxCardinality(schema, cexc, r, u, 1)
          .value());
  EXPECT_FALSE(
      ImplicationChecker::ImpliesMaxCardinality(schema, cexc, r, u, 0)
          .value());
}

// The verdict the ISA family gave before it read a shared support: a
// fresh expansion (no provably-empty pruning) and a fresh checker per
// query, asked whether any acceptable solution populates a compound
// class in `targets`, selected by `violates(compound)`.
template <typename Violates>
bool FreshQueryImplied(const Schema& schema, ClassId member,
                       Violates violates) {
  Expansion expansion = Expansion::Build(schema).value();
  SatisfiabilityChecker checker(expansion);
  std::vector<int> targets;
  for (int class_index : expansion.ClassIndicesContaining(member)) {
    if (violates(expansion.classes()[class_index])) {
      targets.push_back(class_index);
    }
  }
  return !checker.IsTargetSatisfiable(targets).value();
}

TEST(ExampleSchemaImplicationTest, SharedAnalysisMatchesFreshQueries) {
  // Every ISA-family query on every shipped schema, answered from one
  // analysis (pruned expansion, support computed once), equals the
  // verdict of a fresh expansion and checker per query.
  const std::filesystem::path dir =
      std::filesystem::path(CRSAT_SOURCE_DIR) / "examples" / "schemas";
  int schemas_seen = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".cr") {
      continue;
    }
    std::ifstream in(entry.path());
    std::stringstream text;
    text << in.rdbuf();
    Result<NamedSchema> parsed = ParseSchema(text.str());
    if (!parsed.ok()) {
      continue;  // A state file, or a schema only lint accepts.
    }
    ++schemas_seen;
    const Schema& schema = parsed->schema;
    const std::string name = entry.path().filename().string();
    commands::Analysis analysis(schema, /*witness_may_follow=*/false);
    const SatisfiabilityChecker& shared = *analysis.Checker(nullptr).value();
    const std::vector<std::vector<bool>> closure =
        ImplicationChecker::ImpliedIsaClosure(shared).value();
    for (ClassId c : schema.AllClasses()) {
      std::vector<ClassId> others;
      for (ClassId d : schema.AllClasses()) {
        const std::string pair =
            name + ": " + schema.ClassName(c) + ", " + schema.ClassName(d);
        const bool isa = FreshQueryImplied(
            schema, c, [d](const CompoundClass& k) { return !k.Contains(d); });
        EXPECT_EQ(ImplicationChecker::ImpliesIsa(shared, c, d).value(), isa)
            << pair;
        EXPECT_EQ(closure[c.value][d.value], isa) << pair;
        EXPECT_EQ(ImplicationChecker::ImpliesDisjointness(shared, c, d).value(),
                  FreshQueryImplied(schema, c, [d](const CompoundClass& k) {
                    return k.Contains(d);
                  }))
            << pair;
        EXPECT_EQ(ImplicationChecker::ImpliesCovering(shared, c, {d}).value(),
                  isa)
            << pair;
        if (d.value != c.value) {
          others.push_back(d);
        }
      }
      EXPECT_EQ(ImplicationChecker::ImpliesCovering(shared, c, others).value(),
                FreshQueryImplied(schema, c,
                                  [&others](const CompoundClass& k) {
                                    for (ClassId d : others) {
                                      if (k.Contains(d)) {
                                        return false;
                                      }
                                    }
                                    return true;
                                  }))
          << name << ": " << schema.ClassName(c) << " by the others";
    }
  }
  // Every shipped schema but lint_demo.cr, which only lint's lenient
  // parse accepts.
  EXPECT_GE(schemas_seen, 8);
}

}  // namespace
}  // namespace crsat
