#include "src/reasoner/implication_engine.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/failpoint.h"
#include "src/base/resource_guard.h"
#include "src/lp/simplex.h"
#include "src/reasoner/implication.h"
#include "src/reasoner/satisfiability.h"
#include "tests/checked_schema.h"
#include "tests/test_schemas.h"

namespace crsat {
namespace {

using crsat::testing::MeetingSchema;

TEST(CardinalityImplicationEngineTest, ProbesMatchOneShotChecker) {
  Schema schema = MeetingSchema();
  ClassId speaker = schema.FindClass("Speaker").value();
  RelationshipId holds = schema.FindRelationship("Holds").value();
  RoleId u1 = schema.FindRole("U1").value();
  CardinalityImplicationEngine engine =
      CardinalityImplicationEngine::Create(schema, speaker, holds, u1)
          .value();
  for (std::uint64_t bound = 0; bound <= 4; ++bound) {
    EXPECT_EQ(engine.ImpliesMin(bound).value(),
              ImplicationChecker::ImpliesMinCardinality(schema, speaker,
                                                        holds, u1, bound)
                  .value())
        << "min " << bound;
    EXPECT_EQ(engine.ImpliesMax(bound).value(),
              ImplicationChecker::ImpliesMaxCardinality(schema, speaker,
                                                        holds, u1, bound)
                  .value())
        << "max " << bound;
  }
}

TEST(CardinalityImplicationEngineTest, TightestBoundsMatchFigure7) {
  Schema schema = MeetingSchema();
  ClassId speaker = schema.FindClass("Speaker").value();
  RelationshipId holds = schema.FindRelationship("Holds").value();
  RoleId u1 = schema.FindRole("U1").value();
  CardinalityImplicationEngine engine =
      CardinalityImplicationEngine::Create(schema, speaker, holds, u1)
          .value();
  EXPECT_EQ(engine.TightestMin().value(), 1u);
  EXPECT_EQ(engine.TightestMax().value(), std::optional<std::uint64_t>(1));
  EXPECT_TRUE(engine.IsBaseClassSatisfiable().value());
}

TEST(CardinalityImplicationEngineTest, RejectsInvalidTriples) {
  Schema schema = MeetingSchema();
  ClassId talk = schema.FindClass("Talk").value();
  RelationshipId holds = schema.FindRelationship("Holds").value();
  RoleId u1 = schema.FindRole("U1").value();
  RoleId u4 = schema.FindRole("U4").value();
  // Talk is not a subclass of Speaker.
  EXPECT_FALSE(
      CardinalityImplicationEngine::Create(schema, talk, holds, u1).ok());
  // U4 does not belong to Holds.
  EXPECT_FALSE(
      CardinalityImplicationEngine::Create(schema, talk, holds, u4).ok());
}

TEST(CardinalityImplicationEngineTest, UnsatisfiableBaseClassReported) {
  Schema schema = crsat::testing::Figure1Schema();
  ClassId c = schema.FindClass("C").value();
  RelationshipId r = schema.FindRelationship("R").value();
  RoleId v1 = schema.FindRole("V1").value();
  CardinalityImplicationEngine engine =
      CardinalityImplicationEngine::Create(schema, c, r, v1).value();
  EXPECT_FALSE(engine.IsBaseClassSatisfiable().value());
  EXPECT_FALSE(engine.TightestMin().ok());
  EXPECT_FALSE(engine.TightestMax().ok());
  // Vacuous implication still answers.
  EXPECT_TRUE(engine.ImpliesMin(100).value());
  EXPECT_TRUE(engine.ImpliesMax(0).value());
}

TEST(CardinalityImplicationEngineTest, BaseClassCheckedOncePerEngine) {
  Schema schema = MeetingSchema();
  ClassId speaker = schema.FindClass("Speaker").value();
  RelationshipId holds = schema.FindRelationship("Holds").value();
  RoleId u1 = schema.FindRole("U1").value();
  SimplexStats& stats = GetSimplexStats();
  auto make_engine = [&] {
    return CardinalityImplicationEngine::Create(schema, speaker, holds, u1)
        .value();
  };

  CardinalityImplicationEngine engine = make_engine();
  stats.Reset();
  EXPECT_TRUE(engine.IsBaseClassSatisfiable().value());
  const std::uint64_t base_solves = stats.solves.load();
  EXPECT_GT(base_solves, 0u);
  EXPECT_TRUE(engine.IsBaseClassSatisfiable().value());
  EXPECT_EQ(stats.solves.load(), base_solves) << "base check repeated";

  // The report row's sequence (base check, then both searches) costs the
  // searches' probes plus one base check: the searches alone also pay one.
  CardinalityImplicationEngine row_engine = make_engine();
  stats.Reset();
  EXPECT_TRUE(row_engine.IsBaseClassSatisfiable().value());
  EXPECT_EQ(row_engine.TightestMin().value(), 1u);
  EXPECT_EQ(row_engine.TightestMax().value(),
            std::optional<std::uint64_t>(1));
  const std::uint64_t row_solves = stats.solves.load();
  CardinalityImplicationEngine search_engine = make_engine();
  stats.Reset();
  EXPECT_EQ(search_engine.TightestMin().value(), 1u);
  EXPECT_EQ(search_engine.TightestMax().value(),
            std::optional<std::uint64_t>(1));
  EXPECT_EQ(stats.solves.load(), row_solves);
}

TEST(CardinalityImplicationEngineTest, BaseClassFailureIsNotCached) {
  Schema schema = MeetingSchema();
  ClassId speaker = schema.FindClass("Speaker").value();
  RelationshipId holds = schema.FindRelationship("Holds").value();
  RoleId u1 = schema.FindRole("U1").value();

  // A transient failure (a simulated allocation failure in the first
  // solve) is returned, and the next call computes the verdict afresh.
  {
    CardinalityImplicationEngine engine =
        CardinalityImplicationEngine::Create(schema, speaker, holds, u1)
            .value();
    {
      ScopedFailpoint alloc("alloc/simplex", /*nth=*/1);
      ASSERT_TRUE(alloc.status().ok());
      Result<bool> failed = engine.IsBaseClassSatisfiable();
      ASSERT_FALSE(failed.ok());
      EXPECT_EQ(failed.status().code(), StatusCode::kResourceExhausted);
    }
    EXPECT_TRUE(engine.IsBaseClassSatisfiable().value());
  }

  // A guard tripped during the first check is reported again by every
  // later call, the searches included.
  ResourceGuard guard;
  ExpansionOptions options;
  options.guard = &guard;
  CardinalityImplicationEngine engine =
      CardinalityImplicationEngine::Create(schema, speaker, holds, u1,
                                           options)
          .value();
  guard.RequestCancel();
  for (int call = 0; call < 2; ++call) {
    Result<bool> tripped = engine.IsBaseClassSatisfiable();
    ASSERT_FALSE(tripped.ok()) << "call " << call;
    EXPECT_EQ(tripped.status().code(), StatusCode::kCancelled);
  }
  EXPECT_EQ(engine.TightestMin().status().code(), StatusCode::kCancelled);
  EXPECT_EQ(engine.TightestMax().status().code(), StatusCode::kCancelled);
}

TEST(CardinalityImplicationEngineTest, CheckAllWarmStartsFromPreviousQuery) {
  // Depth-3 ISA chain with cardinality pressure along R: the probed
  // bounds sit strictly between the declared ones, so no query is
  // answered by the dominance memo and each one solves an LP.
  SchemaBuilder builder;
  builder.AddClass("C0");
  builder.AddClass("C1");
  builder.AddClass("C2");
  builder.AddIsa("C0", "C1");
  builder.AddIsa("C1", "C2");
  builder.AddClass("T");
  builder.AddRelationship("R", {{"U", "C2"}, {"V", "T"}});
  builder.SetCardinality("C2", "R", "U", {1, 8});
  builder.SetCardinality("C0", "R", "U", {2, 3});
  builder.SetCardinality("T", "R", "V", {1, 1});
  Schema schema = builder.Build().value();
  CardinalityImplicationEngine engine =
      CardinalityImplicationEngine::Create(
          schema, schema.FindClass("C1").value(),
          schema.FindRelationship("R").value(), schema.FindRole("U").value())
          .value();
  SimplexStats& stats = GetSimplexStats();
  stats.Reset();
  GetImplicationStats().Reset();
  std::vector<bool> verdicts =
      engine
          .CheckAll({{ImplicationQuery::Kind::kMax, 3},
                     {ImplicationQuery::Kind::kMax, 5},
                     {ImplicationQuery::Kind::kMin, 2}})
          .value();
  EXPECT_EQ(verdicts, (std::vector<bool>{false, false, false}));
  EXPECT_EQ(GetImplicationStats().dominance_hits.load(), 0u);
  EXPECT_GE(stats.solves.load(), 3u);
  EXPECT_GT(stats.warm_start_hits.load(), 0u);
}

TEST(ImpliedCardinalityReportTest, MeetingReportMatchesFigure7) {
  Schema schema = MeetingSchema();
  std::vector<ImpliedCardinalityRow> rows =
      BuildImpliedCardinalityReport(schema).value();
  // Legal triples: Holds.U1 x {Speaker, Discussant}, Holds.U2 x {Talk},
  // Participates.U3 x {Discussant}, Participates.U4 x {Talk}.
  ASSERT_EQ(rows.size(), 5u);
  ClassId speaker = schema.FindClass("Speaker").value();
  RelationshipId holds = schema.FindRelationship("Holds").value();
  RoleId u1 = schema.FindRole("U1").value();
  bool found_headline = false;
  for (const ImpliedCardinalityRow& row : rows) {
    EXPECT_FALSE(row.vacuous);
    // The schema forces every counted triple to exactly one tuple.
    EXPECT_EQ(row.implied_min, 1u);
    EXPECT_EQ(row.implied_max, std::optional<std::uint64_t>(1));
    if (row.cls == speaker && row.rel == holds && row.role == u1) {
      found_headline = true;
      EXPECT_EQ(row.declared.min, 1u);
      EXPECT_FALSE(row.declared.max.has_value());
    }
  }
  EXPECT_TRUE(found_headline);
  std::string table = ImpliedCardinalityReportToString(schema, rows);
  EXPECT_NE(table.find("Speaker / Holds.U1"), std::string::npos);
  EXPECT_NE(table.find("(1, 1)"), std::string::npos);
}

TEST(ImpliedCardinalityReportTest, VacuousRowsForUnsatisfiableClasses) {
  Schema schema = crsat::testing::Figure1Schema();
  std::vector<ImpliedCardinalityRow> rows =
      BuildImpliedCardinalityReport(schema).value();
  // Triples: R.V1 x {C, D}, R.V2 x {D}.
  ASSERT_EQ(rows.size(), 3u);
  for (const ImpliedCardinalityRow& row : rows) {
    EXPECT_TRUE(row.vacuous);
  }
  std::string table = ImpliedCardinalityReportToString(schema, rows);
  EXPECT_NE(table.find("vacuous"), std::string::npos);
}

TEST(ExtensionImplicationTest, DisjointnessImpliedAndRefuted) {
  // Speaker and Talk can overlap in the meeting schema (nothing forbids a
  // talk that speaks); Discussant and Talk likewise. But in a schema with
  // declared disjointness the implication holds.
  Schema schema = MeetingSchema();
  ClassId speaker = schema.FindClass("Speaker").value();
  ClassId talk = schema.FindClass("Talk").value();
  EXPECT_FALSE(ImplicationChecker::ImpliesDisjointness(
                   testing::CheckedSchema(schema).checker, speaker, talk)
                   .value());

  SchemaBuilder builder = schema.ToBuilder();
  builder.AddDisjointness({"Speaker", "Talk"});
  Schema disjoint_schema = builder.Build().value();
  EXPECT_TRUE(ImplicationChecker::ImpliesDisjointness(
                  testing::CheckedSchema(disjoint_schema).checker,
                  disjoint_schema.FindClass("Speaker").value(),
                  disjoint_schema.FindClass("Talk").value())
                  .value());
}

TEST(ExtensionImplicationTest, DisjointnessImpliedThroughCardinalities) {
  // A and B are never declared disjoint, but their cardinality pressure
  // makes overlap impossible: an A-and-B individual would need both
  // exactly 1 and exactly 3 R-tuples.
  SchemaBuilder builder;
  builder.AddClass("A");
  builder.AddClass("B");
  builder.AddClass("T");
  builder.AddRelationship("R", {{"U", "A"}, {"V", "T"}});
  builder.AddRelationship("S", {{"W", "B"}, {"X", "T"}});
  builder.AddClass("AB");
  builder.AddIsa("AB", "A");
  builder.AddIsa("AB", "B");
  builder.SetCardinality("A", "R", "U", {1, 1});
  builder.SetCardinality("AB", "R", "U", {3, std::nullopt});
  Schema schema = builder.Build().value();
  // AB (the explicit overlap class) is unsatisfiable...
  Expansion expansion = Expansion::Build(schema).value();
  SatisfiabilityChecker checker(expansion);
  EXPECT_FALSE(
      checker.IsClassSatisfiable(schema.FindClass("AB").value()).value());
  // ...but plain A-and-B overlap (without the AB class) is still possible,
  // so disjointness of A and B is NOT implied.
  EXPECT_FALSE(ImplicationChecker::ImpliesDisjointness(
                   checker, schema.FindClass("A").value(),
                   schema.FindClass("B").value())
                   .value());
}

TEST(ExtensionImplicationTest, CoveringImpliedByStructure) {
  // Every Speaker is a Discussant in the meeting schema (Figure 7), so
  // {Discussant} covers Speaker.
  Schema schema = MeetingSchema();
  ClassId speaker = schema.FindClass("Speaker").value();
  ClassId discussant = schema.FindClass("Discussant").value();
  ClassId talk = schema.FindClass("Talk").value();
  testing::CheckedSchema checked(schema);
  EXPECT_TRUE(ImplicationChecker::ImpliesCovering(checked.checker, speaker,
                                                  {discussant})
                  .value());
  EXPECT_FALSE(
      ImplicationChecker::ImpliesCovering(checked.checker, talk, {discussant})
          .value());
  // A class trivially covers itself.
  EXPECT_TRUE(
      ImplicationChecker::ImpliesCovering(checked.checker, talk, {talk})
          .value());
}

TEST(ExtensionImplicationTest, DeclaredCoveringIsImplied) {
  SchemaBuilder builder;
  builder.AddClass("Person");
  builder.AddClass("Adult");
  builder.AddClass("Minor");
  builder.AddIsa("Adult", "Person");
  builder.AddIsa("Minor", "Person");
  builder.AddRelationship("R", {{"U", "Person"}, {"V", "Person"}});
  builder.AddCovering("Person", {"Adult", "Minor"});
  Schema schema = builder.Build().value();
  testing::CheckedSchema checked(schema);
  EXPECT_TRUE(ImplicationChecker::ImpliesCovering(
                  checked.checker, schema.FindClass("Person").value(),
                  {schema.FindClass("Adult").value(),
                   schema.FindClass("Minor").value()})
                  .value());
  // The individual coverers alone do not cover.
  EXPECT_FALSE(ImplicationChecker::ImpliesCovering(
                   checked.checker, schema.FindClass("Person").value(),
                   {schema.FindClass("Adult").value()})
                   .value());
}

}  // namespace
}  // namespace crsat
