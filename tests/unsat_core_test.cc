#include "src/reasoner/unsat_core.h"

#include <algorithm>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/analysis/empty_classes.h"
#include "src/base/incremental.h"
#include "src/baseline/fast_path.h"
#include "src/cr/schema_text.h"
#include "src/reasoner/repair.h"
#include "src/reasoner/satisfiability.h"
#include "tests/debug_digest.h"
#include "tests/test_schemas.h"

namespace crsat {
namespace {

using crsat::testing::DebugDigest;
using crsat::testing::Figure1Schema;
using crsat::testing::IsaFreeUnsatSchema;
using crsat::testing::MeetingSchema;
using crsat::testing::MeetingSchemaWithEagerDiscussants;

// Keeps only the entries of `list` that `core` names under `kind`, except
// the core's `drop`-th constraint. The core lists each kind in index
// order, so the kept entries keep their relative order.
template <typename T>
void KeepCoreEntries(std::vector<T>* list, CoreConstraint::Kind kind,
                     const UnsatCore& core, size_t drop) {
  std::vector<T> kept;
  for (size_t i = 0; i < core.constraints.size(); ++i) {
    if (i != drop && core.constraints[i].kind == kind) {
      kept.push_back((*list)[core.constraints[i].index]);
    }
  }
  *list = std::move(kept);
}

// Removes one constraint of `core` from `schema` and checks that `cls`
// becomes satisfiable — the definition of subset-minimality.
void ExpectCoreIsMinimal(const Schema& schema, ClassId cls,
                         const UnsatCore& core) {
  for (size_t drop = 0; drop < core.constraints.size(); ++drop) {
    // Keep only the core constraints except the dropped one. (Dropping a
    // non-core constraint cannot help: the core alone is unsatisfiable.)
    SchemaBuilder builder = schema.ToBuilder();
    KeepCoreEntries(&builder.isa, CoreConstraint::Kind::kIsa, core, drop);
    KeepCoreEntries(&builder.cards, CoreConstraint::Kind::kCardinality, core,
                    drop);
    KeepCoreEntries(&builder.disjointness, CoreConstraint::Kind::kDisjointness,
                    core, drop);
    KeepCoreEntries(&builder.coverings, CoreConstraint::Kind::kCovering, core,
                    drop);
    Result<Schema> reduced = builder.Build();
    if (!reduced.ok()) {
      // Dropping an ISA edge can orphan a kept refinement; the minimizer
      // handles that internally, and for this external check it just means
      // the configuration is not directly buildable — skip it.
      continue;
    }
    Expansion expansion = Expansion::Build(reduced.value()).value();
    SatisfiabilityChecker checker(expansion);
    EXPECT_TRUE(checker.IsClassSatisfiable(cls).value())
        << "core stayed unsatisfiable after dropping: "
        << core.constraints[drop].description;
  }
}

TEST(UnsatCoreTest, Figure1CoreContainsAllThreeInteractingConstraints) {
  // Figure 1's unsatisfiability genuinely needs the ISA edge, the (2,inf)
  // bound, and the (0,1) bound: dropping any one makes C satisfiable.
  Schema schema = Figure1Schema();
  ClassId c = schema.FindClass("C").value();
  UnsatCore core = MinimizeUnsatCore(schema, c).value();
  ASSERT_EQ(core.constraints.size(), 3u);
  std::vector<std::string> descriptions;
  for (const CoreConstraint& constraint : core.constraints) {
    descriptions.push_back(constraint.description);
  }
  EXPECT_NE(std::find(descriptions.begin(), descriptions.end(),
                      "isa D < C"),
            descriptions.end());
  EXPECT_NE(std::find(descriptions.begin(), descriptions.end(),
                      "card C in R.V1 = (2, *)"),
            descriptions.end());
  EXPECT_NE(std::find(descriptions.begin(), descriptions.end(),
                      "card D in R.V2 = (0, 1)"),
            descriptions.end());
  ExpectCoreIsMinimal(schema, c, core);
}

TEST(UnsatCoreTest, SatisfiableClassHasNoCore) {
  Schema schema = MeetingSchema();
  ClassId speaker = schema.FindClass("Speaker").value();
  Result<UnsatCore> result = MinimizeUnsatCore(schema, speaker);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(UnsatCoreTest, EagerDiscussantCoreIsMinimalAndExcludesIrrelevant) {
  // The Section 3.3 variant: Speaker becomes unsatisfiable. Add an
  // unrelated Room/LocatedIn fragment; the minimizer must exclude it.
  SchemaBuilder builder = MeetingSchemaWithEagerDiscussants().ToBuilder();
  builder.AddClass("Room");
  builder.AddRelationship("LocatedIn", {{"L1", "Talk"}, {"L2", "Room"}});
  builder.SetCardinality("Room", "LocatedIn", "L2", {0, 5});
  Schema schema = builder.Build().value();
  ClassId speaker = schema.FindClass("Speaker").value();
  UnsatCore core = MinimizeUnsatCore(schema, speaker).value();
  EXPECT_GE(core.constraints.size(), 3u);
  for (const CoreConstraint& constraint : core.constraints) {
    EXPECT_EQ(constraint.description.find("Room"), std::string::npos)
        << constraint.description;
  }
  ExpectCoreIsMinimal(schema, speaker, core);
}

TEST(UnsatCoreTest, DisjointnessCoreFound) {
  // B <= A, B <= C, A disjoint C: B unsatisfiable; core = the three
  // constraints.
  SchemaBuilder builder;
  builder.AddClass("A");
  builder.AddClass("B");
  builder.AddClass("C");
  builder.AddIsa("B", "A");
  builder.AddIsa("B", "C");
  builder.AddDisjointness({"A", "C"});
  builder.AddRelationship("R", {{"U", "A"}, {"V", "C"}});
  Schema schema = builder.Build().value();
  ClassId b = schema.FindClass("B").value();
  UnsatCore core = MinimizeUnsatCore(schema, b).value();
  ASSERT_EQ(core.constraints.size(), 3u);
  int isa_count = 0;
  int disjointness_count = 0;
  for (const CoreConstraint& constraint : core.constraints) {
    if (constraint.kind == CoreConstraint::Kind::kIsa) {
      ++isa_count;
    }
    if (constraint.kind == CoreConstraint::Kind::kDisjointness) {
      ++disjointness_count;
    }
  }
  EXPECT_EQ(isa_count, 2);
  EXPECT_EQ(disjointness_count, 1);
  ExpectCoreIsMinimal(schema, b, core);
}

TEST(UnsatCoreTest, CoveringCoreFound) {
  SchemaBuilder builder;
  builder.AddClass("Person");
  builder.AddClass("Adult");
  builder.AddIsa("Adult", "Person");
  builder.AddRelationship("R", {{"U", "Person"}, {"V", "Person"}});
  builder.SetCardinality("Person", "R", "U", {2, std::nullopt});
  builder.SetCardinality("Adult", "R", "U", {0, 1});
  builder.AddCovering("Person", {"Adult"});
  Schema schema = builder.Build().value();
  ClassId person = schema.FindClass("Person").value();
  UnsatCore core = MinimizeUnsatCore(schema, person).value();
  bool has_covering = false;
  for (const CoreConstraint& constraint : core.constraints) {
    if (constraint.kind == CoreConstraint::Kind::kCovering) {
      has_covering = true;
    }
  }
  EXPECT_TRUE(has_covering);
  ExpectCoreIsMinimal(schema, person, core);
}

// Core and repairs of `cls` as `debug` computes them, as one digest.
std::string DebugDigestFor(const Schema& schema, ClassId cls,
                           const ExpansionOptions& options = {}) {
  const UnsatCore core = MinimizeUnsatCore(schema, cls, options).value();
  return DebugDigest(core, SuggestRepairs(schema, cls, core, options).value());
}

TEST(UnsatCoreTest, IsaFreeProbesSkipTheExpansion) {
  // Every probe of an ISA-free schema is decided by the Lenzerini-Nobili
  // baseline: the check of the schema itself plus one per constraint.
  ScopedIncrementalOverride on(true);
  Schema schema = IsaFreeUnsatSchema();
  ClassId a = schema.FindClass("A").value();
  GetFastPathStats().Reset();
  const UnsatCore core = MinimizeUnsatCore(schema, a).value();
  EXPECT_EQ(GetFastPathStats().ln_short_circuits.load(),
            1 + schema.cardinality_declarations().size());
  ExpectCoreIsMinimal(schema, a, core);
  const std::string fast =
      DebugDigest(core, SuggestRepairs(schema, a, core).value());

  // The cold path expands every probe and reaches the same answers.
  ScopedIncrementalOverride off(false);
  GetFastPathStats().Reset();
  EXPECT_EQ(DebugDigestFor(schema, a), fast);
  EXPECT_EQ(GetFastPathStats().ln_short_circuits.load(), 0u);
}

TEST(UnsatCoreTest, ProbeThatErasesTheLastIsaTakesTheFastPath) {
  // Figure 1 has one ISA statement: the probe without it is ISA-free and
  // skips the expansion; the check of the schema itself and the two
  // cardinality probes keep the ISA and are expanded.
  ScopedIncrementalOverride on(true);
  Schema schema = Figure1Schema();
  ClassId c = schema.FindClass("C").value();
  GetFastPathStats().Reset();
  UnsatCore core = MinimizeUnsatCore(schema, c).value();
  EXPECT_EQ(core.constraints.size(), 3u);
  EXPECT_EQ(GetFastPathStats().ln_short_circuits.load(), 1u);
}

TEST(UnsatCoreTest, ProvablyEmptyFactsOfTheInputDoNotReachTheProbes) {
  // C is empty by the Figure-1 argument, and the provably-empty analysis
  // knows it. Those facts describe this schema, not the edits of it that
  // the probes check: dropping `isa C < B` makes C satisfiable, so a probe
  // that still pruned C would keep it empty and lose every constraint
  // from the core.
  Schema schema = ParseSchema(
                      "schema S {\n"
                      "  class B; class C;\n"
                      "  isa C < B;\n"
                      "  relationship R(U: B, V: B);\n"
                      "  card B in R.U = (2, *);\n"
                      "  card C in R.U = (0, 1);\n"
                      "}\n")
                      .value()
                      .schema;
  ClassId c = schema.FindClass("C").value();
  const std::vector<bool> known_empty =
      ComputeProvablyEmpty(schema).class_empty;
  ASSERT_TRUE(known_empty[c.value]);
  ExpansionOptions options;
  options.known_empty_classes = &known_empty;
  const std::string plain = DebugDigestFor(schema, c);
  EXPECT_EQ(MinimizeUnsatCore(schema, c).value().constraints.size(), 3u);
  EXPECT_EQ(DebugDigestFor(schema, c, options), plain);
  ScopedIncrementalOverride off(false);
  EXPECT_EQ(DebugDigestFor(schema, c, options), plain);
}

}  // namespace
}  // namespace crsat
