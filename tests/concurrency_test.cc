// Determinism of the parallel reasoning core: every verdict, witness, and
// report must be bit-identical at 1, 2, and 8 threads. Runs under the
// thread-sanitizer CI leg, which additionally checks the probe fan-out for
// data races.

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/crsat.h"

#ifndef CRSAT_SOURCE_DIR
#define CRSAT_SOURCE_DIR "."
#endif

namespace crsat {
namespace {

const int kThreadCounts[] = {1, 2, 8};

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream stream(path);
  EXPECT_TRUE(static_cast<bool>(stream)) << "cannot open " << path;
  std::ostringstream text;
  text << stream.rdbuf();
  return text.str();
}

// Everything observable from one full satisfiability analysis, stringified
// so runs can be compared exactly.
std::string AnalysisDigest(const Schema& schema) {
  Expansion expansion = Expansion::Build(schema).value();
  SatisfiabilityChecker checker(expansion);
  std::vector<bool> satisfiable = checker.SatisfiableClasses().value();
  AcceptableSupport support = checker.Support().value();
  IntegerSolution integers = checker.AcceptableIntegerSolution().value();
  std::string digest;
  for (bool flag : satisfiable) {
    digest += flag ? '1' : '0';
  }
  digest += "|";
  for (bool flag : support.positive) {
    digest += flag ? '1' : '0';
  }
  digest += "|";
  for (const Rational& value : support.witness) {
    digest += value.ToString() + ",";
  }
  digest += "|";
  for (const BigInt& count : integers.class_counts) {
    digest += count.ToString() + ",";
  }
  for (const BigInt& count : integers.rel_counts) {
    digest += count.ToString() + ",";
  }
  return digest;
}

void ExpectIdenticalAcrossThreadCounts(const Schema& schema,
                                       const std::string& label) {
  std::string reference;
  for (int threads : kThreadCounts) {
    SetGlobalThreadCount(threads);
    std::string digest = AnalysisDigest(schema);
    if (threads == kThreadCounts[0]) {
      reference = digest;
    } else {
      EXPECT_EQ(digest, reference)
          << label << " diverges at " << threads << " threads";
    }
  }
  SetGlobalThreadCount(1);
}

TEST(ConcurrencyTest, ExampleSchemasAnalyzeIdenticallyAtAnyThreadCount) {
  for (const char* file : {"figure1.cr", "meeting.cr", "university.cr"}) {
    std::string text = ReadFileOrDie(std::string(CRSAT_SOURCE_DIR) +
                                     "/examples/schemas/" + file);
    NamedSchema parsed = ParseSchema(text).value();
    ExpectIdenticalAcrossThreadCounts(parsed.schema, file);
  }
}

TEST(ConcurrencyTest, RandomSchemasAnalyzeIdenticallyAtAnyThreadCount) {
  for (std::uint32_t seed = 1; seed <= 6; ++seed) {
    RandomSchemaParams params;
    params.seed = seed;
    params.num_classes = 5;
    params.num_relationships = 3;
    params.isa_density = 0.3;
    params.num_disjointness_groups = 1;
    Schema schema = GenerateRandomSchema(params).value();
    ExpectIdenticalAcrossThreadCounts(schema,
                                      "random seed " + std::to_string(seed));
  }
}

TEST(ConcurrencyTest, ImplicationReportIdenticalAtAnyThreadCount) {
  std::string text = ReadFileOrDie(std::string(CRSAT_SOURCE_DIR) +
                                   "/examples/schemas/university.cr");
  NamedSchema parsed = ParseSchema(text).value();
  std::string reference;
  for (int threads : kThreadCounts) {
    SetGlobalThreadCount(threads);
    std::vector<ImpliedCardinalityRow> rows =
        BuildImpliedCardinalityReport(parsed.schema).value();
    std::string digest =
        ImpliedCardinalityReportToString(parsed.schema, rows);
    if (threads == kThreadCounts[0]) {
      reference = digest;
    } else {
      EXPECT_EQ(digest, reference) << "report diverges at " << threads
                                   << " threads";
    }
  }
  SetGlobalThreadCount(1);
}

TEST(ConcurrencyTest, CheckAllMatchesSerialQueriesAtAnyThreadCount) {
  std::string text = ReadFileOrDie(std::string(CRSAT_SOURCE_DIR) +
                                   "/examples/schemas/university.cr");
  NamedSchema parsed = ParseSchema(text).value();
  const Schema& schema = parsed.schema;
  ClassId cls = schema.FindClass("Professor").value();
  RelationshipId rel = schema.FindRelationship("Teaches").value();
  RoleId role = schema.FindRole("teacher").value();

  std::vector<ImplicationQuery> queries;
  for (std::uint64_t bound = 0; bound <= 6; ++bound) {
    queries.push_back({ImplicationQuery::Kind::kMin, bound});
    queries.push_back({ImplicationQuery::Kind::kMax, bound});
  }

  // Serial reference: fresh engine, one query at a time. The batch must
  // match its verdicts and also its LP work, at every pool size.
  SimplexStats& stats = GetSimplexStats();
  SetGlobalThreadCount(1);
  std::vector<bool> serial;
  std::uint64_t serial_solves = 0;
  std::uint64_t serial_pivots = 0;
  {
    CardinalityImplicationEngine engine =
        CardinalityImplicationEngine::Create(schema, cls, rel, role).value();
    stats.Reset();
    for (const ImplicationQuery& query : queries) {
      bool verdict = query.kind == ImplicationQuery::Kind::kMin
                         ? engine.ImpliesMin(query.bound).value()
                         : engine.ImpliesMax(query.bound).value();
      serial.push_back(verdict);
    }
    serial_solves = stats.solves.load();
    serial_pivots = stats.pivots.load();
  }
  EXPECT_GT(serial_solves, 0u);

  for (int threads : kThreadCounts) {
    SetGlobalThreadCount(threads);
    CardinalityImplicationEngine engine =
        CardinalityImplicationEngine::Create(schema, cls, rel, role).value();
    stats.Reset();
    std::vector<bool> batched = engine.CheckAll(queries).value();
    EXPECT_EQ(batched, serial) << "CheckAll diverges at " << threads
                               << " threads";
    EXPECT_EQ(stats.solves.load(), serial_solves)
        << "CheckAll solves differ at " << threads << " threads";
    EXPECT_EQ(stats.pivots.load(), serial_pivots)
        << "CheckAll pivots differ at " << threads << " threads";
    // A second batch on the same engine (now carrying a warm basis) must
    // agree too.
    EXPECT_EQ(engine.CheckAll(queries).value(), serial)
        << "warm CheckAll diverges at " << threads << " threads";
  }
  SetGlobalThreadCount(1);
}

TEST(ConcurrencyTest, TightestBoundsIdenticalAtAnyThreadCount) {
  Schema schema = [] {
    SchemaBuilder builder;
    builder.AddClass("C0");
    builder.AddClass("C1");
    builder.AddClass("C2");
    builder.AddIsa("C0", "C1");
    builder.AddIsa("C1", "C2");
    builder.AddClass("T");
    builder.AddRelationship("R", {{"U", "C2"}, {"V", "T"}});
    builder.SetCardinality("C2", "R", "U", {1, 4});
    builder.SetCardinality("C0", "R", "U", {2, 3});
    builder.SetCardinality("T", "R", "V", {1, 1});
    return builder.Build().value();
  }();
  ClassId bottom = schema.FindClass("C0").value();
  RelationshipId rel = schema.FindRelationship("R").value();
  RoleId role = schema.FindRole("U").value();

  std::uint64_t reference_min = 0;
  std::optional<std::uint64_t> reference_max;
  for (int threads : kThreadCounts) {
    SetGlobalThreadCount(threads);
    std::uint64_t min =
        ImplicationChecker::TightestImpliedMin(schema, bottom, rel, role)
            .value();
    std::optional<std::uint64_t> max =
        ImplicationChecker::TightestImpliedMax(schema, bottom, rel, role)
            .value();
    if (threads == kThreadCounts[0]) {
      reference_min = min;
      reference_max = max;
    } else {
      EXPECT_EQ(min, reference_min) << threads << " threads";
      EXPECT_EQ(max, reference_max) << threads << " threads";
    }
  }
  EXPECT_EQ(reference_min, 2u);
  ASSERT_TRUE(reference_max.has_value());
  EXPECT_EQ(*reference_max, 3u);
  SetGlobalThreadCount(1);
}

}  // namespace
}  // namespace crsat
