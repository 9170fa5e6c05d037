// EXP-E: the cost of implication queries (Section 4). Every implication
// reduces to class satisfiability: ISA implication reuses the schema's
// own system; cardinality implication rebuilds the expansion with the
// auxiliary class Cexc, roughly doubling the compound-class count.
// Tightest-bound queries gallop+bisect, multiplying that cost by
// O(log bound).

#include <benchmark/benchmark.h>

#include "src/crsat.h"

namespace {

crsat::Schema ChainSchema(int depth) {
  // C0 <= C1 <= ... <= C_{depth-1}, with a relationship pinned at the two
  // ends and cardinality pressure along it — the implied bounds tighten
  // through the whole chain.
  crsat::SchemaBuilder builder;
  for (int i = 0; i < depth; ++i) {
    builder.AddClass("C" + std::to_string(i));
  }
  for (int i = 0; i + 1 < depth; ++i) {
    builder.AddIsa("C" + std::to_string(i), "C" + std::to_string(i + 1));
  }
  builder.AddClass("T");
  builder.AddRelationship("R", {{"U", "C" + std::to_string(depth - 1)},
                                {"V", "T"}});
  builder.SetCardinality("C" + std::to_string(depth - 1), "R", "U", {1, 4});
  builder.SetCardinality("C0", "R", "U", {2, 3});
  builder.SetCardinality("T", "R", "V", {1, 1});
  return builder.Build().value();
}

void BM_IsaImplication(benchmark::State& state) {
  crsat::Schema schema = ChainSchema(static_cast<int>(state.range(0)));
  crsat::ClassId bottom = schema.FindClass("C0").value();
  crsat::ClassId top =
      schema.FindClass("C" + std::to_string(state.range(0) - 1)).value();
  for (auto _ : state) {
    // One expansion and support per iteration answer both directions.
    crsat::Expansion expansion = crsat::Expansion::Build(schema).value();
    crsat::SatisfiabilityChecker checker(expansion);
    benchmark::DoNotOptimize(
        crsat::ImplicationChecker::ImpliesIsa(checker, bottom, top).value());
    benchmark::DoNotOptimize(
        crsat::ImplicationChecker::ImpliesIsa(checker, top, bottom).value());
  }
}
BENCHMARK(BM_IsaImplication)->DenseRange(2, 10, 2);

void BM_CardinalityImplication(benchmark::State& state) {
  crsat::Schema schema = ChainSchema(static_cast<int>(state.range(0)));
  crsat::ClassId bottom = schema.FindClass("C0").value();
  crsat::RelationshipId r = schema.FindRelationship("R").value();
  crsat::RoleId u = schema.FindRole("U").value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(crsat::ImplicationChecker::ImpliesMinCardinality(
                                 schema, bottom, r, u, 2)
                                 .value());
    benchmark::DoNotOptimize(crsat::ImplicationChecker::ImpliesMaxCardinality(
                                 schema, bottom, r, u, 3)
                                 .value());
  }
}
BENCHMARK(BM_CardinalityImplication)->DenseRange(2, 10, 2);

void BM_TightestBounds(benchmark::State& state) {
  crsat::Schema schema = ChainSchema(static_cast<int>(state.range(0)));
  crsat::ClassId bottom = schema.FindClass("C0").value();
  crsat::RelationshipId r = schema.FindRelationship("R").value();
  crsat::RoleId u = schema.FindRole("U").value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(crsat::ImplicationChecker::TightestImpliedMin(
                                 schema, bottom, r, u)
                                 .value());
    benchmark::DoNotOptimize(crsat::ImplicationChecker::TightestImpliedMax(
                                 schema, bottom, r, u)
                                 .value());
  }
}
BENCHMARK(BM_TightestBounds)->DenseRange(2, 8, 2);

void BM_UnsatCoreExtraction(benchmark::State& state) {
  // Schema debugging on a Figure 1-style contradiction embedded in a
  // growing chain: deletion-based minimization costs one satisfiability
  // check per constraint.
  int depth = static_cast<int>(state.range(0));
  crsat::SchemaBuilder builder;
  for (int i = 0; i < depth; ++i) {
    builder.AddClass("C" + std::to_string(i));
  }
  for (int i = 0; i + 1 < depth; ++i) {
    builder.AddIsa("C" + std::to_string(i), "C" + std::to_string(i + 1));
  }
  builder.AddRelationship(
      "R", {{"U", "C" + std::to_string(depth - 1)}, {"V", "C0"}});
  builder.SetCardinality("C" + std::to_string(depth - 1), "R", "U",
                         {2, std::nullopt});
  builder.SetCardinality("C0", "R", "V", {0, 1});
  crsat::Schema schema = builder.Build().value();
  crsat::ClassId c0 = schema.FindClass("C0").value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(crsat::MinimizeUnsatCore(schema, c0).value());
  }
}
BENCHMARK(BM_UnsatCoreExtraction)->DenseRange(2, 8, 2);

}  // namespace

BENCHMARK_MAIN();
