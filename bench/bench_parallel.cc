// bench_parallel — the performance-trajectory harness for the parallel,
// two-tier reasoning core. Unlike the google-benchmark micro-benches next
// to it, this is a standalone binary that (a) times whole reasoning
// workloads at several thread counts, (b) cross-checks that every verdict
// and witness is bit-identical across those thread counts (exiting
// non-zero otherwise, so CI can gate on it), and (c) reports the
// two-tier/warm-start counters from `SimplexStats`. With `--json <path>`
// it writes the numbers in the BENCH_*.json shape committed at the repo
// root (see README "Benchmarking").
//
// Usage:
//   bench_parallel [--json <path>] [--depth N] [--schemas N] [--repeat N]
//                  [--force-multithread]
//
// `--depth` caps the ISA-chain depth of the report workload and
// `--schemas` the number of random schemas in the sweep; CI's bench-smoke
// job passes small values. `--force-multithread` runs the multi-thread
// rows even on a single-core machine: the wall clocks there measure
// oversubscription, not scaling, so the rows carry an explicit
// `"oversubscribed": true` marker and tools/bench_check.py treats their
// timing as advisory — but the cross-thread determinism check (the part
// that matters on any core count) still runs for real.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/base/json.h"
#include "src/crsat.h"

#ifndef CRSAT_SOURCE_DIR
#define CRSAT_SOURCE_DIR "."
#endif

namespace {

using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

crsat::Schema ChainSchema(int depth) {
  // Same shape as bench_implication_scaling: an ISA chain with cardinality
  // pressure along a relationship pinned at both ends, so every implied
  // bound tightens through the whole chain.
  crsat::SchemaBuilder builder;
  for (int i = 0; i < depth; ++i) {
    builder.AddClass("C" + std::to_string(i));
  }
  for (int i = 0; i + 1 < depth; ++i) {
    builder.AddIsa("C" + std::to_string(i), "C" + std::to_string(i + 1));
  }
  builder.AddClass("T");
  builder.AddRelationship(
      "R", {{"U", "C" + std::to_string(depth - 1)}, {"V", "T"}});
  builder.SetCardinality("C" + std::to_string(depth - 1), "R", "U", {1, 4});
  builder.SetCardinality("C0", "R", "U", {2, 3});
  builder.SetCardinality("T", "R", "V", {1, 1});
  return builder.Build().value();
}

// Snapshot of the process-wide solver counters (plain integers).
struct StatsSnapshot {
  std::uint64_t solves = 0;
  std::uint64_t pivots = 0;
  std::uint64_t basis_pivots = 0;
  std::uint64_t phase1_pivots = 0;
  std::uint64_t fast_solves = 0;
  std::uint64_t fast_pivots = 0;
  std::uint64_t tier_fallbacks = 0;
  std::uint64_t warm_start_hits = 0;
  std::uint64_t warm_start_misses = 0;
  std::uint64_t dual_pivots = 0;
  std::uint64_t incremental_hits = 0;
  std::uint64_t incremental_fallbacks = 0;
  std::uint64_t dominance_lookups = 0;
  std::uint64_t dominance_hits = 0;
  std::uint64_t derived_disjoint_pairs = 0;
  std::uint64_t pruned_subtrees = 0;
  std::uint64_t ln_short_circuits = 0;

  static StatsSnapshot Take() {
    const crsat::SimplexStats& stats = crsat::GetSimplexStats();
    StatsSnapshot snapshot;
    snapshot.solves = stats.solves.load();
    snapshot.pivots = stats.pivots.load();
    snapshot.basis_pivots = stats.basis_pivots.load();
    snapshot.phase1_pivots = stats.phase1_pivots.load();
    snapshot.fast_solves = stats.fast_solves.load();
    snapshot.fast_pivots = stats.fast_pivots.load();
    snapshot.tier_fallbacks = crsat::GetRecoveryStats().tier_fallbacks.load();
    snapshot.warm_start_hits = stats.warm_start_hits.load();
    snapshot.warm_start_misses = stats.warm_start_misses.load();
    snapshot.dual_pivots = stats.dual_pivots.load();
    snapshot.incremental_hits = stats.incremental_hits.load();
    snapshot.incremental_fallbacks = stats.incremental_fallbacks.load();
    snapshot.dominance_lookups =
        crsat::GetImplicationStats().dominance_lookups.load();
    snapshot.dominance_hits =
        crsat::GetImplicationStats().dominance_hits.load();
    snapshot.derived_disjoint_pairs =
        crsat::GetExpansionStats().derived_disjoint_pairs.load();
    snapshot.pruned_subtrees = crsat::GetExpansionStats().pruned_subtrees.load();
    snapshot.ln_short_circuits =
        crsat::GetFastPathStats().ln_short_circuits.load();
    return snapshot;
  }

  static void ResetAll() {
    crsat::GetSimplexStats().Reset();
    crsat::GetImplicationStats().Reset();
    crsat::GetExpansionStats().Reset();
    crsat::GetFastPathStats().Reset();
    crsat::GetRecoveryStats().Reset();
  }
};

// One timed workload at one thread count.
struct Timing {
  int threads = 0;
  double wall_ms = 0;
  StatsSnapshot stats;
  std::string digest;  // Canonical result string; must match across runs.
  // True when the row was not run because the machine has no real
  // parallelism (see single_core below): timing a 4-thread pool on one
  // core only measures scheduler noise, and the committed BENCH numbers
  // would show meaningless sub-1.0 "speedups".
  bool skipped_single_core = false;
  // True when --force-multithread ran this row on a machine with fewer
  // cores than threads: the digest cross-check is real, the wall clock
  // is scheduler noise and must not be gated as a scaling number.
  bool oversubscribed = false;
};

struct Workload {
  std::string name;
  std::vector<Timing> timings;
  bool deterministic = true;
};

std::string DigestReport(const crsat::Schema& schema,
                         const std::vector<crsat::ImpliedCardinalityRow>& rows) {
  return crsat::ImpliedCardinalityReportToString(schema, rows);
}

// Runs `run` `passes` times per timed repetition and returns the last
// digest. Short workloads use it so that every row takes at least ~250 ms
// at 1 thread, long enough for one `--repeat 1` run to be gated on a
// shared host; the row's wall time and counters cover all passes.
template <typename Fn>
auto Passes(int passes, Fn run) {
  return [passes, run]() {
    std::string digest;
    for (int i = 0; i < passes; ++i) {
      digest = run();
    }
    return digest;
  };
}

// Times `run` (which must return a digest string) at each thread count and
// checks the digests agree.
template <typename Fn>
Workload TimeAtThreadCounts(const std::string& name,
                            const std::vector<int>& thread_counts, int repeat,
                            bool single_core, bool oversubscribe, Fn run) {
  Workload workload;
  workload.name = name;
  for (int threads : thread_counts) {
    if (single_core && threads > 1) {
      Timing timing;
      timing.threads = threads;
      timing.skipped_single_core = true;
      workload.timings.push_back(std::move(timing));
      std::cerr << "[bench_parallel] " << name << " threads=" << threads
                << " skipped (single core)\n";
      continue;
    }
    crsat::SetGlobalThreadCount(threads);
    StatsSnapshot::ResetAll();
    Timing timing;
    timing.threads = crsat::GlobalThreadCount();
    timing.oversubscribed = oversubscribe && timing.threads > 1;
    std::cerr << "[bench_parallel] " << name << " threads=" << timing.threads
              << (timing.oversubscribed ? " (oversubscribed)" : "") << "\n";
    Clock::time_point start = Clock::now();
    for (int i = 0; i < repeat; ++i) {
      timing.digest = run();
    }
    timing.wall_ms = MillisSince(start) / repeat;
    timing.stats = StatsSnapshot::Take();
    workload.timings.push_back(std::move(timing));
  }
  for (const Timing& timing : workload.timings) {
    if (!timing.skipped_single_core &&
        timing.digest != workload.timings.front().digest) {
      workload.deterministic = false;
    }
  }
  return workload;
}

std::string ToJson(const std::vector<Workload>& workloads, int repeat,
                   bool all_deterministic) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"bench\": \"bench_parallel\",\n";
  out << "  \"hardware_concurrency\": "
      << static_cast<int>(std::thread::hardware_concurrency()) << ",\n";
  out << "  \"default_threads\": " << crsat::ThreadPool::DefaultThreadCount()
      << ",\n";
  // Counters are summed over the `repeat` timed repetitions, so a gate
  // compares them per repetition.
  out << "  \"repeat\": " << repeat << ",\n";
  out << "  \"deterministic_across_threads\": "
      << (all_deterministic ? "true" : "false") << ",\n";
  out << "  \"workloads\": [\n";
  for (size_t w = 0; w < workloads.size(); ++w) {
    const Workload& workload = workloads[w];
    double base_ms = workload.timings.empty()
                         ? 0
                         : workload.timings.front().wall_ms;
    out << "    {\n      \"name\": \"" << crsat::JsonEscape(workload.name)
        << "\",\n      \"deterministic\": "
        << (workload.deterministic ? "true" : "false")
        << ",\n      \"runs\": [\n";
    for (size_t t = 0; t < workload.timings.size(); ++t) {
      const Timing& timing = workload.timings[t];
      if (timing.skipped_single_core) {
        out << "        {\"threads\": " << timing.threads
            << ", \"skipped_single_core\": true}"
            << (t + 1 < workload.timings.size() ? "," : "") << "\n";
        continue;
      }
      const StatsSnapshot& stats = timing.stats;
      double speedup = timing.wall_ms > 0 ? base_ms / timing.wall_ms : 1.0;
      double fast_fraction =
          stats.pivots > 0
              ? static_cast<double>(stats.fast_pivots) / stats.pivots
              : 1.0;
      double fallback_rate =
          stats.solves > 0
              ? static_cast<double>(stats.tier_fallbacks) / stats.solves
              : 0.0;
      out << "        {\"threads\": " << timing.threads
          << (timing.oversubscribed ? ", \"oversubscribed\": true" : "")
          << ", \"wall_ms\": " << timing.wall_ms
          << ", \"speedup_vs_1\": " << speedup
          << ", \"solves\": " << stats.solves
          << ", \"pivots\": " << stats.pivots
          << ", \"basis_pivots\": " << stats.basis_pivots
          << ", \"phase1_pivots\": " << stats.phase1_pivots
          << ", \"fast_pivot_fraction\": " << fast_fraction
          << ", \"tier_fallback_rate\": " << fallback_rate
          << ", \"warm_start_hits\": " << stats.warm_start_hits
          << ", \"warm_start_misses\": " << stats.warm_start_misses
          << ", \"dual_pivots\": " << stats.dual_pivots
          << ", \"incremental_hits\": " << stats.incremental_hits
          << ", \"incremental_fallbacks\": " << stats.incremental_fallbacks
          << ", \"dominance_lookups\": " << stats.dominance_lookups
          << ", \"dominance_hits\": " << stats.dominance_hits
          << ", \"derived_disjoint_pairs\": " << stats.derived_disjoint_pairs
          << ", \"pruned_subtrees\": " << stats.pruned_subtrees
          << ", \"ln_short_circuits\": " << stats.ln_short_circuits << "}"
          << (t + 1 < workload.timings.size() ? "," : "") << "\n";
    }
    out << "      ]\n    }" << (w + 1 < workloads.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  int depth = 10;
  int num_schemas = 8;
  int repeat = 3;
  bool force_multithread = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--depth" && i + 1 < argc) {
      depth = std::atoi(argv[++i]);
    } else if (arg == "--schemas" && i + 1 < argc) {
      num_schemas = std::atoi(argv[++i]);
    } else if (arg == "--repeat" && i + 1 < argc) {
      repeat = std::atoi(argv[++i]);
    } else if (arg == "--force-multithread") {
      force_multithread = true;
    } else {
      std::cerr << "usage: bench_parallel [--json <path>] [--depth N] "
                   "[--schemas N] [--repeat N] [--force-multithread]\n";
      return EXIT_FAILURE;
    }
  }
  if (depth < 2 || num_schemas < 1 || repeat < 1) {
    std::cerr << "bench_parallel: invalid size arguments\n";
    return EXIT_FAILURE;
  }

  std::vector<int> thread_counts = {1, 2, 4};
  int hardware = crsat::ThreadPool::DefaultThreadCount();
  if (hardware > 4) {
    thread_counts.push_back(hardware);
  }
  // On a single-core machine the multi-thread rows measure nothing but
  // scheduler noise; emit them as explicitly skipped instead of recording
  // misleading sub-1.0 speedups — unless --force-multithread asked for
  // them anyway, in which case they run for the determinism cross-check
  // and carry an `oversubscribed` marker so nothing downstream mistakes
  // their wall clock for a scaling measurement.
  const bool oversubscribe = hardware <= 1 && force_multithread;
  const bool single_core = hardware <= 1 && !force_multithread;

  std::vector<Workload> workloads;

  // Workload 1: the implied-cardinality report — one engine (expansion)
  // per triple, built concurrently across the pool.
  {
    crsat::Schema schema = ChainSchema(depth);
    workloads.push_back(TimeAtThreadCounts(
        "implied_cardinality_report(chain depth=" + std::to_string(depth) +
            ")",
        thread_counts, repeat, single_core, oversubscribe, [&schema]() {
          crsat::Result<std::vector<crsat::ImpliedCardinalityRow>> report =
              crsat::BuildImpliedCardinalityReport(schema);
          if (!report.ok()) {
            std::cerr << report.status() << "\n";
            std::exit(EXIT_FAILURE);
          }
          return DigestReport(schema, *report);
        }));
  }

  // Workload 2: a batched implication sweep — CheckAll answers the queries
  // of one engine in order, each warm started from the previous one. Its
  // work does not depend on the pool size.
  {
    crsat::Schema schema = ChainSchema(depth);
    crsat::ClassId bottom = schema.FindClass("C0").value();
    crsat::RelationshipId rel = schema.FindRelationship("R").value();
    crsat::RoleId role = schema.FindRole("U").value();
    std::vector<crsat::ImplicationQuery> queries;
    for (std::uint64_t bound = 0; bound <= 8; ++bound) {
      queries.push_back({crsat::ImplicationQuery::Kind::kMin, bound});
      queries.push_back({crsat::ImplicationQuery::Kind::kMax, bound});
    }
    // The engine is created inside the run so every timing starts from the
    // same (cold) warm-start carry; otherwise later thread counts would
    // inherit the previous run's basis and report incomparable pivot
    // counts.
    workloads.push_back(TimeAtThreadCounts(
        "implication_check_all(" + std::to_string(queries.size()) +
            " queries, 16 passes)",
        thread_counts, repeat, single_core, oversubscribe,
        Passes(16, [&schema, bottom, rel, role, &queries]() {
          crsat::Result<crsat::CardinalityImplicationEngine> engine =
              crsat::CardinalityImplicationEngine::Create(schema, bottom, rel,
                                                          role);
          if (!engine.ok()) {
            std::cerr << engine.status() << "\n";
            std::exit(EXIT_FAILURE);
          }
          crsat::Result<std::vector<bool>> verdicts =
              engine->CheckAll(queries);
          if (!verdicts.ok()) {
            std::cerr << verdicts.status() << "\n";
            std::exit(EXIT_FAILURE);
          }
          std::string digest;
          for (bool verdict : *verdicts) {
            digest += verdict ? '1' : '0';
          }
          return digest;
        })));
  }

  // Workload 3: support computations (LP probe rounds + warm
  // starts) over the example schemas and a random sweep. The digest folds
  // every verdict and the exact witness, so a single nondeterministic
  // Rational anywhere fails the run.
  {
    std::vector<crsat::Schema> schemas;
    std::vector<std::string> names;
    // lint_demo.cr is intentionally malformed (lint fixture); skip it.
    for (const char* file : {"figure1.cr", "meeting.cr", "university.cr"}) {
      std::string path =
          std::string(CRSAT_SOURCE_DIR) + "/examples/schemas/" + file;
      std::ifstream stream(path);
      if (!stream) {
        std::cerr << "bench_parallel: cannot open " << path << "\n";
        return EXIT_FAILURE;
      }
      std::ostringstream text;
      text << stream.rdbuf();
      crsat::Result<crsat::NamedSchema> parsed =
          crsat::ParseSchema(text.str());
      if (!parsed.ok()) {
        std::cerr << parsed.status() << "\n";
        return EXIT_FAILURE;
      }
      schemas.push_back(parsed->schema);
      names.push_back(file);
    }
    {
      // Figure 1's finitely-unsatisfiable core next to a satisfiable
      // component: the first support probe is feasible (the satisfiable
      // part carries it) but leaves the Figure-1 variables undetermined,
      // forcing further probe rounds — the rounds that exercise the
      // warm-start path.
      crsat::SchemaBuilder builder;
      builder.AddClass("C");
      builder.AddClass("D");
      builder.AddIsa("D", "C");
      builder.AddRelationship("R", {{"V1", "C"}, {"V2", "D"}});
      builder.SetCardinality("C", "R", "V1", {2, std::nullopt});
      builder.SetCardinality("D", "R", "V2", {0, 1});
      builder.AddClass("E");
      builder.AddClass("S");
      builder.AddRelationship("Q", {{"W1", "E"}, {"W2", "S"}});
      builder.SetCardinality("E", "Q", "W1", {1, 2});
      builder.SetCardinality("S", "Q", "W2", {1, 2});
      schemas.push_back(builder.Build().value());
      names.push_back("mixed(figure1+sat)");
    }
    for (int seed = 1; seed <= num_schemas; ++seed) {
      // The expansion is exponential in the class count; 5 classes keeps a
      // single support computation in the tens of milliseconds while still
      // exercising multi-round probe fixpoints.
      crsat::RandomSchemaParams params;
      params.seed = static_cast<std::uint32_t>(seed);
      params.num_classes = 5;
      params.num_relationships = 3;
      params.isa_density = 0.3;
      crsat::Result<crsat::Schema> schema =
          crsat::GenerateRandomSchema(params);
      if (!schema.ok()) {
        std::cerr << schema.status() << "\n";
        return EXIT_FAILURE;
      }
      schemas.push_back(std::move(*schema));
      names.push_back("random(seed=" + std::to_string(seed) + ")");
    }
    workloads.push_back(TimeAtThreadCounts(
        "support_sweep(" + std::to_string(schemas.size()) +
            " schemas, 10 passes)",
        thread_counts, repeat, single_core, oversubscribe,
        Passes(10, [&schemas, &names]() {
          std::string digest;
          for (size_t i = 0; i < schemas.size(); ++i) {
            crsat::Result<crsat::Expansion> expansion =
                crsat::Expansion::Build(schemas[i]);
            if (!expansion.ok()) {
              std::cerr << names[i] << ": " << expansion.status() << "\n";
              std::exit(EXIT_FAILURE);
            }
            crsat::SatisfiabilityChecker checker(*expansion);
            crsat::Result<crsat::AcceptableSupport> support =
                checker.Support();
            if (!support.ok()) {
              std::cerr << names[i] << ": " << support.status() << "\n";
              std::exit(EXIT_FAILURE);
            }
            digest += names[i] + ":";
            for (bool positive : support->positive) {
              digest += positive ? '1' : '0';
            }
            digest += "|";
            for (const crsat::Rational& value : support->witness) {
              digest += value.ToString() + ",";
            }
            digest += "\n";
          }
          return digest;
        })));
  }

  // Workload 4: witness synthesis (src/witness/) over satisfiable
  // schemas — the support with its minimal witness (the cover LP's
  // second stage), LCM scaling, tuple assignment, and certification. The
  // digest is the exact materialized interpretation, so the synthesized
  // witness itself must be bit-identical across thread counts.
  {
    std::vector<crsat::Schema> schemas;
    std::vector<std::string> names;
    for (int seed = 1; seed <= num_schemas; ++seed) {
      crsat::RandomSchemaParams params;
      params.seed = static_cast<std::uint32_t>(seed) + 500;
      params.num_classes = 5;
      params.num_relationships = 3;
      params.isa_density = 0.3;
      crsat::Result<crsat::Schema> schema =
          crsat::GenerateRandomSchema(params);
      if (!schema.ok()) {
        std::cerr << schema.status() << "\n";
        return EXIT_FAILURE;
      }
      schemas.push_back(std::move(*schema));
      names.push_back("random(seed=" + std::to_string(seed + 500) + ")");
    }
    workloads.push_back(TimeAtThreadCounts(
        "witness_synthesis(" + std::to_string(schemas.size()) +
            " schemas, 6 passes)",
        thread_counts, repeat, single_core, oversubscribe,
        Passes(6, [&schemas, &names]() {
          std::string digest;
          for (size_t i = 0; i < schemas.size(); ++i) {
            crsat::Result<crsat::Expansion> expansion =
                crsat::Expansion::Build(schemas[i]);
            if (!expansion.ok()) {
              std::cerr << names[i] << ": " << expansion.status() << "\n";
              std::exit(EXIT_FAILURE);
            }
            crsat::SatisfiabilityChecker checker(*expansion);
            crsat::WitnessSynthesizer synthesizer(checker);
            crsat::WitnessOptions options;
            options.max_model_size = 2000000;
            crsat::Result<crsat::CertifiedWitness> witness =
                synthesizer.Synthesize(options);
            digest += names[i] + ":";
            if (witness.ok()) {
              digest += witness->interpretation().ToString();
            } else if (witness.status().code() ==
                       crsat::StatusCode::kInvalidArgument) {
              digest += "<no satisfiable class>";
            } else {
              std::cerr << names[i] << ": " << witness.status() << "\n";
              std::exit(EXIT_FAILURE);
            }
            digest += "\n";
          }
          return digest;
        })));
  }

  // Workload 5: schema debugging — MinimizeUnsatCore plus SuggestRepairs
  // on every unsatisfiable class of the example schemas and of seeded
  // ISA-free and ISA schemas shaped like perfbench's check_batch corpus.
  // Each probe of an ISA-free edit is answered by the Lenzerini-Nobili
  // stage (counted in ln_short_circuits); the others expand. The digest
  // folds every core and suggestion.
  {
    std::vector<crsat::Schema> schemas;
    std::vector<std::string> names;
    for (const char* file :
         {"figure1.cr", "finitely_unsat_binary_tree.cr",
          "finitely_unsat_chain.cr", "finitely_unsat_pair.cr",
          "finitely_unsat_ternary.cr"}) {
      std::string path =
          std::string(CRSAT_SOURCE_DIR) + "/examples/schemas/" + file;
      std::ifstream stream(path);
      std::ostringstream text;
      text << stream.rdbuf();
      crsat::Result<crsat::NamedSchema> parsed =
          crsat::ParseSchema(text.str());
      if (!parsed.ok()) {
        std::cerr << path << ": " << parsed.status() << "\n";
        return EXIT_FAILURE;
      }
      schemas.push_back(parsed->schema);
      names.push_back(file);
    }
    // The first `num_schemas` seeds of each shape that leave some class
    // unsatisfiable.
    for (double isa_density : {0.0, 0.3}) {
      int kept = 0;
      for (std::uint32_t seed = 1; kept < num_schemas; ++seed) {
        crsat::RandomSchemaParams params;
        params.seed = seed;
        params.num_classes = 3;
        params.num_relationships = 3;
        params.isa_density = isa_density;
        crsat::Result<crsat::Schema> schema =
            crsat::GenerateRandomSchema(params);
        if (!schema.ok()) {
          std::cerr << schema.status() << "\n";
          return EXIT_FAILURE;
        }
        crsat::Result<crsat::Expansion> expansion =
            crsat::Expansion::Build(*schema);
        if (!expansion.ok()) {
          std::cerr << expansion.status() << "\n";
          return EXIT_FAILURE;
        }
        crsat::Result<std::vector<bool>> verdicts =
            crsat::SatisfiabilityChecker(*expansion).SatisfiableClasses();
        if (!verdicts.ok()) {
          std::cerr << verdicts.status() << "\n";
          return EXIT_FAILURE;
        }
        if (std::find(verdicts->begin(), verdicts->end(), false) ==
            verdicts->end()) {
          continue;
        }
        schemas.push_back(std::move(*schema));
        names.push_back((isa_density == 0 ? "isa_free(seed=" : "isa(seed=") +
                        std::to_string(seed) + ")");
        ++kept;
      }
    }
    workloads.push_back(TimeAtThreadCounts(
        "unsat_core_sweep(" + std::to_string(schemas.size()) +
            " schemas, 10 passes)",
        thread_counts, repeat, single_core, oversubscribe,
        Passes(10, [&schemas, &names]() {
          std::string digest;
          for (size_t i = 0; i < schemas.size(); ++i) {
            const crsat::Schema& schema = schemas[i];
            for (int c = 0; c < schema.num_classes(); ++c) {
              const crsat::ClassId cls(c);
              crsat::Result<crsat::UnsatCore> core =
                  crsat::MinimizeUnsatCore(schema, cls);
              if (!core.ok()) {
                if (core.status().code() ==
                    crsat::StatusCode::kInvalidArgument) {
                  continue;  // Satisfiable: no core.
                }
                std::cerr << names[i] << ": " << core.status() << "\n";
                std::exit(EXIT_FAILURE);
              }
              crsat::Result<std::vector<crsat::RepairSuggestion>> repairs =
                  crsat::SuggestRepairs(schema, cls, *core);
              if (!repairs.ok()) {
                std::cerr << names[i] << ": " << repairs.status() << "\n";
                std::exit(EXIT_FAILURE);
              }
              digest += names[i] + "." + schema.ClassName(cls) + ":";
              for (const crsat::CoreConstraint& constraint :
                   core->constraints) {
                digest += constraint.description + ";";
              }
              for (const crsat::RepairSuggestion& suggestion : *repairs) {
                digest += suggestion.description + ";";
              }
              digest += "\n";
            }
          }
          return digest;
        })));
  }

  bool all_deterministic = true;
  for (const Workload& workload : workloads) {
    all_deterministic = all_deterministic && workload.deterministic;
  }

  // Human-readable summary.
  for (const Workload& workload : workloads) {
    std::cout << workload.name
              << (workload.deterministic ? "" : "  [NONDETERMINISTIC]")
              << "\n";
    double base_ms = workload.timings.front().wall_ms;
    for (const Timing& timing : workload.timings) {
      if (timing.skipped_single_core) {
        std::cout << "  threads=" << timing.threads
                  << "  skipped (single core)\n";
        continue;
      }
      const StatsSnapshot& stats = timing.stats;
      std::cout << "  threads=" << timing.threads
                << (timing.oversubscribed ? " (oversubscribed)" : "")
                << "  wall_ms=" << timing.wall_ms
                << "  speedup=" << (timing.wall_ms > 0 ? base_ms / timing.wall_ms : 1.0)
                << "  solves=" << stats.solves << "  pivots=" << stats.pivots
                << "  basis_pivots=" << stats.basis_pivots
                << "  fast_pivots=" << stats.fast_pivots
                << "  fallbacks=" << stats.tier_fallbacks
                << "  warm_hits=" << stats.warm_start_hits
                << "  warm_misses=" << stats.warm_start_misses
                << "  dual_pivots=" << stats.dual_pivots
                << "  incr_hits=" << stats.incremental_hits
                << "  incr_fallbacks=" << stats.incremental_fallbacks
                << "  dom_hits=" << stats.dominance_hits << "/"
                << stats.dominance_lookups
                << "  pruned=" << stats.pruned_subtrees
                << "  ln_short_circuits=" << stats.ln_short_circuits << "\n";
    }
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "bench_parallel: cannot write " << json_path << "\n";
      return EXIT_FAILURE;
    }
    out << ToJson(workloads, repeat, all_deterministic);
    std::cout << "wrote " << json_path << "\n";
  }

  if (!all_deterministic) {
    std::cerr << "bench_parallel: results differ across thread counts\n";
    return EXIT_FAILURE;
  }
  return EXIT_SUCCESS;
}
