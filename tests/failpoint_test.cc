// Deterministic fault injection (src/base/failpoint.h) and the
// degradation ladder it exercises (DESIGN.md §14). Four layers:
// schedule semantics (nth / every-K / seeded probability, env grammar,
// RAII scoping), a registry coverage sweep proving every registered
// failpoint can actually fire from its production seam, seam-level
// degradation tests (warm-start rejection and mid-repair abort fall back
// to a cold phase 1 with exact accounting; injected guard trips and
// allocation failures surface as honest resource statuses, never wrong
// answers), and a flip-detection test proving the chaos harness would
// catch an unsound ladder.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "src/crsat.h"
#include "src/server/client.h"
#include "src/server/scheduler.h"
#include "src/server/server.h"
#include "tests/test_schemas.h"

namespace crsat {
namespace {

std::uint64_t Load(const std::atomic<std::uint64_t>& counter) {
  return counter.load(std::memory_order_relaxed);
}

LinearExpr Expr(std::vector<std::pair<int, std::int64_t>> terms,
                std::int64_t constant = 0) {
  LinearExpr expr;
  for (const auto& [var, coefficient] : terms) {
    expr.AddTerm(VarId{var}, Rational(coefficient));
  }
  expr.AddConstant(Rational(constant));
  return expr;
}

// x + y >= 4, x <= 10; maximizing x lands on x = 10 with the >=-row's
// surplus basic — the carried basis the repair tests perturb.
LinearSystem WideSystem() {
  LinearSystem system;
  system.AddVariable("x");
  system.AddVariable("y");
  system.AddGe(Expr({{0, 1}, {1, 1}}, -4));
  system.AddLe(Expr({{0, 1}}, -10));
  return system;
}

// Same shape with the x-cap tightened to 2: the basis carried from
// WideSystem pivots in with a negative right-hand side, forcing
// RepairPrimalFeasibility to run dual pivots.
LinearSystem TightenedSystem() {
  LinearSystem system;
  system.AddVariable("x");
  system.AddVariable("y");
  system.AddGe(Expr({{0, 1}, {1, 1}}, -4));
  system.AddLe(Expr({{0, 1}}, -2));
  return system;
}

WarmStartBasis SolveWideExportingBasis() {
  WarmStartBasis basis;
  SimplexOptions exporting;
  exporting.export_basis = &basis;
  LpResult cold = SimplexSolver::SolveWith(WideSystem(), Expr({{0, 1}}),
                                           /*maximize=*/true, exporting)
                      .value();
  EXPECT_EQ(cold.outcome, LpOutcome::kOptimal);
  EXPECT_EQ(cold.objective, Rational(10));
  EXPECT_FALSE(basis.empty());
  return basis;
}

// --- Registry + schedule semantics -------------------------------------

TEST(FailpointRegistryTest, CatalogIsSortedAndSelfConsistent) {
  const std::vector<std::string>& registry = RegisteredFailpoints();
  ASSERT_FALSE(registry.empty());
  for (size_t i = 1; i < registry.size(); ++i) {
    EXPECT_LT(registry[i - 1], registry[i]);
  }
  for (const std::string& id : registry) {
    EXPECT_TRUE(IsFailpointRegistered(id)) << id;
  }
  EXPECT_FALSE(IsFailpointRegistered("no/such_failpoint"));
}

TEST(FailpointRegistryTest, UnregisteredOrMalformedActivationFails) {
  FailpointSpec unknown;
  unknown.id = "no/such_failpoint";
  EXPECT_EQ(ActivateFailpoint(unknown).code(), StatusCode::kInvalidArgument);

  FailpointSpec zero_n;
  zero_n.id = "guard/trip";
  zero_n.n = 0;
  EXPECT_EQ(ActivateFailpoint(zero_n).code(), StatusCode::kInvalidArgument);

  FailpointSpec bad_probability;
  bad_probability.id = "guard/trip";
  bad_probability.mode = FailpointMode::kProbability;
  bad_probability.probability = 1.5;
  EXPECT_EQ(ActivateFailpoint(bad_probability).code(),
            StatusCode::kInvalidArgument);
}

TEST(FailpointScheduleTest, NthFiresExactlyOnceAtTheNthHit) {
  ResetFailpointCounters();
  FailpointSpec spec;
  spec.id = "guard/trip";
  spec.mode = FailpointMode::kNth;
  spec.n = 3;
  ScopedFailpoint armed(spec);
  ASSERT_TRUE(armed.status().ok());
  std::vector<bool> fired;
  for (int hit = 0; hit < 6; ++hit) {
    fired.push_back(CRSAT_FAILPOINT("guard/trip"));
  }
  EXPECT_EQ(fired, std::vector<bool>({false, false, true, false, false,
                                      false}));
  EXPECT_EQ(GetFailpointCounters("guard/trip").hits, 6u);
  EXPECT_EQ(GetFailpointCounters("guard/trip").fires, 1u);
}

TEST(FailpointScheduleTest, EveryKFiresPeriodically) {
  ResetFailpointCounters();
  FailpointSpec spec;
  spec.id = "guard/trip";
  spec.mode = FailpointMode::kEveryK;
  spec.n = 2;
  ScopedFailpoint armed(spec);
  ASSERT_TRUE(armed.status().ok());
  std::vector<bool> fired;
  for (int hit = 0; hit < 6; ++hit) {
    fired.push_back(CRSAT_FAILPOINT("guard/trip"));
  }
  EXPECT_EQ(fired,
            std::vector<bool>({false, true, false, true, false, true}));
}

TEST(FailpointScheduleTest, SeededProbabilityIsReproducible) {
  auto draw = [](std::uint32_t seed) {
    FailpointSpec spec;
    spec.id = "guard/trip";
    spec.mode = FailpointMode::kProbability;
    spec.probability = 0.5;
    spec.seed = seed;
    ScopedFailpoint armed(spec);
    EXPECT_TRUE(armed.status().ok());
    std::vector<bool> fired;
    for (int hit = 0; hit < 64; ++hit) {
      fired.push_back(CRSAT_FAILPOINT("guard/trip"));
    }
    return fired;
  };
  const std::vector<bool> first = draw(42);
  const std::vector<bool> second = draw(42);
  EXPECT_EQ(first, second);
  // Sanity: p = 0.5 over 64 hits fires at least once and skips at least
  // once (the chance of either tail is 2^-64).
  EXPECT_NE(first, std::vector<bool>(64, false));
  EXPECT_NE(first, std::vector<bool>(64, true));
  EXPECT_NE(first, draw(43));
}

TEST(FailpointScheduleTest, ScopedArmingDisarmsOnExit) {
  {
    ScopedFailpoint armed("guard/trip", /*nth=*/1);
    ASSERT_TRUE(armed.status().ok());
    EXPECT_TRUE(CRSAT_FAILPOINT("guard/trip"));
  }
  EXPECT_FALSE(CRSAT_FAILPOINT("guard/trip"));

  ScopedFailpoint bad("no/such_failpoint", /*nth=*/1);
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(FailpointEnvGrammarTest, ParsesEveryScheduleForm) {
  ResetFailpointCounters();
  ASSERT_TRUE(ActivateFailpointsFromSpec(
                  "guard/trip, lp/warm_start_reject=nth:2;"
                  "alloc/simplex=every:3, witness/force_rescale=p:0.5@7")
                  .ok());
  // Bare id means nth:1.
  EXPECT_TRUE(CRSAT_FAILPOINT("guard/trip"));
  EXPECT_FALSE(CRSAT_FAILPOINT("guard/trip"));
  EXPECT_FALSE(CRSAT_FAILPOINT("lp/warm_start_reject"));
  EXPECT_TRUE(CRSAT_FAILPOINT("lp/warm_start_reject"));
  EXPECT_FALSE(CRSAT_FAILPOINT("alloc/simplex"));
  EXPECT_FALSE(CRSAT_FAILPOINT("alloc/simplex"));
  EXPECT_TRUE(CRSAT_FAILPOINT("alloc/simplex"));
  EXPECT_GT(GetFailpointCounters("guard/trip").fires, 0u);
  DeactivateAllFailpoints();
}

TEST(FailpointEnvGrammarTest, MalformedEntriesRejectEarlierEntriesStay) {
  DeactivateAllFailpoints();
  EXPECT_EQ(ActivateFailpointsFromSpec("guard/trip=nth:1,bogus/id=nth:1")
                .code(),
            StatusCode::kInvalidArgument);
  // The well-formed prefix stays armed.
  EXPECT_TRUE(CRSAT_FAILPOINT("guard/trip"));
  DeactivateAllFailpoints();

  EXPECT_FALSE(ActivateFailpointsFromSpec("guard/trip=every:0").ok());
  EXPECT_FALSE(ActivateFailpointsFromSpec("guard/trip=p:2.0@1").ok());
  EXPECT_FALSE(ActivateFailpointsFromSpec("guard/trip=banana").ok());
  EXPECT_FALSE(CRSAT_FAILPOINT("guard/trip"));
}

// --- Registry coverage: every failpoint fires from its seam ------------

// One driver per registered failpoint. Each arms ONLY its own id (the
// seams shadow each other — e.g. a warm-start rejection prevents the
// dual-repair site from ever being reached), runs a workload that
// reaches the seam, and asserts the degraded result is still correct.
// The suite-level test below asserts this table covers the registry
// exactly, so registering a new failpoint without a firing test fails.
struct SeamCase {
  const char* id;
  void (*drive)();
};

void DriveAllocExpansion() {
  Result<Expansion> build = Expansion::Build(testing::MeetingSchema());
  ASSERT_FALSE(build.ok());
  EXPECT_EQ(build.status().code(), StatusCode::kResourceExhausted);
}

void DriveAllocSimplex() {
  Result<LpResult> solve = SimplexSolver::SolveWith(
      WideSystem(), Expr({{0, 1}}), /*maximize=*/true, SimplexOptions{});
  ASSERT_FALSE(solve.ok());
  EXPECT_EQ(solve.status().code(), StatusCode::kResourceExhausted);
}

void DriveGuardTrip() {
  ResourceGuard guard;  // Unlimited: only the injected fault can trip it.
  const Status status = guard.Check("failpoint_test/site");
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(guard.tripped());
  EXPECT_EQ(guard.report().tripped, ResourceLimitKind::kInjected);
  // The trip is sticky, exactly like a genuine budget trip.
  EXPECT_EQ(guard.Check("failpoint_test/later").code(),
            StatusCode::kResourceExhausted);
}

void DriveIncrementalForceCold() {
  ScopedIncrementalOverride on(true);
  EXPECT_FALSE(IncrementalReasoningEnabled());
}

void DriveFastTierOverflow() {
  GetSimplexStats().Reset();
  GetRecoveryStats().Reset();
  LpResult result = SimplexSolver::SolveWith(WideSystem(), Expr({{0, 1}}),
                                             /*maximize=*/true,
                                             SimplexOptions{})
                        .value();
  EXPECT_EQ(result.outcome, LpOutcome::kOptimal);
  EXPECT_EQ(result.objective, Rational(10));  // Exact tier, same answer.
  EXPECT_EQ(Load(GetSimplexStats().fast_solves), 0u);
  EXPECT_GE(Load(GetRecoveryStats().tier_fallbacks), 1u);
}

void DriveWarmStartReject() {
  ScopedIncrementalOverride on(true);
  WarmStartBasis basis = SolveWideExportingBasis();
  GetSimplexStats().Reset();
  SimplexOptions warm;
  warm.warm_start = &basis;
  LpResult result = SimplexSolver::SolveWith(WideSystem(), Expr({{0, 1}}),
                                             /*maximize=*/true, warm)
                        .value();
  EXPECT_EQ(result.outcome, LpOutcome::kOptimal);
  EXPECT_EQ(result.objective, Rational(10));  // Cold fallback, same answer.
  EXPECT_EQ(Load(GetSimplexStats().warm_start_hits), 0u);
  EXPECT_EQ(Load(GetSimplexStats().warm_start_misses), 1u);
}

void DriveDualRepairAbort() {
  ScopedIncrementalOverride on(true);
  WarmStartBasis basis = SolveWideExportingBasis();
  GetSimplexStats().Reset();
  SimplexOptions warm;
  warm.warm_start = &basis;
  LpResult result =
      SimplexSolver::SolveWith(TightenedSystem(), Expr({{0, 1}}),
                               /*maximize=*/true, warm)
          .value();
  EXPECT_EQ(result.outcome, LpOutcome::kOptimal);
  EXPECT_EQ(result.objective, Rational(2));  // Cold fallback, same answer.
  EXPECT_EQ(Load(GetSimplexStats().warm_start_misses), 1u);
  EXPECT_EQ(Load(GetSimplexStats().incremental_fallbacks), 1u);
}

void DriveSupportCoverFail() {
  ScopedIncrementalOverride on(true);
  Schema schema = testing::MeetingSchema();
  Expansion expansion = Expansion::Build(schema).value();
  SatisfiabilityChecker checker(expansion);
  std::vector<bool> degraded = checker.Support().value().positive;

  DeactivateAllFailpoints();  // Reference run outside the fault.
  SatisfiabilityChecker reference_checker(expansion);
  EXPECT_EQ(degraded, reference_checker.Support().value().positive);
}

void DriveWitnessForceFlowRefine() {
  Schema schema = testing::MeetingSchema();
  Expansion expansion = Expansion::Build(schema).value();
  SatisfiabilityChecker checker(expansion);
  WitnessSynthesizer synthesizer(checker);
  CertifiedWitness witness = synthesizer.Synthesize().value();
  EXPECT_TRUE(ModelChecker::IsModel(schema, witness.interpretation()));
}

void DriveWitnessForceRescale() {
  GetRecoveryStats().Reset();
  Schema schema = testing::MeetingSchema();
  Expansion expansion = Expansion::Build(schema).value();
  SatisfiabilityChecker checker(expansion);
  WitnessSynthesizer synthesizer(checker);
  CertifiedWitness witness = synthesizer.Synthesize().value();
  EXPECT_TRUE(ModelChecker::IsModel(schema, witness.interpretation()));
  EXPECT_GE(Load(GetRecoveryStats().witness_rescales), 1u);
}

// Self-loop schema with a finite model: saturation normally certifies a
// two-individual cycle, so both injected stops have a meaningful result
// to degrade from.
Schema SaturationSeamSchema() {
  return ParseSchema(
             "schema Seam {\n"
             "  class A;\n"
             "  relationship R(V1: A, V2: A);\n"
             "  card A in R.V1 = (1, 1);\n"
             "}\n")
      .value()
      .schema;
}

void DriveSaturationExpand() {
  // Phase A polls this failpoint before every template expansion; an
  // injected stop must surface as an honest kUnknown — never a guessed
  // verdict, and never a model.
  Schema schema = SaturationSeamSchema();
  SaturationClassResult result =
      SaturationEngine::DecideClass(schema, schema.FindClass("A").value());
  EXPECT_EQ(result.verdict, SaturationVerdict::kUnknown);
  EXPECT_FALSE(result.unknown_reason.empty());
  EXPECT_FALSE(result.model.has_value());
}

void DriveSaturationMaterialize() {
  // Phase B (finite materialization) polls this failpoint on every
  // solver step; an injected failure degrades the certified finite
  // model to the weaker sat-with-reuse claim, still backed by the valid
  // phase A graph built before the fault.
  Schema schema = SaturationSeamSchema();
  const ClassId cls = schema.FindClass("A").value();
  SaturationClassResult result = SaturationEngine::DecideClass(schema, cls);
  EXPECT_EQ(result.verdict, SaturationVerdict::kSatWithReuse);
  EXPECT_FALSE(result.model.has_value());
  EXPECT_TRUE(ValidateSaturationGraph(schema, result.graph, cls).empty());
}

void DriveServerAccept() {
  // A fired accept failpoint skips one poll round; the connection waits
  // in the listen backlog and is served on the next — a delay, never a
  // drop, so the request still completes with its verdict intact.
  server::ServerOptions options;
  options.port = 0;
  options.threads = 2;
  server::Server daemon(options);
  ASSERT_TRUE(daemon.Start().ok());
  server::Client client;
  ASSERT_TRUE(client.ConnectTcp(daemon.port()).ok());
  auto reply = client.Call(server::RequestType::kStats, "");
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->status, server::ResponseStatus::kOk);
  daemon.BeginDrain();
  daemon.Wait();
}

void DriveServerQueueFull() {
  // The forced-shed seam: admission control refuses with kOverloaded
  // and the work is dropped before it ever queues.
  ThreadPool pool(2);
  server::RequestScheduler scheduler(&pool, {});
  scheduler.OpenLane(1);
  EXPECT_EQ(scheduler.Submit(1, 0, [] {}),
            server::ResponseStatus::kOverloaded);
  EXPECT_EQ(scheduler.stats().shed, 1u);
  scheduler.AwaitIdle();
}

void DriveServerShortRead() {
  // Every recv delivers one byte; the reassembly buffer must still
  // produce the same frames and the same answer.
  server::ServerOptions options;
  options.port = 0;
  options.threads = 2;
  server::Server daemon(options);
  ASSERT_TRUE(daemon.Start().ok());
  server::Client client;
  ASSERT_TRUE(client.ConnectTcp(daemon.port()).ok());
  auto parsed = client.Parse("seam.cr", "schema Seam { class A; }\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->status, server::ResponseStatus::kOk);
  auto reply = client.Call(server::RequestType::kCheck, "");
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->status, server::ResponseStatus::kOk);
  daemon.BeginDrain();
  daemon.Wait();
}

constexpr SeamCase kSeamCases[] = {
    {"alloc/expansion", DriveAllocExpansion},
    {"alloc/simplex", DriveAllocSimplex},
    {"guard/trip", DriveGuardTrip},
    {"incremental/force_cold", DriveIncrementalForceCold},
    {"lp/dual_repair_abort", DriveDualRepairAbort},
    {"lp/fast_tier_overflow", DriveFastTierOverflow},
    {"lp/support_cover_fail", DriveSupportCoverFail},
    {"lp/warm_start_reject", DriveWarmStartReject},
    {"saturation/expand", DriveSaturationExpand},
    {"saturation/materialize", DriveSaturationMaterialize},
    {"server/accept", DriveServerAccept},
    {"server/queue-full", DriveServerQueueFull},
    {"server/short-read", DriveServerShortRead},
    {"witness/force_flow_refine", DriveWitnessForceFlowRefine},
    {"witness/force_rescale", DriveWitnessForceRescale},
};

TEST(FailpointCoverageTest, EveryRegisteredFailpointFiresFromItsSeam) {
  for (const SeamCase& seam : kSeamCases) {
    SCOPED_TRACE(seam.id);
    ResetFailpointCounters();
    FailpointSpec spec;
    spec.id = seam.id;
    // force_rescale on every hit would burn the whole bounded retry
    // budget, and an accept skip on every poll round would never accept
    // at all; firing once proves those seams and keeps the outcome.
    const bool once = std::string(seam.id) == "witness/force_rescale" ||
                      std::string(seam.id) == "server/accept";
    spec.mode = once ? FailpointMode::kNth : FailpointMode::kEveryK;
    spec.n = 1;
    {
      ScopedFailpoint armed(spec);
      ASSERT_TRUE(armed.status().ok());
      seam.drive();
    }
    EXPECT_GT(GetFailpointCounters(seam.id).fires, 0u)
        << "seam workload never reached the failpoint";
  }
  ResetFailpointCounters();
}

TEST(FailpointCoverageTest, SeamTableCoversTheRegistryExactly) {
  std::set<std::string> driven;
  for (const SeamCase& seam : kSeamCases) {
    driven.insert(seam.id);
  }
  const std::vector<std::string>& registry = RegisteredFailpoints();
  EXPECT_EQ(driven,
            std::set<std::string>(registry.begin(), registry.end()))
      << "every registered failpoint needs a firing seam test";
}

// --- Mid-repair degradation: accounting at 1/2/8 threads ---------------

// An abort in the middle of RepairPrimalFeasibility must fall back to a
// cold phase 1 with the verdicts unchanged and the books balanced: the
// failed attempt is a warm-start miss AND an incremental fallback, and
// the faulted sweep reaches the same verdicts as the clean one with the
// same total number of warm-start attempts.
TEST(MidRepairDegradationTest, RepairAbortFallsBackColdAcrossThreadCounts) {
  ScopedIncrementalOverride on(true);
  Schema schema = testing::MeetingSchema();
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE(threads);
    SetGlobalThreadCount(threads);

    GetSimplexStats().Reset();
    GetRecoveryStats().Reset();
    Expansion clean_expansion = Expansion::Build(schema).value();
    SatisfiabilityChecker clean_checker(clean_expansion);
    const std::vector<bool> clean = clean_checker.SatisfiableClasses().value();
    const std::uint64_t clean_attempts =
        Load(GetSimplexStats().warm_start_hits) +
        Load(GetSimplexStats().warm_start_misses);

    // Deterministic LP-level repair, per thread count: the carried basis
    // goes primal-infeasible, repair starts, the failpoint aborts it.
    WarmStartBasis basis = SolveWideExportingBasis();
    GetSimplexStats().Reset();
    {
      ScopedFailpoint armed("lp/dual_repair_abort", /*nth=*/1);
      ASSERT_TRUE(armed.status().ok());
      SimplexOptions warm;
      warm.warm_start = &basis;
      LpResult repaired =
          SimplexSolver::SolveWith(TightenedSystem(), Expr({{0, 1}}),
                                   /*maximize=*/true, warm)
              .value();
      EXPECT_EQ(repaired.outcome, LpOutcome::kOptimal);
      EXPECT_EQ(repaired.objective, Rational(2));
    }
    EXPECT_EQ(Load(GetSimplexStats().warm_start_hits), 0u);
    EXPECT_EQ(Load(GetSimplexStats().warm_start_misses), 1u);
    EXPECT_EQ(Load(GetSimplexStats().incremental_fallbacks), 1u);
    EXPECT_GE(Load(GetRecoveryStats().warm_start_fallbacks), 1u);

    // Whole-pipeline re-run with every repair aborted: same verdicts,
    // same number of warm-start attempts, every attempted repair now a
    // miss instead of a hit.
    GetSimplexStats().Reset();
    {
      FailpointSpec spec;
      spec.id = "lp/dual_repair_abort";
      spec.mode = FailpointMode::kEveryK;
      spec.n = 1;
      ScopedFailpoint armed(spec);
      ASSERT_TRUE(armed.status().ok());
      Expansion expansion = Expansion::Build(schema).value();
      SatisfiabilityChecker checker(expansion);
      EXPECT_EQ(checker.SatisfiableClasses().value(), clean);
    }
    EXPECT_EQ(Load(GetSimplexStats().warm_start_hits) +
                  Load(GetSimplexStats().warm_start_misses),
              clean_attempts);
  }
  SetGlobalThreadCount(1);
}

// A guard trip *during* repair must not fall back at all: the trip is
// sticky, so the solve unwinds with the honest resource status instead
// of burning the rest of the budget on a cold phase 1.
TEST(MidRepairDegradationTest, GuardTripDuringRepairSurfacesAsResource) {
  ScopedIncrementalOverride on(true);
  WarmStartBasis basis = SolveWideExportingBasis();
  ResourceGuard guard;
  ScopedFailpoint armed("guard/trip", /*nth=*/1);
  ASSERT_TRUE(armed.status().ok());
  SimplexOptions warm;
  warm.warm_start = &basis;
  warm.guard = &guard;
  Result<LpResult> tripped = SimplexSolver::SolveWith(
      TightenedSystem(), Expr({{0, 1}}), /*maximize=*/true, warm);
  ASSERT_FALSE(tripped.ok());
  EXPECT_TRUE(IsResourceLimitStatus(tripped.status().code()));
  EXPECT_EQ(guard.report().tripped, ResourceLimitKind::kInjected);
}

// --- Chaos conformance: soundness + flip detection ---------------------

TEST(ChaosConformanceTest, SmallSweepReportsNoFlips) {
  ChaosConformanceOptions options;
  options.num_seeds = 12;
  options.first_seed = 1;
  GetRecoveryStats().Reset();
  ResetFailpointCounters();
  ChaosReport report = RunChaosConformance(options).value();
  EXPECT_EQ(report.seeds_swept, 12);
  EXPECT_TRUE(report.flips.empty()) << report.Summary();
  // Zero flips over zero faults proves nothing: require positive
  // evidence that faults actually fired and some runs still agreed.
  EXPECT_GT(report.faults_fired, 0u);
  EXPECT_GT(report.faulted_runs_agreeing, 0);
  // Every armed failpoint is restored before returning.
  EXPECT_FALSE(CRSAT_FAILPOINT("guard/trip"));
}

TEST(ChaosConformanceTest, InjectedVerdictFlipIsDetected) {
  // The harness must convict a ladder that silently flips a verdict:
  // flip class 0 in every faulted run and require at least one
  // "verdict-flip" finding (seeds where the faulted run degrades to
  // UNKNOWN legitimately report nothing, hence "at least one" over a
  // small sweep, not "every seed").
  ChaosConformanceOptions options;
  options.num_seeds = 12;
  options.first_seed = 1;
  options.inject_flip_class = 0;
  options.check_witnesses = false;  // Isolate the verdict comparison.
  ChaosReport report = RunChaosConformance(options).value();
  bool saw_flip = false;
  for (const ChaosVerdictFlip& flip : report.flips) {
    EXPECT_EQ(flip.kind, "verdict-flip");
    EXPECT_FALSE(flip.fault_schedule.empty());
    saw_flip = true;
  }
  EXPECT_TRUE(saw_flip)
      << "chaos harness failed to detect an injected verdict flip";
}

}  // namespace
}  // namespace crsat
