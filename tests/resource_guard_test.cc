#include "src/base/resource_guard.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/failpoint.h"
#include "src/base/incremental.h"
#include "src/base/thread_pool.h"
#include "src/cr/schema_text.h"
#include "src/cr/text_lexer.h"
#include "src/expansion/expansion.h"
#include "src/lp/linear_system.h"
#include "src/lp/simplex.h"
#include "src/reasoner/implication_engine.h"
#include "src/reasoner/repair.h"
#include "src/reasoner/satisfiability.h"
#include "src/reasoner/unsat_core.h"
#include "tests/debug_digest.h"
#include "tests/test_schemas.h"

namespace crsat {
namespace {

using crsat::testing::DebugDigest;
using crsat::testing::IsaFreeUnsatSchema;
using crsat::testing::MeetingSchema;

LinearExpr Expr(std::vector<std::pair<VarId, std::int64_t>> terms,
                std::int64_t constant = 0) {
  LinearExpr expr;
  for (const auto& [var, coeff] : terms) {
    expr.AddTerm(var, Rational(coeff));
  }
  expr.AddConstant(Rational(constant));
  return expr;
}

// Restores the global pool's default parallelism when a test tweaks it.
class ThreadCountRestorer {
 public:
  ~ThreadCountRestorer() { SetGlobalThreadCount(0); }
};

// ---------------------------------------------------------------------------
// Guard primitives.

TEST(ResourceGuardTest, UnlimitedGuardNeverTrips) {
  ResourceGuard guard;
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(guard.Check("test/site").ok());
  }
  guard.AddCompounds(1 << 20);
  guard.AddMemory(std::uint64_t{1} << 40);
  EXPECT_TRUE(guard.CheckNow("test/site").ok());
  EXPECT_FALSE(guard.tripped());
  EXPECT_TRUE(guard.TripStatus().ok());
  ResourceReport report = guard.report();
  EXPECT_EQ(report.tripped, ResourceLimitKind::kNone);
  EXPECT_EQ(report.compounds, std::uint64_t{1} << 20);
  EXPECT_GE(report.checks, 101u);
}

TEST(ResourceGuardTest, ExpiredDeadlineTripsOnFirstCheckAndIsSticky) {
  ResourceLimits limits;
  limits.timeout = std::chrono::milliseconds(0);
  ResourceGuard guard(limits);
  Status status = guard.Check("first/site");
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(guard.tripped());
  // Sticky: later checks report the original trip site, not their own.
  Status later = guard.Check("second/site");
  EXPECT_EQ(later.code(), StatusCode::kDeadlineExceeded);
  ResourceReport report = guard.report();
  EXPECT_EQ(report.tripped, ResourceLimitKind::kDeadline);
  EXPECT_EQ(report.site, "first/site");
}

TEST(ResourceGuardTest, CompoundBudgetTrips) {
  ResourceLimits limits;
  limits.max_compounds = 10;
  ResourceGuard guard(limits);
  guard.AddCompounds(10);
  EXPECT_TRUE(guard.Check("site/a").ok()) << "budget not yet exceeded";
  guard.AddCompounds(1);
  Status status = guard.Check("site/b");
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(guard.report().tripped, ResourceLimitKind::kCompounds);
  EXPECT_EQ(guard.report().site, "site/b");
}

TEST(ResourceGuardTest, MemoryBudgetAndScopedCharge) {
  ResourceLimits limits;
  limits.max_memory_bytes = 1000;
  ResourceGuard guard(limits);
  {
    ScopedMemoryCharge charge(&guard, 600);
    EXPECT_EQ(guard.memory_bytes(), 600u);
    EXPECT_TRUE(guard.CheckNow("mem/a").ok());
  }
  EXPECT_EQ(guard.memory_bytes(), 0u) << "scope released its charge";
  EXPECT_EQ(guard.report().peak_memory_bytes, 600u);

  ScopedMemoryCharge big(&guard, 800);
  big.Add(300);
  EXPECT_EQ(guard.memory_bytes(), 1100u);
  Status status = guard.CheckNow("mem/b");
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(guard.report().tripped, ResourceLimitKind::kMemory);

  // Move semantics: exactly one release.
  ScopedMemoryCharge moved = std::move(big);
  (void)moved;
}

TEST(ResourceGuardTest, ScopedChargeNullGuardIsNoOp) {
  ScopedMemoryCharge charge(nullptr, 1 << 30);
  charge.Add(1 << 30);
}

TEST(ResourceGuardTest, CancellationObservedByNextCheck) {
  ResourceGuard guard;
  EXPECT_TRUE(guard.Check("pre/cancel").ok());
  guard.RequestCancel();
  EXPECT_TRUE(guard.cancel_requested());
  Status status = guard.Check("post/cancel");
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  EXPECT_EQ(guard.report().tripped, ResourceLimitKind::kCancelled);
  EXPECT_EQ(guard.report().site, "post/cancel");
}

TEST(ResourceGuardTest, IsResourceLimitStatusClassifiesCodes) {
  EXPECT_TRUE(IsResourceLimitStatus(StatusCode::kDeadlineExceeded));
  EXPECT_TRUE(IsResourceLimitStatus(StatusCode::kResourceExhausted));
  EXPECT_TRUE(IsResourceLimitStatus(StatusCode::kCancelled));
  EXPECT_FALSE(IsResourceLimitStatus(StatusCode::kOk));
  EXPECT_FALSE(IsResourceLimitStatus(StatusCode::kInvalidArgument));
  EXPECT_FALSE(IsResourceLimitStatus(StatusCode::kInternal));
}

TEST(ResourceGuardTest, ReportSerializesToJson) {
  ResourceLimits limits;
  limits.max_compounds = 1;
  ResourceGuard guard(limits);
  guard.AddCompounds(2);
  ASSERT_FALSE(guard.Check("json/site").ok());
  std::string json = guard.report().ToJson();
  EXPECT_NE(json.find("\"tripped\": \"compounds\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"site\": \"json/site\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"compounds\": 2"), std::string::npos) << json;
}

// ---------------------------------------------------------------------------
// Guard trips at each pipeline layer.

TEST(ResourceGuardPipelineTest, DeadlineTripsExpansionBuild) {
  Schema schema = MeetingSchema();
  ResourceLimits limits;
  limits.timeout = std::chrono::milliseconds(0);
  ResourceGuard guard(limits);
  ExpansionOptions options;
  options.guard = &guard;
  Result<Expansion> expansion = Expansion::Build(schema, options);
  ASSERT_FALSE(expansion.ok());
  EXPECT_EQ(expansion.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(guard.tripped());
  EXPECT_EQ(guard.report().tripped, ResourceLimitKind::kDeadline);
  EXPECT_FALSE(guard.report().site.empty());
}

TEST(ResourceGuardPipelineTest, CompoundBudgetTripsMidEnumeration) {
  Schema schema = MeetingSchema();
  ResourceLimits limits;
  limits.max_compounds = 5;  // The meeting expansion needs 23.
  ResourceGuard guard(limits);
  ExpansionOptions options;
  options.guard = &guard;
  Result<Expansion> expansion = Expansion::Build(schema, options);
  ASSERT_FALSE(expansion.ok());
  EXPECT_EQ(expansion.status().code(), StatusCode::kResourceExhausted);
  ResourceReport report = guard.report();
  EXPECT_EQ(report.tripped, ResourceLimitKind::kCompounds);
  // Accounting may overshoot by the compound that crossed the budget, but
  // the enumeration must have stopped right after.
  EXPECT_GE(report.compounds, 5u);
  EXPECT_LE(report.compounds, 7u);
}

TEST(ResourceGuardPipelineTest, SimplexTripsOnExpiredDeadline) {
  LinearSystem system;
  VarId x = system.AddVariable("x");
  VarId y = system.AddVariable("y");
  system.AddLe(Expr({{x, 1}, {y, 2}}, -4));
  system.AddLe(Expr({{x, 3}, {y, 1}}, -6));
  ResourceLimits limits;
  limits.timeout = std::chrono::milliseconds(0);
  ResourceGuard guard(limits);
  SimplexOptions options;
  options.guard = &guard;
  Result<LpResult> result =
      SimplexSolver::SolveWith(system, Expr({{x, 1}, {y, 1}}), true, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(ResourceGuardPipelineTest, SatisfiabilityReportsTripFromSharedGuard) {
  Schema schema = MeetingSchema();
  ResourceGuard guard;  // Unlimited until cancelled.
  ExpansionOptions options;
  options.guard = &guard;
  Result<Expansion> expansion = Expansion::Build(schema, options);
  ASSERT_TRUE(expansion.ok()) << expansion.status();
  guard.RequestCancel();
  SatisfiabilityChecker checker(*expansion);
  Result<std::vector<bool>> verdicts = checker.SatisfiableClasses();
  ASSERT_FALSE(verdicts.ok());
  EXPECT_EQ(verdicts.status().code(), StatusCode::kCancelled);
}

// The schema-debugging probes of an ISA-free schema never expand, so the
// `unsat_core/probe` poll is the only one they make: a cancelled guard
// and every `guard/trip` schedule must stop both the core and the repair
// search there with the trip's status, never with a partial answer.
TEST(ResourceGuardPipelineTest, UnsatCoreProbesObserveTheGuard) {
  ScopedIncrementalOverride on(true);
  Schema schema = IsaFreeUnsatSchema();
  ClassId a = schema.FindClass("A").value();
  const UnsatCore core = MinimizeUnsatCore(schema, a).value();
  const std::vector<RepairSuggestion> repairs =
      SuggestRepairs(schema, a, core).value();

  {
    ResourceGuard guard;
    guard.RequestCancel();
    ExpansionOptions options;
    options.guard = &guard;
    Result<UnsatCore> cancelled = MinimizeUnsatCore(schema, a, options);
    ASSERT_FALSE(cancelled.ok());
    EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);
    EXPECT_EQ(guard.report().site, "unsat_core/probe");
    Result<std::vector<RepairSuggestion>> no_repairs =
        SuggestRepairs(schema, a, core, options);
    ASSERT_FALSE(no_repairs.ok());
    EXPECT_EQ(no_repairs.status().code(), StatusCode::kCancelled);
  }

  // Runs `call` under a guard that trips on its `nth` poll; true once
  // `nth` is past the call's last poll and it answered in full.
  auto survives = [](std::uint64_t nth, const auto& call,
                     const std::string& expected) {
    ResourceGuard guard;
    ExpansionOptions options;
    options.guard = &guard;
    ScopedFailpoint trip("guard/trip", nth);
    EXPECT_TRUE(trip.status().ok());
    Result<std::string> digest = call(options);
    if (digest.ok()) {
      EXPECT_FALSE(guard.tripped()) << "nth=" << nth;
      EXPECT_EQ(*digest, expected) << "nth=" << nth;
      return true;
    }
    EXPECT_EQ(digest.status().ToString(), guard.TripStatus().ToString())
        << "nth=" << nth;
    EXPECT_EQ(digest.status().code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(guard.report().site, "unsat_core/probe") << "nth=" << nth;
    return false;
  };
  auto core_digest =
      [&](const ExpansionOptions& options) -> Result<std::string> {
    CRSAT_ASSIGN_OR_RETURN(UnsatCore found,
                           MinimizeUnsatCore(schema, a, options));
    return DebugDigest(found, {});
  };
  auto repairs_digest =
      [&](const ExpansionOptions& options) -> Result<std::string> {
    CRSAT_ASSIGN_OR_RETURN(std::vector<RepairSuggestion> found,
                           SuggestRepairs(schema, a, core, options));
    return DebugDigest(core, found);
  };
  // One poll per probe: the core makes one per constraint, plus one on the
  // schema itself at the first kept constraint (no deletion had shown A
  // empty yet), and every earlier trip fails the whole call.
  ASSERT_EQ(core.constraints.size(), 4u);
  const std::string full_core = DebugDigest(core, {});
  for (std::uint64_t nth = 1; nth <= 5; ++nth) {
    EXPECT_FALSE(survives(nth, core_digest, full_core)) << "nth=" << nth;
  }
  EXPECT_TRUE(survives(6, core_digest, full_core));
  // With a bystander constraint first, the first deletion already leaves
  // A empty, so the five deletion probes are all: no check of the schema
  // itself.
  Schema padded = crsat::testing::IsaFreeUnsatSchemaWithBystander(
      /*bystander_first=*/true);
  auto padded_digest =
      [&](const ExpansionOptions& options) -> Result<std::string> {
    CRSAT_ASSIGN_OR_RETURN(UnsatCore found,
                           MinimizeUnsatCore(padded, a, options));
    return DebugDigest(found, {});
  };
  const std::string padded_core =
      DebugDigest(MinimizeUnsatCore(padded, a).value(), {});
  for (std::uint64_t nth = 1; nth <= 5; ++nth) {
    EXPECT_FALSE(survives(nth, padded_digest, padded_core)) << "nth=" << nth;
  }
  EXPECT_TRUE(survives(6, padded_digest, padded_core));
  // A satisfiable class is refused under the guard after two polls (its
  // first deletion, then the schema itself): a trip on either fails the
  // call, and a later one leaves the refusal.
  const ClassId c = padded.FindClass("C").value();
  auto refusal = [&](const ExpansionOptions& options) -> Result<std::string> {
    CRSAT_ASSIGN_OR_RETURN(UnsatCore found,
                           MinimizeUnsatCore(padded, c, options));
    return DebugDigest(found, {});
  };
  for (std::uint64_t nth = 1; nth <= 2; ++nth) {
    ResourceGuard guard;
    ExpansionOptions options;
    options.guard = &guard;
    ScopedFailpoint trip("guard/trip", nth);
    Result<std::string> tripped = refusal(options);
    ASSERT_FALSE(tripped.ok()) << "nth=" << nth;
    EXPECT_EQ(tripped.status().code(), StatusCode::kResourceExhausted)
        << "nth=" << nth;
  }
  {
    ResourceGuard guard;
    ExpansionOptions options;
    options.guard = &guard;
    ScopedFailpoint trip("guard/trip", 3);
    Result<std::string> refused = refusal(options);
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
    EXPECT_FALSE(guard.tripped());
  }
  const std::string full_repairs = DebugDigest(core, repairs);
  std::uint64_t nth = 1;
  while (!survives(nth, repairs_digest, full_repairs) && nth < 1000) {
    ++nth;
  }
  EXPECT_GT(nth, 1u);
  EXPECT_LT(nth, 1000u);
}

// ---------------------------------------------------------------------------
// Cooperative cancellation in ParallelFor.

TEST(ResourceGuardParallelForTest, CancellationSkipsRemainingItems) {
  ThreadPool pool(4);
  ResourceGuard guard;
  std::atomic<int> executed{0};
  constexpr size_t kItems = 1000;
  pool.ParallelFor(
      kItems,
      [&](size_t index) {
        executed.fetch_add(1, std::memory_order_relaxed);
        if (index == 0) {
          guard.RequestCancel();
        }
      },
      &guard);
  // The loop drained (ParallelFor returned) but most items were skipped:
  // at most the items already claimed before the cancel ran.
  EXPECT_GE(executed.load(), 1);
  EXPECT_LT(executed.load(), static_cast<int>(kItems));
  EXPECT_EQ(guard.TripStatus().code(), StatusCode::kCancelled);

  // The pool is reusable after a cancelled loop.
  std::atomic<int> second{0};
  pool.ParallelFor(100, [&](size_t) { second.fetch_add(1); });
  EXPECT_EQ(second.load(), 100);
}

TEST(ResourceGuardParallelForTest, SingleThreadCancellationIsDeterministic) {
  ThreadPool pool(1);
  ResourceGuard guard;
  std::atomic<int> executed{0};
  pool.ParallelFor(
      100,
      [&](size_t index) {
        executed.fetch_add(1, std::memory_order_relaxed);
        if (index == 4) {
          guard.RequestCancel();
        }
      },
      &guard);
  // Inline execution visits indices in order and polls the guard before
  // each item: exactly items 0..4 ran.
  EXPECT_EQ(executed.load(), 5);
  EXPECT_EQ(guard.TripStatus().code(), StatusCode::kCancelled);
}

// ---------------------------------------------------------------------------
// Determinism: a guarded run that does not trip is bit-identical to an
// unguarded one, at any thread count.

TEST(ResourceGuardDeterminismTest, GuardedVerdictsMatchUnguarded) {
  ThreadCountRestorer restore;
  Schema schema = MeetingSchema();
  std::optional<std::vector<bool>> reference;
  for (int threads : {1, 2, 8}) {
    SetGlobalThreadCount(threads);

    Result<Expansion> plain = Expansion::Build(schema);
    ASSERT_TRUE(plain.ok());
    SatisfiabilityChecker unguarded(*plain);
    std::vector<bool> baseline = unguarded.SatisfiableClasses().value();

    ResourceLimits limits;  // Generous: must not trip.
    limits.timeout = std::chrono::milliseconds(60000);
    limits.max_compounds = 1000000;
    limits.max_memory_bytes = std::uint64_t{1} << 30;
    ResourceGuard guard(limits);
    ExpansionOptions options;
    options.guard = &guard;
    Result<Expansion> expansion = Expansion::Build(schema, options);
    ASSERT_TRUE(expansion.ok());
    SatisfiabilityChecker guarded(*expansion);
    std::vector<bool> verdicts = guarded.SatisfiableClasses().value();

    EXPECT_FALSE(guard.tripped());
    EXPECT_EQ(verdicts, baseline) << "threads=" << threads;
    if (!reference.has_value()) {
      reference = baseline;
    } else {
      EXPECT_EQ(baseline, *reference) << "threads=" << threads;
    }
  }
}

// ---------------------------------------------------------------------------
// Partial implication batches.

TEST(ResourceGuardImplicationTest, CheckAllPartialReportsUnknownAfterTrip) {
  Schema schema = MeetingSchema();
  ClassId speaker = schema.FindClass("Speaker").value();
  RelationshipId holds = schema.FindRelationship("Holds").value();
  RoleId u1 = schema.FindRole("U1").value();

  ResourceGuard guard;
  ExpansionOptions options;
  options.guard = &guard;
  CardinalityImplicationEngine engine =
      CardinalityImplicationEngine::Create(schema, speaker, holds, u1,
                                           options)
          .value();
  std::vector<ImplicationQuery> queries;
  for (std::uint64_t bound = 0; bound <= 4; ++bound) {
    queries.push_back({ImplicationQuery::Kind::kMin, bound});
    queries.push_back({ImplicationQuery::Kind::kMax, bound});
  }

  guard.RequestCancel();
  std::vector<ImplicationVerdict> verdicts =
      engine.CheckAllPartial(queries).value();
  ASSERT_EQ(verdicts.size(), queries.size());
  for (const ImplicationVerdict& verdict : verdicts) {
    EXPECT_FALSE(verdict.known());
    EXPECT_EQ(verdict.reason, StatusCode::kCancelled);
  }
  // The strict batch API surfaces the trip as an error.
  Result<std::vector<bool>> strict = engine.CheckAll(queries);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kCancelled);
}

TEST(ResourceGuardImplicationTest, CheckAllPartialMatchesCheckAllUntripped) {
  Schema schema = MeetingSchema();
  ClassId speaker = schema.FindClass("Speaker").value();
  RelationshipId holds = schema.FindRelationship("Holds").value();
  RoleId u1 = schema.FindRole("U1").value();
  CardinalityImplicationEngine engine =
      CardinalityImplicationEngine::Create(schema, speaker, holds, u1)
          .value();
  std::vector<ImplicationQuery> queries;
  for (std::uint64_t bound = 0; bound <= 4; ++bound) {
    queries.push_back({ImplicationQuery::Kind::kMin, bound});
    queries.push_back({ImplicationQuery::Kind::kMax, bound});
  }
  std::vector<bool> strict = engine.CheckAll(queries).value();
  std::vector<ImplicationVerdict> partial =
      engine.CheckAllPartial(queries).value();
  ASSERT_EQ(partial.size(), strict.size());
  for (size_t i = 0; i < strict.size(); ++i) {
    EXPECT_TRUE(partial[i].known()) << "query " << i;
    EXPECT_EQ(partial[i].implied(), strict[i]) << "query " << i;
    EXPECT_EQ(partial[i].reason, StatusCode::kOk) << "query " << i;
  }
}

TEST(ResourceGuardImplicationTest, MidBatchTripKeepsAnsweredPrefix) {
  ThreadCountRestorer restore;
  Schema schema = MeetingSchema();
  ClassId speaker = schema.FindClass("Speaker").value();
  RelationshipId holds = schema.FindRelationship("Holds").value();
  RoleId u1 = schema.FindRole("U1").value();
  std::vector<ImplicationQuery> queries;
  for (std::uint64_t bound = 0; bound <= 4; ++bound) {
    queries.push_back({ImplicationQuery::Kind::kMin, bound});
    queries.push_back({ImplicationQuery::Kind::kMax, bound});
  }
  const std::vector<bool> reference =
      CardinalityImplicationEngine::Create(schema, speaker, holds, u1)
          .value()
          .CheckAll(queries)
          .value();

  // Trips the guard on its `nth` poll after the engine is built and
  // returns how many leading queries kept a definite verdict.
  auto answered_prefix = [&](std::uint64_t nth) -> size_t {
    ResourceGuard guard;
    ExpansionOptions options;
    options.guard = &guard;
    CardinalityImplicationEngine engine =
        CardinalityImplicationEngine::Create(schema, speaker, holds, u1,
                                             options)
            .value();
    ScopedFailpoint trip("guard/trip", nth);
    EXPECT_TRUE(trip.status().ok());
    std::vector<ImplicationVerdict> verdicts =
        engine.CheckAllPartial(queries).value();
    size_t prefix = 0;
    while (prefix < verdicts.size() && verdicts[prefix].known()) {
      EXPECT_EQ(verdicts[prefix].implied(), reference[prefix])
          << "nth=" << nth << " query " << prefix;
      ++prefix;
    }
    for (size_t i = prefix; i < verdicts.size(); ++i) {
      EXPECT_FALSE(verdicts[i].known()) << "nth=" << nth << " query " << i;
      EXPECT_EQ(verdicts[i].reason, StatusCode::kResourceExhausted)
          << "nth=" << nth << " query " << i;
    }
    return prefix;
  };

  // The first poll precedes the first query, so nothing is answered.
  SetGlobalThreadCount(1);
  EXPECT_EQ(answered_prefix(1), 0u);
  // Later trips leave a prefix that grows with `nth`, reaches mid-batch,
  // and is the same at every pool size.
  size_t previous = 0;
  bool mid_batch = false;
  for (std::uint64_t nth = 2; nth <= 64; ++nth) {
    SetGlobalThreadCount(1);
    const size_t prefix = answered_prefix(nth);
    EXPECT_GE(prefix, previous) << "nth=" << nth;
    previous = prefix;
    mid_batch = mid_batch || (prefix > 0 && prefix < queries.size());
    for (int threads : {2, 8}) {
      SetGlobalThreadCount(threads);
      EXPECT_EQ(answered_prefix(nth), prefix)
          << "nth=" << nth << " threads=" << threads;
    }
  }
  EXPECT_TRUE(mid_batch);
}

// ---------------------------------------------------------------------------
// Per-invocation solver stats: a Reset between batches must make the
// counters independent of earlier work (no leak across batches).

TEST(SimplexStatsTest, ResetMakesBatchCountersIndependent) {
  ThreadCountRestorer restore;
  SetGlobalThreadCount(1);  // Deterministic pivot/warm-start counts.
  Schema schema = MeetingSchema();
  ClassId speaker = schema.FindClass("Speaker").value();
  RelationshipId holds = schema.FindRelationship("Holds").value();
  RoleId u1 = schema.FindRole("U1").value();
  std::vector<ImplicationQuery> queries;
  for (std::uint64_t bound = 0; bound <= 3; ++bound) {
    queries.push_back({ImplicationQuery::Kind::kMin, bound});
  }

  auto run_batch = [&]() {
    CardinalityImplicationEngine engine =
        CardinalityImplicationEngine::Create(schema, speaker, holds, u1)
            .value();
    return engine.CheckAll(queries).value();
  };

  SimplexStats& stats = GetSimplexStats();
  stats.Reset();
  EXPECT_EQ(stats.solves.load(), 0u);
  std::vector<bool> first = run_batch();
  std::uint64_t first_solves = stats.solves.load();
  std::uint64_t first_pivots = stats.pivots.load();
  EXPECT_GT(first_solves, 0u);

  stats.Reset();
  std::vector<bool> second = run_batch();
  EXPECT_EQ(second, first);
  EXPECT_EQ(stats.solves.load(), first_solves)
      << "second batch saw counters leaked from the first";
  EXPECT_EQ(stats.pivots.load(), first_pivots);
}

// ---------------------------------------------------------------------------
// Lexer / parser hardening regressions (fuzz findings stay fixed).

TEST(LexerHardeningTest, NonAsciiByteReportedAsHexEscape) {
  Result<NamedSchema> parsed = ParseSchema("schema X { class A\xff; }");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().ToString().find("\\xff"), std::string::npos)
      << parsed.status();
}

TEST(LexerHardeningTest, PrintableByteReportedVerbatim) {
  Result<NamedSchema> parsed = ParseSchema("schema X { class A? }");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().ToString().find("'?'"), std::string::npos)
      << parsed.status();
}

TEST(LexerHardeningTest, UnterminatedSchemaFailsAtEndOfInput) {
  Result<NamedSchema> parsed = ParseSchema("schema X { class A");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().ToString().find("end of input"),
            std::string::npos)
      << parsed.status();
}

TEST(LexerHardeningTest, OverlongNumberRejectedWithoutOverflow) {
  Result<NamedSchema> parsed = ParseSchema(
      "schema X { class A; relationship R(U1: A); "
      "card A in R.U1 = (1, 99999999999999999999999999); }");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().ToString().find("out of range"),
            std::string::npos)
      << parsed.status();
}

TEST(LexerHardeningTest, TokenCursorNeverAdvancesPastEnd) {
  using internal_text::Lexer;
  using internal_text::Token;
  using internal_text::TokenCursor;
  using internal_text::TokenKind;

  std::vector<Token> tokens = Lexer("a b").Tokenize().value();
  TokenCursor cursor(std::move(tokens));
  for (int i = 0; i < 10; ++i) {
    cursor.Consume();  // Far past the two identifiers.
  }
  EXPECT_EQ(cursor.Current().kind, TokenKind::kEnd);
  // Expect* at end-of-input keep failing cleanly instead of walking off.
  EXPECT_FALSE(cursor.ExpectIdentifier("an identifier").ok());
  EXPECT_FALSE(cursor.ExpectNumber("a number").ok());
  EXPECT_FALSE(cursor.ExpectPunct(";").ok());
}

TEST(LexerHardeningTest, EmptyTokenCursorActsAsEndOfInput) {
  using internal_text::Token;
  using internal_text::TokenCursor;
  using internal_text::TokenKind;
  TokenCursor cursor((std::vector<Token>()));
  EXPECT_EQ(cursor.Current().kind, TokenKind::kEnd);
  cursor.Consume();
  EXPECT_EQ(cursor.Current().kind, TokenKind::kEnd);
}

}  // namespace
}  // namespace crsat
