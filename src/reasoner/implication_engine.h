#ifndef CRSAT_REASONER_IMPLICATION_ENGINE_H_
#define CRSAT_REASONER_IMPLICATION_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/base/result.h"
#include "src/cr/schema.h"
#include "src/expansion/expansion.h"
#include "src/lp/simplex.h"

namespace crsat {

/// Process-wide counters for the probe-layer memoization. Same policy as
/// `SimplexStats`: relaxed atomics, exact totals, `Reset()` must not race
/// with running queries.
struct ImplicationStats {
  /// Dominance-cache consultations by `ImpliesMin`/`ImpliesMax` probes
  /// (only counted while `IncrementalReasoningEnabled()`).
  std::atomic<std::uint64_t> dominance_lookups{0};
  /// Subset of `dominance_lookups` answered without an LP solve.
  std::atomic<std::uint64_t> dominance_hits{0};

  /// Zeroes every counter.
  void Reset();
};

/// Returns a mutable reference to the process-wide probe-layer counters.
ImplicationStats& GetImplicationStats();

/// Monotone memo over one triple's probed bounds, exploiting the dominance
/// lattice of cardinality implication: implied-min bounds are downward
/// closed (if `minc >= m` is implied, so is every `m' <= m`) and
/// implied-max bounds are upward closed — so each refutation is likewise
/// monotone on the opposite side (a refuted `minc >= m` refutes every
/// `m' >= m`; a refuted `maxc <= n` refutes every `n' <= n`). Four stored
/// frontiers answer every dominated query without an LP solve. Recorded
/// facts must be sound (true implication verdicts, or declared-bound seeds
/// that hold in every model): then every answer equals the LP's.
/// Thread-compatible, like the engine that owns it.
class BoundDominanceCache {
 public:
  /// The cached verdict for `S |= minc = min`, or nullopt if undominated.
  std::optional<bool> LookupMin(std::uint64_t min) const;
  /// Records an LP verdict for `minc = min`.
  void RecordMin(std::uint64_t min, bool implied);
  /// The cached verdict for `S |= maxc = max`, or nullopt if undominated.
  std::optional<bool> LookupMax(std::uint64_t max) const;
  /// Records an LP verdict for `maxc = max`.
  void RecordMax(std::uint64_t max, bool implied);

 private:
  // Frontiers; the gaps between them are the undecided band.
  std::uint64_t greatest_implied_min_ = 0;
  std::optional<std::uint64_t> least_refuted_min_;
  std::optional<std::uint64_t> least_implied_max_;
  std::optional<std::uint64_t> greatest_refuted_max_;
};

/// One cardinality-implication question against an engine's triple: does
/// the schema imply `minc = bound` (kMin) or `maxc = bound` (kMax)?
struct ImplicationQuery {
  enum class Kind { kMin, kMax };
  Kind kind = Kind::kMin;
  std::uint64_t bound = 0;
};

/// Per-query answer of `CheckAllPartial`: a definite verdict, or `kUnknown`
/// when a resource limit stopped that query's probe before it finished.
struct ImplicationVerdict {
  enum class Outcome { kImplied, kNotImplied, kUnknown };
  Outcome outcome = Outcome::kUnknown;
  /// For `kUnknown`, the limit that interfered (`kDeadlineExceeded`,
  /// `kResourceExhausted`, or `kCancelled`); `kOk` for definite verdicts.
  StatusCode reason = StatusCode::kOk;

  bool known() const { return outcome != Outcome::kUnknown; }
  bool implied() const { return outcome == Outcome::kImplied; }
};

/// Answers repeated cardinality-implication questions for one
/// `(class, relationship, role)` triple.
///
/// The paper's Section 4 reduction adds a fresh subclass `Cexc <= cls`
/// carrying the candidate bound and asks whether `Cexc` is satisfiable.
/// The expensive part — building the expansion of the extended schema —
/// does not depend on the candidate bound at all (compound-class
/// consistency only looks at ISA/disjointness/covering), so this engine
/// builds the extended schema and its expansion *once* and re-derives only
/// the (cheap) disequation system per probe, via `CardinalityOverride`.
/// Gallop/bisection queries (`ImplicationChecker::TightestImplied{Min,Max}`)
/// and repair search go through here.
///
/// Thread-compatible, like `SatisfiabilityChecker`: queries mutate the
/// engine's warm-start carry, dominance memo and base-class verdict, so
/// one engine serves one thread at a time. Its work does not depend on the
/// pool size.
class CardinalityImplicationEngine {
 public:
  /// Validates the triple (role must belong to `rel`, `cls` must be a
  /// subclass of the role's primary class) and builds the extended
  /// expansion. The schema is copied; the engine is self-contained.
  static Result<CardinalityImplicationEngine> Create(
      const Schema& schema, ClassId cls, RelationshipId rel, RoleId role,
      const ExpansionOptions& options = {});

  /// True iff `S |= minc(cls, rel, role) = min`.
  Result<bool> ImpliesMin(std::uint64_t min) const;

  /// True iff `S |= maxc(cls, rel, role) = max`.
  Result<bool> ImpliesMax(std::uint64_t max) const;

  /// Batched form: answers every query in order, as `ImpliesMin` /
  /// `ImpliesMax` would one at a time. Every query is the same LP with one
  /// override row changed, so each warm starts from the previous one's
  /// basis. On any probe error the first error (in query order) is
  /// returned.
  Result<std::vector<bool>> CheckAll(
      const std::vector<ImplicationQuery>& queries) const;

  /// Resource-aware batched form. Like `CheckAll`, but when the engine's
  /// expansion carries a `ResourceGuard` (see `ExpansionOptions::guard`)
  /// and it trips mid-batch, the call *succeeds* and reports per-query
  /// verdicts: queries answered before the trip keep their definite
  /// answers; the rest come back `kUnknown` with the tripped limit as
  /// `reason`. The guard is polled before each query, so a trip stops
  /// even the queries that need no LP. Genuine (non-resource) probe errors
  /// still fail the whole call with the first error in query order.
  Result<std::vector<ImplicationVerdict>> CheckAllPartial(
      const std::vector<ImplicationQuery>& queries) const;

  /// True iff `cls` itself is satisfiable in the base schema (bounds are
  /// vacuously implied otherwise). Computed once per engine; a
  /// resource-limit failure is returned but not remembered.
  Result<bool> IsBaseClassSatisfiable() const;

  /// Largest implied minimum (see `ImplicationChecker::TightestImpliedMin`;
  /// requires a satisfiable class).
  Result<std::uint64_t> TightestMin() const;

  /// Smallest implied maximum up to `search_limit`, or nullopt.
  Result<std::optional<std::uint64_t>> TightestMax(
      std::uint64_t search_limit = 64) const;

 private:
  CardinalityImplicationEngine() = default;

  // Satisfiability of Cexc under an override bound on it. Successive
  // probes alternate between a handful of system shapes (only the
  // overridden bound's coefficients change within a shape), so
  // `carry_cache_` reuses a previous probe's optimal basis as-is or
  // dual-repaired instead of a cold phase 1.
  Result<bool> AuxiliarySatisfiable(Cardinality cardinality) const;

  // Fails with the `InvalidArgument` the tightest-bound searches report
  // when `cls` is unsatisfiable.
  Status RequireSatisfiableBaseClass() const;

  // The extended schema and its expansion; unique_ptr keeps the expansion's
  // schema pointer stable across moves.
  std::shared_ptr<const Schema> extended_schema_;
  std::shared_ptr<const Expansion> expansion_;
  ClassId aux_class_;
  ClassId base_class_;
  RelationshipId rel_;
  RoleId role_;
  std::vector<int> aux_targets_;   // Compound classes containing Cexc.
  std::vector<int> base_targets_;  // Compound classes containing cls.
  // Warm-start bases carried across this engine's probes.
  mutable WarmStartBasisCache carry_cache_;
  // The triple's dominance memo. Seeded in `Create` from the declared
  // bounds of `cls`'s superclasses — sound, since declared constraints
  // hold in every model. Consulted only while
  // `IncrementalReasoningEnabled()`.
  mutable BoundDominanceCache dominance_;
  // `IsBaseClassSatisfiable`'s definite verdict, once known.
  mutable std::optional<bool> base_satisfiable_;
};

}  // namespace crsat

#endif  // CRSAT_REASONER_IMPLICATION_ENGINE_H_
