#ifndef CRSAT_REASONER_SATISFIABILITY_H_
#define CRSAT_REASONER_SATISFIABILITY_H_

#include <optional>
#include <utility>
#include <vector>

#include "src/base/result.h"
#include "src/lp/homogeneous.h"
#include "src/math/bigint.h"
#include "src/reasoner/system_builder.h"

namespace crsat {

/// An acceptable solution of Psi_S scaled to nonnegative integers.
struct IntegerSolution {
  /// Instance count per consistent compound class (expansion class index).
  std::vector<BigInt> class_counts;
  /// Tuple count per consistent compound relationship.
  std::vector<BigInt> rel_counts;
};

/// Decision procedure for (finite) class satisfiability in CR
/// (Theorem 3.3). Builds Psi_S once and computes the maximal acceptable
/// support lazily; all queries are then lookups that read the cached
/// support in place.
class SatisfiabilityChecker {
 public:
  /// The expansion must outlive the checker. `overrides`, when non-null,
  /// replace the schema's cardinality declarations for matching triples
  /// when Psi_S is derived (used by the implication engine to probe
  /// candidate bounds against one shared expansion).
  explicit SatisfiabilityChecker(
      const Expansion& expansion,
      const std::vector<CardinalityOverride>* overrides = nullptr);

  const CrSystem& cr_system() const { return cr_system_; }
  const Expansion& expansion() const { return *expansion_; }

  /// The maximal acceptable support of Psi_S, computed on the first call
  /// and cached, a failure included. That first computation runs under
  /// `guard`, or under the expansion's guard when `guard` is null; later
  /// calls return the cached result whatever guard they pass. When every
  /// schema class is known empty (`SetKnownEmptyClasses`) the support is
  /// empty and no LP runs. Its `witness` is the minimal one unless
  /// `SetMinimalWitness(false)` was called. The reference lives as long as
  /// the checker.
  const Result<AcceptableSupport>& Support(
      ResourceGuard* guard = nullptr) const;

  /// Theorem 3.3: true iff `cls` can be populated in some finite model.
  Result<bool> IsClassSatisfiable(ClassId cls) const;

  /// One flag per schema class; a single support computation answers all.
  Result<std::vector<bool>> SatisfiableClasses() const;

  /// Generalized target query: is there an acceptable solution with
  /// `sum of Var(compound class i) > 0` over the given expansion class
  /// indices? (`IsClassSatisfiable` is the target "all compound classes
  /// containing cls"; ISA implication uses "containing C but not D".)
  Result<bool> IsTargetSatisfiable(
      const std::vector<int>& target_class_indices) const;

  /// The support witness scaled to integers: an acceptable nonnegative
  /// integer solution whose support is the maximal acceptable support,
  /// minimal unless `SetMinimalWitness(false)` was called. No LP runs
  /// beyond `Support(guard)`. The acceptability side-condition (a zero
  /// compound-class count forces every dependent relationship count to
  /// zero) is re-verified on the integers; a failure is a pipeline bug and
  /// returns `kInternal`. `scale_stats`, when non-null, records which
  /// arithmetic tier scaled. Feed the result to
  /// `WitnessSynthesizer::SynthesizeFromSolution` to materialize an actual
  /// database state.
  Result<IntegerSolution> AcceptableIntegerSolution(
      ResourceGuard* guard = nullptr,
      IntegerScaleStats* scale_stats = nullptr) const;

  /// The dependency edges of Psi_S (each relationship unknown depends on
  /// its component class unknowns).
  const std::vector<Dependency>& dependencies() const { return dependencies_; }

  /// Marks classes already proven unsatisfiable by a cheaper pre-LP pass
  /// (the lint engine's structural empty-class fixpoint,
  /// src/analysis/empty_classes.h). Queries about these classes
  /// short-circuit to "unsatisfiable" without triggering the support
  /// computation; other classes are unaffected. The hints must be sound —
  /// only pass facts that hold in every finite model. Indexed by ClassId;
  /// may be shorter than `num_classes()` (missing entries mean "unknown").
  void SetKnownEmptyClasses(std::vector<bool> known_empty) {
    known_empty_ = std::move(known_empty);
  }

  /// Threads a warm-start basis cache through the (single, cached) support
  /// computation: every LP probe offers the cache entry matching its shape
  /// and feasible probes write their final bases back. Intended for callers
  /// that build many short-lived checkers over the same expansion with
  /// slightly different cardinality overrides (the implication engine's
  /// bisection); a stale entry is either repaired by dual pivots or costs
  /// one rejected warm-start attempt. The pointee must outlive the first
  /// `Support()` call; pass before any query.
  void SetProbeBasisCache(WarmStartBasisCache* cache) { probe_cache_ = cache; }

  /// Whether the support computation also yields the minimal witness (on
  /// by default; see `ComputeAcceptableSupport`). Callers that only read
  /// verdicts (the unsat core and repair probes, the implication engine)
  /// turn it off: the cover LP's second stage costs them pivots and buys
  /// nothing. Pass before any query.
  void SetMinimalWitness(bool minimal_witness) {
    minimal_witness_ = minimal_witness;
  }

 private:
  bool IsKnownEmpty(ClassId cls) const {
    return cls.value >= 0 &&
           cls.value < static_cast<int>(known_empty_.size()) &&
           known_empty_[cls.value];
  }

  // The support computation behind `Support`.
  Result<AcceptableSupport> ComputeSupport(ResourceGuard* guard) const;

  // Per compound class, true when it is structurally forced empty: its own
  // lifted cardinality range is empty (`CrSystem::empty_class_compounds`)
  // or it contains a schema class from `known_empty_`. Sound facts — both
  // sources hold in every finite model — so seeding the support fixpoint
  // with them (and short-circuiting all-dead target queries) changes LP
  // work, never verdicts. Computed lazily; only consulted when
  // `IncrementalReasoningEnabled()`.
  const std::vector<bool>& StructurallyDeadCompounds() const;

  const Expansion* expansion_;
  CrSystem cr_system_;
  std::vector<Dependency> dependencies_;
  std::vector<bool> known_empty_;
  // Thread confinement (not a lock): a `SatisfiabilityChecker` is
  // *thread-compatible*, not thread-safe — `Support()` mutates the
  // lazily-cached `support_`/`dead_compounds_` and the cache behind
  // `probe_cache_`, so a checker (and any `WarmStartBasisCache` it uses)
  // must be confined to one thread at a time. `Support()` itself runs on
  // the calling thread only. There is deliberately no mutex here —
  // callers that want concurrent queries build one checker per thread
  // over the shared (immutable) expansion.
  WarmStartBasisCache* probe_cache_ = nullptr;
  bool minimal_witness_ = true;
  mutable std::optional<std::vector<bool>> dead_compounds_;
  mutable std::optional<Result<AcceptableSupport>> support_;
};

/// Reference implementation of Theorem 3.4: decides target satisfiability
/// by enumerating every subset Z of the class unknowns and checking
/// feasibility of Psi_Z. Exponential in the number of consistent compound
/// classes (capped at 16); exists to cross-validate the fixpoint engine in
/// tests.
Result<bool> IsTargetSatisfiableByEnumeration(
    const CrSystem& cr_system, const std::vector<Dependency>& dependencies,
    const std::vector<int>& target_class_indices);

}  // namespace crsat

#endif  // CRSAT_REASONER_SATISFIABILITY_H_
