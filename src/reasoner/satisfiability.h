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

/// The maximal support realizable by an *acceptable* solution of a
/// homogeneous system (Section 3.3: a solution is acceptable if every
/// relationship unknown that depends on a zero class unknown is itself
/// zero).
struct AcceptableSupport {
  /// `positive[v]` iff some acceptable solution assigns `v` a positive
  /// value — equivalently (acceptable solutions are closed under addition)
  /// iff the maximum-support acceptable solution does.
  std::vector<bool> positive;
  /// One acceptable solution whose support is exactly `positive`.
  std::vector<Rational> witness;
};

/// A dependency edge: `dependent` must be zero whenever any variable in
/// `depends_on` is zero (the paper's "Var(R) depends on Var(C)").
struct Dependency {
  VarId dependent;
  std::vector<VarId> depends_on;
};

/// Returns a *minimal* solution of `system` whose support is exactly
/// `positive`: support variables are pinned to `>= 1`, the others to 0,
/// and the total is minimized in a single LP. Used to keep integer
/// witnesses (and the models built from them) small — the raw accumulated
/// support witness is a sum of many LP vertices whose denominators
/// multiply up. Falls back to `fallback` if the LP is not optimal (cannot
/// happen for a correct support; defensive).
///
/// `basis_carry`, when non-null, threads a warm-start basis across
/// successive calls on same-shaped pinned systems (the witness
/// synthesizer's repeated syntheses over one expansion): a carried basis
/// skips phase 1, and an optimal solve writes its final basis back. A
/// stale or mismatched carry only costs a rejected warm-start attempt.
Result<std::vector<Rational>> MinimalWitnessForSupport(
    const LinearSystem& system, const std::vector<bool>& positive,
    const std::vector<Rational>& fallback, ResourceGuard* guard = nullptr,
    WarmStartBasis* basis_carry = nullptr);

/// Computes the maximal acceptable support of a homogeneous non-strict
/// `system` under the given dependencies.
///
/// Algorithm (equivalent to Theorem 3.4's subset enumeration, but
/// polynomial in the system size): maintain a set of variables proven zero
/// in every acceptable solution; alternate (a) LP probes marking variables
/// that cannot be positive once the proven-zero ones are pinned, and (b)
/// dependency propagation, until a fixpoint. Acceptable solutions form a
/// cone closed under addition, so the surviving variables are exactly the
/// support of a single (witness) acceptable solution.
///
/// `probe_cache`, when non-null, carries warm-start bases across LP probes
/// — both across the fixpoint's own iterations (whose probe shapes shrink
/// as more variables are pinned; the shape-keyed cache serves each shape
/// family) and across successive calls on related systems (see
/// `ComputeMaximalSupport`). Reuse affects cost only, never verdicts.
///
/// `seed_zero`, when non-null (size = `system.num_variables()`), pre-pins
/// variables already known to be zero in every acceptable solution (e.g.
/// unknowns whose constraint rows force them to zero structurally). The
/// seeds must be sound: the fixpoint would prove them zero anyway, so
/// seeding skips LP rounds without changing the resulting support.
///
/// `guard`, when non-null, bounds the whole fixpoint (it is handed down to
/// every LP probe; see `ComputeMaximalSupport`).
Result<AcceptableSupport> ComputeAcceptableSupport(
    const LinearSystem& system, const std::vector<Dependency>& dependencies,
    WarmStartBasisCache* probe_cache = nullptr, ResourceGuard* guard = nullptr,
    const std::vector<bool>* seed_zero = nullptr);

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
  /// empty and no LP runs. The reference lives as long as the checker.
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
  /// integer solution whose support is the maximal acceptable support.
  /// Feed this to `WitnessSynthesizer::SynthesizeFromSolution` to
  /// materialize an actual database state.
  Result<IntegerSolution> AcceptableIntegerSolution() const;

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
