#ifndef CRSAT_EXPANSION_EXPANSION_H_
#define CRSAT_EXPANSION_EXPANSION_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "src/base/resource_guard.h"
#include "src/base/result.h"
#include "src/cr/schema.h"
#include "src/expansion/compound.h"

namespace crsat {

/// Process-wide counters for the expansion-level pruning. Same policy as
/// `SimplexStats`: relaxed atomics, exact totals, `Reset()` must not race
/// with running builds.
struct ExpansionStats {
  /// Disjointness facts *derived* from cardinality declarations (pairs
  /// `{a, b}` with `minc(a) > maxc(b)` for a shared role), counted once
  /// per `Expansion::Build`.
  std::atomic<std::uint64_t> derived_disjoint_pairs{0};
  /// Enumeration subtrees cut by derived-disjointness / known-empty
  /// pruning (each would have produced at least one compound class that
  /// the disequation system then proved empty the hard way).
  std::atomic<std::uint64_t> pruned_subtrees{0};

  /// Zeroes every counter.
  void Reset();
};

/// Returns a mutable reference to the process-wide expansion counters.
ExpansionStats& GetExpansionStats();

/// A cardinality declaration applied on top of a schema's own declarations
/// (replacing the schema's value for the same triple, if any) when
/// deriving lifted cardinalities. Lets callers probe candidate bounds —
/// the implication engine's gallop/bisection — against one prebuilt
/// expansion: compound-class consistency never depends on cardinalities,
/// so the expansion is reusable across probes.
struct CardinalityOverride {
  ClassId cls;
  RelationshipId rel;
  RoleId role;
  Cardinality cardinality;
};

/// Options controlling expansion construction.
struct ExpansionOptions {
  /// Honor the Section 5 extensions (disjointness, covering) when deciding
  /// compound-class consistency. Disjointness in particular prunes the
  /// expansion dramatically (the paper's Section 5 observation).
  bool use_extensions = true;

  /// Hard caps: `Build` fails with `Unavailable` instead of exhausting
  /// memory when the (intrinsically exponential) expansion exceeds them.
  std::size_t max_consistent_classes = std::size_t{1} << 20;
  std::size_t max_compound_relationships = std::size_t{1} << 22;

  /// Optional per-schema-class "provably empty in every model" facts (from
  /// `ComputeProvablyEmpty`'s fixpoint, src/analysis/empty_classes.h, which
  /// sees rules the local pairwise derivation cannot). Indexed by ClassId;
  /// may be shorter than `num_classes()` (missing entries mean "unknown").
  /// Compounds containing a flagged class are pruned like the
  /// declared-range-empty ones (src/expansion/expansion.cc), while
  /// `IncrementalReasoningEnabled()`. The pointee must outlive
  /// `Build`. The facts must be sound — an unsound entry changes verdicts.
  const std::vector<bool>* known_empty_classes = nullptr;

  /// Optional resource guard (deadline / compound budget / memory budget /
  /// cancellation, src/base/resource_guard.h). Polled throughout expansion
  /// construction, and — because the options travel with the built
  /// `Expansion` — by every reasoning layer downstream of it
  /// (`SatisfiabilityChecker`, the LP probes, the implication engine). The
  /// pointee must outlive the expansion and all reasoning over it; null
  /// means unlimited. A guarded run that does not trip computes exactly
  /// what an unguarded run would.
  ResourceGuard* guard = nullptr;
};

/// The *expansion* of a CR-schema (Definition 3.1): the consistent compound
/// classes, the consistent compound relationships, and the lifted
/// cardinalities. Inconsistent compound objects are never materialized —
/// they are empty in every model (Lemma 3.2, conditions A'/B'), so the
/// disequation system simply has no unknowns for them.
///
/// Enumeration of consistent compound classes is a backtracking search with
/// ISA upward-closure propagation (including a class forces its
/// superclasses in; excluding one forces its subclasses out), plus
/// disjointness pruning in extended mode, so cost is proportional to the
/// number of consistent compound classes rather than to 2^|C|.
class Expansion {
 public:
  /// Builds the expansion of `schema`. Fails if the schema has more than
  /// `CompoundClass::kMaxClasses` classes or the caps are exceeded. An
  /// allocation failure inside the (worst-case exponential) enumeration —
  /// genuine or injected via the `alloc/expansion` failpoint — surfaces
  /// as `kResourceExhausted`, never as an escaped `std::bad_alloc`.
  static Result<Expansion> Build(const Schema& schema,
                                 const ExpansionOptions& options = {});

  const Schema& schema() const { return *schema_; }
  const ExpansionOptions& options() const { return options_; }

  /// Forgets the guard the expansion was built under. An expansion kept
  /// past the request that built it (crsatd's per-session analysis)
  /// calls this, so no later reasoning over it can reach a destroyed
  /// guard; each later consumer passes its own.
  void DetachGuard() { options_.guard = nullptr; }

  /// Consistent compound classes, ascending by mask. Their position in
  /// this vector is their *class index*, used throughout the reasoner.
  const std::vector<CompoundClass>& classes() const { return classes_; }

  /// Index of `compound` among `classes()`, or -1 when it is not a
  /// consistent compound class of this expansion.
  int ClassIndexOf(const CompoundClass& compound) const;

  /// Consistent compound relationships (all relationships interleaved).
  /// Their position is their *relationship index*.
  const std::vector<CompoundRelationship>& relationships() const {
    return relationships_;
  }

  /// Indices (into `relationships()`) of the compound relationships of
  /// `rel`.
  const std::vector<int>& RelationshipIndicesOf(RelationshipId rel) const {
    return relationship_indices_by_rel_[rel.value];
  }

  /// Indices of the compound relationships of `rel` whose component at
  /// role position `position` is the compound class with index
  /// `class_index`. These are exactly the terms of the sums in the
  /// disequation system (Section 3.2).
  const std::vector<int>& RelationshipsWith(RelationshipId rel, int position,
                                            int class_index) const;

  /// Indices of the compound classes containing `cls` (the union defining
  /// `C^I` in Section 3.1, and the sum in Theorem 3.3).
  const std::vector<int>& ClassIndicesContaining(ClassId cls) const {
    return class_indices_containing_[cls.value];
  }

  /// Lifted cardinality of the compound class `class_index` for role
  /// `role` of `rel` (Definition 3.1): max of the member `minc`s and min
  /// of the member `maxc`s, over members that may carry a declaration
  /// (subclasses of the role's primary class). The compound class must
  /// contain the primary class. `overrides`, when non-null, replace the
  /// schema's declarations for matching triples.
  Cardinality LiftedCardinality(
      int class_index, RelationshipId rel, RoleId role,
      const std::vector<CardinalityOverride>* overrides = nullptr) const;

  /// Total number of compound classes, consistent or not (2^|C| - 1).
  std::uint64_t total_compound_class_count() const;

  /// Total number of compound relationships, consistent or not
  /// (sum over R of (2^|C| - 1)^arity(R)), saturating at uint64 max.
  std::uint64_t total_compound_relationship_count() const;

  /// Figure 4-style dump: consistent compound classes, consistent compound
  /// relationships, and all non-default lifted cardinalities.
  std::string ToString() const;

 private:
  Expansion() = default;

  // The body of `Build`, wrapped by the std::bad_alloc ->
  // kResourceExhausted boundary in the public entry point.
  static Result<Expansion> BuildImpl(const Schema& schema,
                                     const ExpansionOptions& options);

  const Schema* schema_ = nullptr;
  ExpansionOptions options_;
  std::vector<CompoundClass> classes_;
  std::map<std::uint64_t, int> class_index_by_mask_;
  std::vector<CompoundRelationship> relationships_;
  std::vector<std::vector<int>> relationship_indices_by_rel_;
  std::vector<std::vector<int>> class_indices_containing_;
  // Keyed by (relationship id, role position, class index).
  std::map<std::tuple<int, int, int>, std::vector<int>> with_lists_;
  std::vector<int> empty_list_;
};

/// Enumerates *all* nonempty compound classes of `schema`, consistent or
/// not, ascending by mask. Exponential by construction; fails for schemas
/// with more than 20 classes. Used to reproduce the paper's Figure 4/5
/// presentation, which lists inconsistent compound objects explicitly.
Result<std::vector<CompoundClass>> AllCompoundClasses(const Schema& schema);

/// Enumerates all compound relationships of `rel` (components range over
/// all nonempty compound classes). Fails when the count would exceed 2^22.
Result<std::vector<CompoundRelationship>> AllCompoundRelationships(
    const Schema& schema, RelationshipId rel);

}  // namespace crsat

#endif  // CRSAT_EXPANSION_EXPANSION_H_
