#ifndef CRSAT_REASONER_IMPLICATION_H_
#define CRSAT_REASONER_IMPLICATION_H_

#include <cstdint>
#include <optional>

#include "src/base/result.h"
#include "src/cr/schema.h"
#include "src/expansion/expansion.h"
#include "src/reasoner/satisfiability.h"

namespace crsat {

/// Decision procedures for logical implication in CR (Section 4): does
/// every finite model of a schema satisfy a given ISA or cardinality
/// statement? All reduce to class-satisfiability checks, exactly as in the
/// paper:
///
///  * `S |= C <= D` iff no acceptable solution makes a compound class
///    containing `C` but not `D` positive;
///  * `S |= minc(C,R,U) = m` iff a fresh subclass `Cexc <= C` constrained
///    by `maxc(Cexc,R,U) = m-1` is unsatisfiable in the extended schema;
///  * `S |= maxc(C,R,U) = n` iff `Cexc` with `minc(Cexc,R,U) = n+1` is
///    unsatisfiable.
///
/// The ISA family (`ImpliesIsa`, `ImpliedIsaClosure`, `ImpliesDisjointness`,
/// `ImpliesCovering`) needs no schema change, so it reads the maximal
/// acceptable support of a `checker` the caller built over the schema's
/// expansion: acceptable solutions are closed under sums, so one support
/// answers every target. These functions build nothing; when the
/// checker's support is already computed (see `commands::Analysis`) each
/// query is a lookup with no LP. Cardinality implication extends the
/// schema with `Cexc` and so builds its own engine.
class ImplicationChecker {
 public:
  /// True iff every finite model of the checker's schema satisfies
  /// `sub <= super`.
  static Result<bool> ImpliesIsa(const SatisfiabilityChecker& checker,
                                 ClassId sub, ClassId super);

  /// True iff in every finite model, every instance of `cls` appears in at
  /// least `min` tuples of `rel` at `role`. `cls` must be a subclass of the
  /// role's primary class.
  static Result<bool> ImpliesMinCardinality(
      const Schema& schema, ClassId cls, RelationshipId rel, RoleId role,
      std::uint64_t min, const ExpansionOptions& options = {});

  /// True iff in every finite model, every instance of `cls` appears in at
  /// most `max` tuples of `rel` at `role`.
  static Result<bool> ImpliesMaxCardinality(
      const Schema& schema, ClassId cls, RelationshipId rel, RoleId role,
      std::uint64_t max, const ExpansionOptions& options = {});

  /// The largest implied minimum cardinality for `(cls, rel, role)` — the
  /// tightest lower bound the schema forces, which can be stronger than any
  /// declared bound (the paper's Figure 7 derives minc refinements through
  /// ISA interaction). Requires `cls` to be satisfiable (otherwise every
  /// bound is vacuously implied; an `InvalidArgument` explains this).
  static Result<std::uint64_t> TightestImpliedMin(
      const Schema& schema, ClassId cls, RelationshipId rel, RoleId role,
      const ExpansionOptions& options = {});

  /// The smallest implied maximum cardinality, searching up to
  /// `search_limit`; `nullopt` when no bound up to the limit is implied
  /// (in particular when the true bound is infinity). Requires `cls`
  /// satisfiable, as above.
  static Result<std::optional<std::uint64_t>> TightestImpliedMax(
      const Schema& schema, ClassId cls, RelationshipId rel, RoleId role,
      std::uint64_t search_limit = 64, const ExpansionOptions& options = {});

  /// The complete implied-ISA relation: `result[c][d]` iff
  /// `S |= C_c <= C_d`. Computed from a *single* maximal-acceptable-support
  /// pass: `c <= d` is implied exactly when no supported compound class
  /// contains `c` without `d`. Always a superset of the declared
  /// reflexive-transitive closure; Figure 7's `Speaker <= Discussant` is an
  /// implied-but-undeclared edge, and unsatisfiable classes are vacuously
  /// below every class.
  static Result<std::vector<std::vector<bool>>> ImpliedIsaClosure(
      const SatisfiabilityChecker& checker);

  /// True iff every finite model keeps `a` and `b` disjoint (the Section 5
  /// extension as a *derived* property): no supported compound class
  /// contains both. Implied vacuously when either class is unsatisfiable.
  static Result<bool> ImpliesDisjointness(
      const SatisfiabilityChecker& checker, ClassId a, ClassId b);

  /// True iff in every finite model each instance of `covered` belongs to
  /// some class in `coverers`: no supported compound class contains
  /// `covered` but none of the coverers.
  static Result<bool> ImpliesCovering(const SatisfiabilityChecker& checker,
                                      ClassId covered,
                                      const std::vector<ClassId>& coverers);
};

/// One row of an implied-cardinality report: a legal `(class, relationship,
/// role)` triple with its declared and tightest implied bounds.
struct ImpliedCardinalityRow {
  ClassId cls;
  RelationshipId rel;
  RoleId role;
  Cardinality declared;
  /// Implied bounds; `implied_max` is nullopt when no bound up to the
  /// report's search limit is implied. Absent entirely (see `vacuous`) for
  /// unsatisfiable classes, where every bound holds vacuously.
  std::uint64_t implied_min = 0;
  std::optional<std::uint64_t> implied_max;
  bool vacuous = false;
};

/// Computes, for every legal refinement triple of the schema (every class
/// under every role's primary class), the tightest implied cardinalities —
/// the machine-generated generalization of the paper's Figure 7 table.
/// `search_limit` caps the implied-max search per triple. One
/// `CardinalityImplicationEngine` is built per triple, so cost is
/// O(#triples * log(bound)) satisfiability checks.
Result<std::vector<ImpliedCardinalityRow>> BuildImpliedCardinalityReport(
    const Schema& schema, std::uint64_t search_limit = 16,
    const ExpansionOptions& options = {});

/// Renders a report as an aligned text table.
std::string ImpliedCardinalityReportToString(
    const Schema& schema, const std::vector<ImpliedCardinalityRow>& rows);

}  // namespace crsat

#endif  // CRSAT_REASONER_IMPLICATION_H_
