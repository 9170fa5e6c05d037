#ifndef CRSAT_REASONER_UNSAT_CORE_H_
#define CRSAT_REASONER_UNSAT_CORE_H_

#include <string>
#include <vector>

#include "src/base/result.h"
#include "src/cr/schema.h"
#include "src/expansion/expansion.h"

namespace crsat {

/// A constraint of a schema, as a removable unit for core minimization.
struct CoreConstraint {
  enum class Kind {
    kIsa,
    kCardinality,
    kDisjointness,
    kCovering,
  };
  Kind kind;
  /// Index into the corresponding declaration list of the schema, which
  /// is also the index into the matching list of `Schema::ToBuilder()`.
  int index;
  /// Human-readable rendering, e.g. "isa Discussant < Speaker" or
  /// "card Talk in Holds.U2 = (1, 1)".
  std::string description;
};

/// A minimal explanation of why a class is unsatisfiable.
struct UnsatCore {
  /// Constraints that jointly force the class empty; removing any one of
  /// them makes the class satisfiable (subset-minimality).
  std::vector<CoreConstraint> constraints;
};

/// Computes a *minimal unsatisfiable core* for an unsatisfiable class: a
/// subset-minimal set of constraints (ISA statements, cardinality
/// declarations, disjointness groups, covering constraints) whose presence
/// keeps the class unsatisfiable. This implements the "schema debugging"
/// support sketched in the paper's Section 5 ("a technique that provides
/// the designer with a minimum number of constraints that are
/// unsatisfiable").
///
/// Deletion-based minimization: each constraint is tentatively dropped;
/// if the class stays unsatisfiable the constraint is discarded for good,
/// otherwise it is part of the core. Cost: one `ClassSatisfiableIn` probe
/// per constraint, plus one on `schema` itself unless the first deletion
/// leaves the class empty: deletion is monotone, so a class that stays
/// empty after some deletion is empty in `schema` too, and otherwise
/// `schema` is probed at the first constraint the sweep keeps. Fails with
/// `InvalidArgument` if `cls` is satisfiable in `schema` to begin with,
/// after two probes (the first deletion and `schema`), or one when there
/// is no constraint to delete.
///
/// `options.guard` bounds the whole sweep: a trip returns the guard's
/// status, never a partial core. `options.known_empty_classes` is ignored:
/// those facts hold for `schema`, not for the edits of it that the probes
/// check (an edit can make a provably-empty class satisfiable again).
Result<UnsatCore> MinimizeUnsatCore(const Schema& schema, ClassId cls,
                                    const ExpansionOptions& options = {});

/// One probe of the core minimizer and of the repair search
/// (src/reasoner/repair.h): decides whether `cls` is satisfiable in
/// `schema`. The probed schemas are edits of the original, taken with
/// `Schema::ToBuilder()`, so class ids carry over.
///
/// A probe first polls `options.guard` at the `unsat_core/probe` site. An
/// ISA-free `schema` is then decided by the Lenzerini-Nobili baseline
/// (`TryLnSatisfiableClasses`, src/baseline/fast_path.h) without an
/// expansion; any other schema, or every schema when
/// `IncrementalReasoningEnabled()` is false, is expanded under `options`
/// and checked by a `SatisfiabilityChecker`. Both stages give the same
/// verdict. `options.known_empty_classes` is ignored (see
/// `MinimizeUnsatCore`).
Result<bool> ClassSatisfiableIn(const Schema& schema, ClassId cls,
                                const ExpansionOptions& options);

}  // namespace crsat

#endif  // CRSAT_REASONER_UNSAT_CORE_H_
