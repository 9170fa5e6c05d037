#ifndef CRSAT_REASONER_REPAIR_H_
#define CRSAT_REASONER_REPAIR_H_

#include <optional>
#include <string>
#include <vector>

#include "src/base/result.h"
#include "src/cr/schema.h"
#include "src/expansion/expansion.h"
#include "src/reasoner/unsat_core.h"

namespace crsat {

/// One way to make an unsatisfiable class satisfiable again by editing a
/// single constraint from its unsat core.
struct RepairSuggestion {
  enum class Action {
    /// Drop the constraint entirely (the only option for ISA,
    /// disjointness, and covering constraints).
    kRemove,
    /// Lower a cardinality declaration's `min` to `relaxed`.
    kRelaxMin,
    /// Raise a cardinality declaration's `max` to `relaxed` (or infinity).
    kRelaxMax,
  };

  /// The core constraint being edited.
  CoreConstraint constraint;
  Action action;
  /// The *least* relaxed replacement bound that restores satisfiability
  /// (present for kRelaxMin / kRelaxMax).
  std::optional<Cardinality> relaxed;
  /// Human-readable, e.g.
  /// "relax card C in R.V1 = (2, *) to (1, *)".
  std::string description;
};

/// Computes repair suggestions for an unsatisfiable class from its
/// minimal unsatisfiable core `core` (`MinimizeUnsatCore(schema, cls,
/// options)`, which callers usually print too, so it is computed once):
/// for every core constraint the *smallest* single edit that restores the
/// class is searched — the largest still-working lowered `min` and the
/// smallest raised `max` for cardinality declarations (satisfiability is
/// monotone in each direction, so bisection applies), and plain removal
/// otherwise. This realizes the Section 5 "schema debugging" programme:
/// not just *why* the class is empty, but the nearest schemas in which it
/// is not.
///
/// Every candidate edit is one `ClassSatisfiableIn` probe
/// (src/reasoner/unsat_core.h), so `options` is handled as there: a guard
/// trip returns the guard's status, never a partial list, and
/// `options.known_empty_classes` is ignored, because the facts hold for
/// `schema` and not for its edits.
Result<std::vector<RepairSuggestion>> SuggestRepairs(
    const Schema& schema, ClassId cls, const UnsatCore& core,
    const ExpansionOptions& options = {});

}  // namespace crsat

#endif  // CRSAT_REASONER_REPAIR_H_
