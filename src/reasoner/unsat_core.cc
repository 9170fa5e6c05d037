#include "src/reasoner/unsat_core.h"

#include <optional>
#include <vector>

#include "src/base/resource_guard.h"
#include "src/baseline/fast_path.h"
#include "src/cr/schema_text.h"
#include "src/reasoner/satisfiability.h"

namespace crsat {

namespace {

// Rebuilds `schema` keeping only the units flagged in `active` (indexed
// like `units`); classes and relationships are always kept.
Result<Schema> WithActiveUnits(const Schema& schema,
                               const std::vector<CoreConstraint>& units,
                               const std::vector<bool>& active) {
  SchemaBuilder builder = schema.ToBuilder();
  // A unit's index is its position in the builder list of its kind, and
  // units list each kind in index order, so erasing back to front keeps
  // the indices still to be erased valid.
  for (size_t i = units.size(); i-- > 0;) {
    if (active[i]) {
      continue;
    }
    const int index = units[i].index;
    switch (units[i].kind) {
      case CoreConstraint::Kind::kIsa:
        builder.isa.erase(builder.isa.begin() + index);
        break;
      case CoreConstraint::Kind::kCardinality:
        builder.cards.erase(builder.cards.begin() + index);
        break;
      case CoreConstraint::Kind::kDisjointness:
        builder.disjointness.erase(builder.disjointness.begin() + index);
        break;
      case CoreConstraint::Kind::kCovering:
        builder.coverings.erase(builder.coverings.begin() + index);
        break;
    }
  }
  if (builder.isa.size() == schema.isa_statements().size()) {
    return builder.Build();
  }
  // Dropping an ISA statement can strip a kept cardinality refinement of
  // its legality (the class is no longer a subclass of the role's primary
  // class); such refinements are dropped along with it, mirroring what a
  // designer deleting the ISA edge would have to do.
  SchemaBuilder hierarchy;
  hierarchy.classes = builder.classes;
  hierarchy.relationships = builder.relationships;
  hierarchy.isa = builder.isa;
  CRSAT_ASSIGN_OR_RETURN(Schema kept_isa, hierarchy.Build());
  std::erase_if(builder.cards, [&kept_isa](const SchemaBuilder::Card& card) {
    const ClassId primary =
        kept_isa.PrimaryClass(*kept_isa.FindRole(card.role));
    return !kept_isa.IsSubclassOf(*kept_isa.FindClass(card.cls), primary);
  });
  return builder.Build();
}

}  // namespace

// Caveat: dropping a cardinality declaration on a *subclass* can only relax
// the schema (declarations are refinements), and dropping any other
// constraint enlarges the model set as well, so deletion is monotone and
// the deletion-based sweep yields a subset-minimal core.
Result<bool> ClassSatisfiableIn(const Schema& schema, ClassId cls,
                                const ExpansionOptions& options) {
  if (options.guard != nullptr) {
    // The Lenzerini-Nobili stage polls nothing, so without this a sweep
    // of ISA-free probes would never notice a deadline.
    CRSAT_RETURN_IF_ERROR(options.guard->CheckNow("unsat_core/probe"));
  }
  // Stage 1: an edit with no ISA, disjointness, covering or refinement is
  // decided by the baseline on one unknown per class and relationship.
  // It answers nothing when `IncrementalReasoningEnabled()` is false.
  CRSAT_ASSIGN_OR_RETURN(std::optional<std::vector<bool>> fast,
                         TryLnSatisfiableClasses(schema));
  if (fast.has_value()) {
    return static_cast<bool>((*fast)[cls.value]);
  }
  // Stage 2: the full expansion. The caller's provably-empty facts were
  // derived for the schema it started from, not for this edit of it.
  ExpansionOptions probe_options = options;
  probe_options.known_empty_classes = nullptr;
  CRSAT_ASSIGN_OR_RETURN(Expansion expansion,
                         Expansion::Build(schema, probe_options));
  SatisfiabilityChecker checker(expansion);
  checker.SetMinimalWitness(false);  // Only the verdict is read.
  return checker.IsClassSatisfiable(cls);
}

Result<UnsatCore> MinimizeUnsatCore(const Schema& schema, ClassId cls,
                                    const ExpansionOptions& options) {
  std::vector<CoreConstraint> units;
  for (size_t i = 0; i < schema.isa_statements().size(); ++i) {
    units.push_back(CoreConstraint{
        CoreConstraint::Kind::kIsa, static_cast<int>(i),
        IsaToText(schema, schema.isa_statements()[i])});
  }
  for (size_t i = 0; i < schema.cardinality_declarations().size(); ++i) {
    units.push_back(CoreConstraint{
        CoreConstraint::Kind::kCardinality, static_cast<int>(i),
        CardinalityToText(schema, schema.cardinality_declarations()[i])});
  }
  for (size_t i = 0; i < schema.disjointness_constraints().size(); ++i) {
    units.push_back(CoreConstraint{
        CoreConstraint::Kind::kDisjointness, static_cast<int>(i),
        DisjointnessToText(schema, schema.disjointness_constraints()[i])});
  }
  for (size_t i = 0; i < schema.covering_constraints().size(); ++i) {
    units.push_back(CoreConstraint{
        CoreConstraint::Kind::kCovering, static_cast<int>(i),
        CoveringToText(schema, schema.covering_constraints()[i])});
  }

  // Deletion is monotone: once a dropped unit leaves `cls` empty in a
  // sub-schema, it is empty in `schema` too. Until then `schema` itself
  // is probed at the first unit the sweep keeps (or after an empty
  // sweep), so a satisfiable class is refused after two probes, not a
  // whole sweep, and a core whose first probe drops a unit skips it.
  bool shown_empty = false;
  auto refuse_if_satisfiable = [&]() -> Status {
    CRSAT_ASSIGN_OR_RETURN(bool satisfiable,
                           ClassSatisfiableIn(schema, cls, options));
    if (satisfiable) {
      return InvalidArgumentError("class '" + schema.ClassName(cls) +
                                  "' is satisfiable; there is no unsat core");
    }
    shown_empty = true;
    return OkStatus();
  };
  std::vector<bool> active(units.size(), true);
  for (size_t i = 0; i < units.size(); ++i) {
    active[i] = false;
    CRSAT_ASSIGN_OR_RETURN(Schema reduced,
                           WithActiveUnits(schema, units, active));
    CRSAT_ASSIGN_OR_RETURN(bool now_satisfiable,
                           ClassSatisfiableIn(reduced, cls, options));
    if (!now_satisfiable) {
      shown_empty = true;
      continue;
    }
    active[i] = true;  // Needed: keep it in the core.
    if (!shown_empty) {
      CRSAT_RETURN_IF_ERROR(refuse_if_satisfiable());
    }
  }
  if (!shown_empty) {
    CRSAT_RETURN_IF_ERROR(refuse_if_satisfiable());
  }

  UnsatCore core;
  for (size_t i = 0; i < units.size(); ++i) {
    if (active[i]) {
      core.constraints.push_back(units[i]);
    }
  }
  return core;
}

}  // namespace crsat
