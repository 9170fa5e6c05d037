#include "src/reasoner/repair.h"

#include <functional>
#include <utility>

#include "src/cr/schema_text.h"

namespace crsat {

namespace {

// Decides whether the class becomes satisfiable when the declaration
// under repair carries the candidate bounds instead of its own.
using EditProbe = std::function<Result<bool>(const Cardinality& candidate)>;

std::string DescribeRelax(const Schema& schema,
                          const CardinalityDeclaration& decl,
                          const Cardinality& relaxed) {
  return "relax " + CardinalityToText(schema, decl) + " to " +
         relaxed.ToString();
}

// Largest lowered `min` that restores satisfiability, if any (monotone:
// lowering `min` only adds models).
Result<std::optional<Cardinality>> SearchRelaxedMin(
    const CardinalityDeclaration& decl, const EditProbe& works_with) {
  if (decl.cardinality.min == 0) {
    return std::optional<Cardinality>();
  }
  Cardinality fully_relaxed = decl.cardinality;
  fully_relaxed.min = 0;
  CRSAT_ASSIGN_OR_RETURN(bool works_at_zero, works_with(fully_relaxed));
  if (!works_at_zero) {
    return std::optional<Cardinality>();
  }
  std::uint64_t low = 0;                        // Known to work.
  std::uint64_t high = decl.cardinality.min;    // Known to fail (original).
  while (high - low > 1) {
    std::uint64_t mid = low + (high - low) / 2;
    Cardinality candidate = decl.cardinality;
    candidate.min = mid;
    CRSAT_ASSIGN_OR_RETURN(bool works, works_with(candidate));
    if (works) {
      low = mid;
    } else {
      high = mid;
    }
  }
  Cardinality relaxed = decl.cardinality;
  relaxed.min = low;
  return std::optional<Cardinality>(relaxed);
}

// Smallest raised `max` that restores satisfiability, if any. Tries
// infinity first (monotone), then gallops/bisects for the least raise.
Result<std::optional<Cardinality>> SearchRelaxedMax(
    const CardinalityDeclaration& decl, const EditProbe& works_with) {
  if (!decl.cardinality.max.has_value()) {
    return std::optional<Cardinality>();
  }
  Cardinality unbounded = decl.cardinality;
  unbounded.max.reset();
  CRSAT_ASSIGN_OR_RETURN(bool works_unbounded, works_with(unbounded));
  if (!works_unbounded) {
    return std::optional<Cardinality>();
  }
  // Gallop for a finite raised bound that works.
  std::uint64_t original = *decl.cardinality.max;
  std::uint64_t step = 1;
  std::uint64_t low = original;  // Known to fail.
  std::optional<std::uint64_t> high;
  constexpr std::uint64_t kFiniteSearchCap = 1 << 16;
  while (original + step <= kFiniteSearchCap) {
    Cardinality candidate = decl.cardinality;
    candidate.max = original + step;
    CRSAT_ASSIGN_OR_RETURN(bool works, works_with(candidate));
    if (works) {
      high = original + step;
      break;
    }
    low = original + step;
    step *= 2;
  }
  if (!high.has_value()) {
    return std::optional<Cardinality>(unbounded);  // Only infinity works.
  }
  while (*high - low > 1) {
    std::uint64_t mid = low + (*high - low) / 2;
    Cardinality candidate = decl.cardinality;
    candidate.max = mid;
    CRSAT_ASSIGN_OR_RETURN(bool works, works_with(candidate));
    if (works) {
      high = mid;
    } else {
      low = mid;
    }
  }
  Cardinality relaxed = decl.cardinality;
  relaxed.max = high;
  return std::optional<Cardinality>(relaxed);
}

}  // namespace

Result<std::vector<RepairSuggestion>> SuggestRepairs(
    const Schema& schema, ClassId cls, const UnsatCore& core,
    const ExpansionOptions& options) {
  std::vector<RepairSuggestion> suggestions;
  for (const CoreConstraint& constraint : core.constraints) {
    if (constraint.kind != CoreConstraint::Kind::kCardinality) {
      RepairSuggestion suggestion;
      suggestion.constraint = constraint;
      suggestion.action = RepairSuggestion::Action::kRemove;
      suggestion.description = "remove " + constraint.description;
      suggestions.push_back(std::move(suggestion));
      continue;
    }
    const CardinalityDeclaration& decl =
        schema.cardinality_declarations()[constraint.index];
    const EditProbe works_with =
        [&](const Cardinality& candidate) -> Result<bool> {
      SchemaBuilder builder = schema.ToBuilder();
      builder.cards[constraint.index].cardinality = candidate;
      CRSAT_ASSIGN_OR_RETURN(Schema edited, builder.Build());
      return ClassSatisfiableIn(edited, cls, options);
    };
    CRSAT_ASSIGN_OR_RETURN(std::optional<Cardinality> relaxed_min,
                           SearchRelaxedMin(decl, works_with));
    if (relaxed_min.has_value()) {
      RepairSuggestion suggestion;
      suggestion.constraint = constraint;
      suggestion.action = RepairSuggestion::Action::kRelaxMin;
      suggestion.relaxed = relaxed_min;
      suggestion.description = DescribeRelax(schema, decl, *relaxed_min);
      suggestions.push_back(std::move(suggestion));
    }
    CRSAT_ASSIGN_OR_RETURN(std::optional<Cardinality> relaxed_max,
                           SearchRelaxedMax(decl, works_with));
    if (relaxed_max.has_value()) {
      RepairSuggestion suggestion;
      suggestion.constraint = constraint;
      suggestion.action = RepairSuggestion::Action::kRelaxMax;
      suggestion.relaxed = relaxed_max;
      suggestion.description = DescribeRelax(schema, decl, *relaxed_max);
      suggestions.push_back(std::move(suggestion));
    }
    if (!relaxed_min.has_value() && !relaxed_max.has_value()) {
      // No single-bound relaxation helps; fall back to removal (which
      // works by core minimality).
      RepairSuggestion suggestion;
      suggestion.constraint = constraint;
      suggestion.action = RepairSuggestion::Action::kRemove;
      suggestion.description = "remove " + constraint.description;
      suggestions.push_back(std::move(suggestion));
    }
  }
  return suggestions;
}

}  // namespace crsat
