#include "src/reasoner/implication_engine.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "src/base/incremental.h"
#include "src/base/resource_guard.h"
#include "src/reasoner/satisfiability.h"

namespace crsat {

void ImplicationStats::Reset() {
  dominance_lookups.store(0, std::memory_order_relaxed);
  dominance_hits.store(0, std::memory_order_relaxed);
}

ImplicationStats& GetImplicationStats() {
  static ImplicationStats stats;
  return stats;
}

std::optional<bool> BoundDominanceCache::LookupMin(std::uint64_t min) const {
  if (min <= greatest_implied_min_) {
    return true;
  }
  if (least_refuted_min_.has_value() && min >= *least_refuted_min_) {
    return false;
  }
  return std::nullopt;
}

void BoundDominanceCache::RecordMin(std::uint64_t min, bool implied) {
  if (implied) {
    greatest_implied_min_ = std::max(greatest_implied_min_, min);
  } else {
    least_refuted_min_ =
        std::min(least_refuted_min_.value_or(min), min);
  }
}

std::optional<bool> BoundDominanceCache::LookupMax(std::uint64_t max) const {
  if (least_implied_max_.has_value() && max >= *least_implied_max_) {
    return true;
  }
  if (greatest_refuted_max_.has_value() && max <= *greatest_refuted_max_) {
    return false;
  }
  return std::nullopt;
}

void BoundDominanceCache::RecordMax(std::uint64_t max, bool implied) {
  if (implied) {
    least_implied_max_ =
        std::min(least_implied_max_.value_or(max), max);
  } else {
    greatest_refuted_max_ =
        std::max(greatest_refuted_max_.value_or(max), max);
  }
}

namespace {

std::string FreshClassName(const Schema& schema) {
  std::string name = "__Cexc";
  while (schema.FindClass(name).has_value()) {
    name += "_";
  }
  return name;
}

// Consults a triple's dominance cache for a probe at `bound`; counts the
// lookup and any hit. Returns nullopt (and counts nothing) when the
// incremental paths are disabled.
std::optional<bool> ConsultDominance(const BoundDominanceCache& cache,
                                     ImplicationQuery::Kind kind,
                                     std::uint64_t bound) {
  if (!IncrementalReasoningEnabled()) {
    return std::nullopt;
  }
  ImplicationStats& stats = GetImplicationStats();
  stats.dominance_lookups.fetch_add(1, std::memory_order_relaxed);
  std::optional<bool> verdict = kind == ImplicationQuery::Kind::kMin
                                    ? cache.LookupMin(bound)
                                    : cache.LookupMax(bound);
  if (verdict.has_value()) {
    stats.dominance_hits.fetch_add(1, std::memory_order_relaxed);
  }
  return verdict;
}

}  // namespace

Result<CardinalityImplicationEngine> CardinalityImplicationEngine::Create(
    const Schema& schema, ClassId cls, RelationshipId rel, RoleId role,
    const ExpansionOptions& options) {
  if (schema.RelationshipOf(role) != rel) {
    return InvalidArgumentError("role '" + schema.RoleName(role) +
                                "' does not belong to relationship '" +
                                schema.RelationshipName(rel) + "'");
  }
  if (!schema.IsSubclassOf(cls, schema.PrimaryClass(role))) {
    return InvalidArgumentError(
        "class '" + schema.ClassName(cls) +
        "' is not a subclass of the primary class of role '" +
        schema.RoleName(role) + "'");
  }

  SchemaBuilder builder = schema.ToBuilder();
  std::string aux_name = FreshClassName(schema);
  builder.AddClass(aux_name);
  builder.AddIsa(aux_name, schema.ClassName(cls));
  CRSAT_ASSIGN_OR_RETURN(Schema extended, builder.Build());

  CardinalityImplicationEngine engine;
  engine.extended_schema_ =
      std::make_shared<const Schema>(std::move(extended));
  CRSAT_ASSIGN_OR_RETURN(
      Expansion expansion,
      Expansion::Build(*engine.extended_schema_, options));
  engine.expansion_ =
      std::make_shared<const Expansion>(std::move(expansion));
  engine.aux_class_ = engine.extended_schema_->FindClass(aux_name).value();
  engine.base_class_ =
      engine.extended_schema_->FindClass(schema.ClassName(cls)).value();
  engine.rel_ =
      engine.extended_schema_->FindRelationship(schema.RelationshipName(rel))
          .value();
  engine.role_ =
      engine.extended_schema_->FindRole(schema.RoleName(role)).value();
  engine.aux_targets_ =
      engine.expansion_->ClassIndicesContaining(engine.aux_class_);
  engine.base_targets_ =
      engine.expansion_->ClassIndicesContaining(engine.base_class_);

  // Seed the dominance memo from the bounds declared on cls and its
  // superclasses (within the role's primary hierarchy): every instance of
  // cls is an instance of each such superclass, so a declared
  // `minc(D) = m` / `maxc(D) = n` is implied for cls in every model. This
  // lets gallop/bisection skip the LP for every bound the schema states
  // outright.
  const Schema& ext = *engine.extended_schema_;
  for (ClassId super : ext.AllClasses()) {
    if (!ext.IsSubclassOf(engine.base_class_, super) ||
        !ext.IsSubclassOf(super, ext.PrimaryClass(engine.role_))) {
      continue;
    }
    Cardinality declared = ext.GetCardinality(super, engine.rel_,
                                              engine.role_);
    if (declared.min > 0) {
      engine.dominance_.RecordMin(declared.min, /*implied=*/true);
    }
    if (declared.max.has_value()) {
      engine.dominance_.RecordMax(*declared.max, /*implied=*/true);
    }
  }
  return engine;
}

Result<bool> CardinalityImplicationEngine::AuxiliarySatisfiable(
    Cardinality cardinality) const {
  std::vector<CardinalityOverride> overrides = {
      CardinalityOverride{aux_class_, rel_, role_, cardinality}};
  SatisfiabilityChecker checker(*expansion_, &overrides);
  checker.SetProbeBasisCache(&carry_cache_);
  checker.SetMinimalWitness(false);  // Probes read verdicts only.
  return checker.IsTargetSatisfiable(aux_targets_);
}

Result<bool> CardinalityImplicationEngine::ImpliesMin(
    std::uint64_t min) const {
  if (min == 0) {
    return true;  // Trivial bound.
  }
  if (std::optional<bool> dominated = ConsultDominance(
          dominance_, ImplicationQuery::Kind::kMin, min)) {
    return *dominated;
  }
  Cardinality cardinality;
  cardinality.max = min - 1;
  CRSAT_ASSIGN_OR_RETURN(bool violable, AuxiliarySatisfiable(cardinality));
  if (IncrementalReasoningEnabled()) {
    dominance_.RecordMin(min, !violable);
  }
  return !violable;
}

Result<bool> CardinalityImplicationEngine::ImpliesMax(
    std::uint64_t max) const {
  if (std::optional<bool> dominated = ConsultDominance(
          dominance_, ImplicationQuery::Kind::kMax, max)) {
    return *dominated;
  }
  Cardinality cardinality;
  cardinality.min = max + 1;
  CRSAT_ASSIGN_OR_RETURN(bool violable, AuxiliarySatisfiable(cardinality));
  if (IncrementalReasoningEnabled()) {
    dominance_.RecordMax(max, !violable);
  }
  return !violable;
}

Result<std::vector<bool>> CardinalityImplicationEngine::CheckAll(
    const std::vector<ImplicationQuery>& queries) const {
  CRSAT_ASSIGN_OR_RETURN(std::vector<ImplicationVerdict> verdicts,
                         CheckAllPartial(queries));
  std::vector<bool> implied(queries.size(), false);
  for (size_t i = 0; i < queries.size(); ++i) {
    if (!verdicts[i].known()) {
      // All-or-nothing contract: surface the underlying trip as the
      // batch's error (the guard is necessarily set and tripped here).
      return expansion_->options().guard->TripStatus();
    }
    implied[i] = verdicts[i].implied();
  }
  return implied;
}

Result<std::vector<ImplicationVerdict>>
CardinalityImplicationEngine::CheckAllPartial(
    const std::vector<ImplicationQuery>& queries) const {
  ResourceGuard* guard = expansion_->options().guard;
  std::vector<ImplicationVerdict> verdicts(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    // The poll stops the queries that need no LP (a zero minimum, a
    // dominated bound) too, so every query after a trip is unknown.
    Status status =
        guard != nullptr ? guard->Check("implication/query") : OkStatus();
    if (status.ok()) {
      const ImplicationQuery& query = queries[i];
      Result<bool> probe = query.kind == ImplicationQuery::Kind::kMin
                               ? ImpliesMin(query.bound)
                               : ImpliesMax(query.bound);
      if (probe.ok()) {
        verdicts[i].outcome = *probe
                                  ? ImplicationVerdict::Outcome::kImplied
                                  : ImplicationVerdict::Outcome::kNotImplied;
        continue;
      }
      status = probe.status();
    }
    if (!IsResourceLimitStatus(status.code())) {
      return status;  // Genuine error: fail the batch.
    }
    verdicts[i].reason = status.code();  // Outcome stays kUnknown.
  }
  return verdicts;
}

Result<bool> CardinalityImplicationEngine::IsBaseClassSatisfiable() const {
  if (!base_satisfiable_.has_value()) {
    // The unconstrained auxiliary subclass does not affect the other
    // classes' satisfiability (it can always be empty), so the extended
    // expansion answers for the base schema directly.
    SatisfiabilityChecker checker(*expansion_);
    checker.SetMinimalWitness(false);
    CRSAT_ASSIGN_OR_RETURN(base_satisfiable_,
                           checker.IsTargetSatisfiable(base_targets_));
  }
  return *base_satisfiable_;
}

Status CardinalityImplicationEngine::RequireSatisfiableBaseClass() const {
  CRSAT_ASSIGN_OR_RETURN(bool satisfiable, IsBaseClassSatisfiable());
  if (!satisfiable) {
    return InvalidArgumentError(
        "class '" + extended_schema_->ClassName(base_class_) +
        "' is unsatisfiable; every cardinality bound is vacuously implied");
  }
  return OkStatus();
}

Result<std::uint64_t> CardinalityImplicationEngine::TightestMin() const {
  CRSAT_RETURN_IF_ERROR(RequireSatisfiableBaseClass());
  // Implied-min bounds are downward closed; gallop then bisect for the
  // largest implied one. Termination: the class is satisfiable, so some
  // model realizes a finite per-instance count t, and min = t+1 is not
  // implied.
  std::uint64_t low = 0;  // Highest known implied.
  std::uint64_t high = 1;
  while (true) {
    CRSAT_ASSIGN_OR_RETURN(bool implied, ImpliesMin(high));
    if (!implied) {
      break;
    }
    low = high;
    high *= 2;
  }
  while (high - low > 1) {
    std::uint64_t mid = low + (high - low) / 2;
    CRSAT_ASSIGN_OR_RETURN(bool implied, ImpliesMin(mid));
    if (implied) {
      low = mid;
    } else {
      high = mid;
    }
  }
  return low;
}

Result<std::optional<std::uint64_t>> CardinalityImplicationEngine::TightestMax(
    std::uint64_t search_limit) const {
  CRSAT_RETURN_IF_ERROR(RequireSatisfiableBaseClass());
  CRSAT_ASSIGN_OR_RETURN(bool implied_at_limit, ImpliesMax(search_limit));
  if (!implied_at_limit) {
    return std::optional<std::uint64_t>();  // No bound up to the limit.
  }
  CRSAT_ASSIGN_OR_RETURN(bool implied_zero, ImpliesMax(0));
  if (implied_zero) {
    return std::optional<std::uint64_t>(0);
  }
  std::uint64_t low = 0;
  std::uint64_t high = search_limit;  // Known implied.
  while (high - low > 1) {
    std::uint64_t mid = low + (high - low) / 2;
    CRSAT_ASSIGN_OR_RETURN(bool implied, ImpliesMax(mid));
    if (implied) {
      high = mid;
    } else {
      low = mid;
    }
  }
  return std::optional<std::uint64_t>(high);
}

}  // namespace crsat
