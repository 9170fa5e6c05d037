#include "src/expansion/expansion.h"

#include <algorithm>
#include <new>
#include <utility>

#include "src/base/degradation.h"
#include "src/base/failpoint.h"
#include "src/base/incremental.h"

namespace crsat {

void ExpansionStats::Reset() {
  derived_disjoint_pairs.store(0, std::memory_order_relaxed);
  pruned_subtrees.store(0, std::memory_order_relaxed);
}

ExpansionStats& GetExpansionStats() {
  static ExpansionStats stats;
  return stats;
}

namespace {

// Enumerates consistent compound classes by deciding class membership one
// class at a time, propagating ISA closure in both directions and pruning
// on disjointness conflicts.
class ConsistentClassEnumerator {
 public:
  ConsistentClassEnumerator(const Schema& schema,
                            const ExpansionOptions& options)
      : schema_(schema), options_(options), n_(schema.num_classes()) {
    super_mask_.assign(n_, 0);
    sub_mask_.assign(n_, 0);
    for (int c = 0; c < n_; ++c) {
      for (int d = 0; d < n_; ++d) {
        if (schema.IsSubclassOf(ClassId(c), ClassId(d))) {
          super_mask_[c] |= std::uint64_t{1} << d;
          sub_mask_[d] |= std::uint64_t{1} << c;
        }
      }
    }
    if (options.use_extensions) {
      for (const DisjointnessConstraint& group :
           schema.disjointness_constraints()) {
        std::uint64_t mask = 0;
        for (ClassId cls : group.classes) {
          mask |= std::uint64_t{1} << cls.value;
        }
        disjoint_masks_.push_back(mask);
      }
    }
    if (IncrementalReasoningEnabled()) {
      DeriveEmptinessFacts();
    }
  }

  Result<std::vector<CompoundClass>> Enumerate() {
    result_.clear();
    CRSAT_RETURN_IF_ERROR(Recurse(0, 0, 0));
    std::sort(result_.begin(), result_.end());
    return result_;
  }

 private:
  Status Recurse(int next, std::uint64_t included, std::uint64_t excluded) {
    if (options_.guard != nullptr) {
      CRSAT_RETURN_IF_ERROR(options_.guard->Check("expansion/classes"));
    }
    while (next < n_ &&
           ((included | excluded) & (std::uint64_t{1} << next)) != 0) {
      ++next;
    }
    if (next == n_) {
      if (included == 0) {
        return OkStatus();
      }
      CompoundClass compound(included);
      if (options_.use_extensions) {
        // Disjointness was pruned during the search; coverings are not
        // monotone, so they are checked at the leaves.
        for (const CoveringConstraint& constraint :
             schema_.covering_constraints()) {
          if (!compound.Contains(constraint.covered)) {
            continue;
          }
          bool covered = false;
          for (ClassId coverer : constraint.coverers) {
            if (compound.Contains(coverer)) {
              covered = true;
              break;
            }
          }
          if (!covered) {
            return OkStatus();
          }
        }
      }
      if (result_.size() >= options_.max_consistent_classes) {
        return UnavailableError(
            "expansion exceeds max_consistent_classes = " +
            std::to_string(options_.max_consistent_classes));
      }
      if (options_.guard != nullptr) {
        options_.guard->AddCompounds(1);
        options_.guard->AddMemory(sizeof(CompoundClass));
      }
      result_.push_back(compound);
      return OkStatus();
    }

    // Branch 1: include `next`, along with all its superclasses.
    std::uint64_t with_supers = included | super_mask_[next];
    if ((with_supers & excluded) == 0 && !ViolatesDisjointness(with_supers)) {
      if (ViolatesDerivedEmptiness(with_supers)) {
        // Every compound under this branch is provably empty in every
        // model (Lemma 3.2 applied to derived facts) — cut the subtree
        // before any of its unknowns reach the disequation system.
        GetExpansionStats().pruned_subtrees.fetch_add(
            1, std::memory_order_relaxed);
      } else {
        CRSAT_RETURN_IF_ERROR(Recurse(next + 1, with_supers, excluded));
      }
    }
    // Branch 2: exclude `next`, along with all its subclasses.
    std::uint64_t with_subs = excluded | sub_mask_[next];
    if ((with_subs & included) == 0) {
      CRSAT_RETURN_IF_ERROR(Recurse(next + 1, included, with_subs));
    }
    return OkStatus();
  }

  bool ViolatesDisjointness(std::uint64_t included) const {
    for (std::uint64_t group : disjoint_masks_) {
      if (__builtin_popcountll(included & group) > 1) {
        return true;
      }
    }
    return false;
  }

  // Derives, from cardinality declarations alone, (a) classes empty in
  // every model — an empty declared range `minc(a) > maxc(a)`, or a
  // caller-supplied `known_empty_classes` fact — and (b) disjoint pairs
  // `{a, b}`: distinct subclasses of one role's primary class with
  // `minc(a) > maxc(b)` declared, so any compound containing both has an
  // empty lifted range. This is the paper's Section 5 observation
  // ("Talk ∦ Speaker") turned into an enumeration-time filter: Lemma 3.2
  // applies to such a compound exactly as to an inconsistent one, so
  // pruning it never changes a verdict, it only keeps the disequation
  // system from carrying unknowns the LP would prove zero. Pairwise
  // derivation is complete for declared-range emptiness: an empty lifted
  // range always has a max-of-mins contributor `a` and a min-of-maxes
  // contributor `b` forming such a pair. Runs only while
  // `IncrementalReasoningEnabled()`, so the forced-cold reference path
  // builds the historical expansion.
  //
  // Soundness caveat: the derivation reads the *declared* schema bounds,
  // so callers probing the expansion with `CardinalityOverride`s must only
  // override triples whose declared bounds do not contribute (the
  // implication engine overrides its fresh auxiliary class, whose declared
  // bounds are the default `(0, inf)`) — an override that *relaxed* a
  // declared bound could resurrect a pruned compound.
  void DeriveEmptinessFacts() {
    if (options_.known_empty_classes != nullptr) {
      const std::vector<bool>& known = *options_.known_empty_classes;
      for (int c = 0; c < n_ && c < static_cast<int>(known.size()); ++c) {
        if (known[c]) {
          derived_empty_mask_ |= std::uint64_t{1} << c;
        }
      }
    }
    ExpansionStats& stats = GetExpansionStats();
    for (RelationshipId rel : schema_.AllRelationships()) {
      for (RoleId role : schema_.RolesOf(rel)) {
        ClassId primary = schema_.PrimaryClass(role);
        for (int a = 0; a < n_; ++a) {
          if (!schema_.IsSubclassOf(ClassId(a), primary)) {
            continue;
          }
          Cardinality decl_a = schema_.GetCardinality(ClassId(a), rel, role);
          if (decl_a.min == 0) {
            continue;
          }
          for (int b = 0; b < n_; ++b) {
            if (!schema_.IsSubclassOf(ClassId(b), primary)) {
              continue;
            }
            Cardinality decl_b =
                schema_.GetCardinality(ClassId(b), rel, role);
            if (!decl_b.max.has_value() || *decl_b.max >= decl_a.min) {
              continue;
            }
            if (a == b) {
              derived_empty_mask_ |= std::uint64_t{1} << a;
            } else {
              const std::uint64_t pair =
                  (std::uint64_t{1} << a) | (std::uint64_t{1} << b);
              if (std::find(derived_pair_masks_.begin(),
                            derived_pair_masks_.end(),
                            pair) == derived_pair_masks_.end()) {
                derived_pair_masks_.push_back(pair);
                stats.derived_disjoint_pairs.fetch_add(
                    1, std::memory_order_relaxed);
              }
            }
          }
        }
      }
    }
  }

  bool ViolatesDerivedEmptiness(std::uint64_t included) const {
    if ((included & derived_empty_mask_) != 0) {
      return true;
    }
    for (std::uint64_t pair : derived_pair_masks_) {
      if ((included & pair) == pair) {
        return true;
      }
    }
    return false;
  }

  const Schema& schema_;
  const ExpansionOptions& options_;
  int n_;
  std::vector<std::uint64_t> super_mask_;
  std::vector<std::uint64_t> sub_mask_;
  std::vector<std::uint64_t> disjoint_masks_;
  // Derived facts (see DeriveEmptinessFacts); empty unless pruning is on.
  std::uint64_t derived_empty_mask_ = 0;
  std::vector<std::uint64_t> derived_pair_masks_;
  std::vector<CompoundClass> result_;
};

}  // namespace

Result<Expansion> Expansion::BuildImpl(const Schema& schema,
                                       const ExpansionOptions& options) {
  if (schema.num_classes() > CompoundClass::kMaxClasses) {
    return InvalidArgumentError(
        "expansion supports at most " +
        std::to_string(CompoundClass::kMaxClasses) + " classes, got " +
        std::to_string(schema.num_classes()));
  }
  if (options.guard != nullptr) {
    // Unconditional clock read at the layer boundary, so an
    // already-expired deadline trips before any enumeration starts.
    CRSAT_RETURN_IF_ERROR(options.guard->CheckNow("expansion/build"));
  }
  Expansion expansion;
  expansion.schema_ = &schema;
  expansion.options_ = options;

  ConsistentClassEnumerator enumerator(schema, options);
  CRSAT_ASSIGN_OR_RETURN(expansion.classes_, enumerator.Enumerate());
  for (size_t i = 0; i < expansion.classes_.size(); ++i) {
    expansion.class_index_by_mask_[expansion.classes_[i].mask()] =
        static_cast<int>(i);
  }
  expansion.class_indices_containing_.assign(schema.num_classes(), {});
  for (size_t i = 0; i < expansion.classes_.size(); ++i) {
    for (ClassId cls : expansion.classes_[i].Members()) {
      expansion.class_indices_containing_[cls.value].push_back(
          static_cast<int>(i));
    }
  }

  // Consistent compound relationships: the cartesian product, per
  // relationship, of the consistent compound classes containing the
  // primary class of each role.
  expansion.relationship_indices_by_rel_.assign(schema.num_relationships(),
                                                {});
  for (RelationshipId rel : schema.AllRelationships()) {
    const std::vector<RoleId>& roles = schema.RolesOf(rel);
    std::vector<const std::vector<int>*> candidates;
    candidates.reserve(roles.size());
    bool any_empty = false;
    for (RoleId role : roles) {
      const std::vector<int>& list =
          expansion
              .class_indices_containing_[schema.PrimaryClass(role).value];
      if (list.empty()) {
        any_empty = true;
      }
      candidates.push_back(&list);
    }
    if (any_empty) {
      continue;  // No consistent compound relationship for `rel`.
    }
    std::vector<size_t> odometer(roles.size(), 0);
    while (true) {
      if (expansion.relationships_.size() >=
          options.max_compound_relationships) {
        return UnavailableError(
            "expansion exceeds max_compound_relationships = " +
            std::to_string(options.max_compound_relationships));
      }
      if (options.guard != nullptr) {
        CRSAT_RETURN_IF_ERROR(
            options.guard->Check("expansion/relationships"));
        options.guard->AddCompounds(1);
        options.guard->AddMemory(sizeof(CompoundRelationship) +
                                 roles.size() * sizeof(CompoundClass) +
                                 roles.size() * sizeof(int));
      }
      CompoundRelationship compound;
      compound.rel = rel;
      compound.components.reserve(roles.size());
      int index = static_cast<int>(expansion.relationships_.size());
      for (size_t k = 0; k < roles.size(); ++k) {
        int class_index = (*candidates[k])[odometer[k]];
        compound.components.push_back(expansion.classes_[class_index]);
        expansion
            .with_lists_[std::make_tuple(rel.value, static_cast<int>(k),
                                         class_index)]
            .push_back(index);
      }
      expansion.relationships_.push_back(std::move(compound));
      expansion.relationship_indices_by_rel_[rel.value].push_back(index);
      // Advance the odometer.
      size_t k = 0;
      while (k < roles.size()) {
        if (++odometer[k] < candidates[k]->size()) {
          break;
        }
        odometer[k] = 0;
        ++k;
      }
      if (k == roles.size()) {
        break;
      }
    }
  }
  return expansion;
}

Result<Expansion> Expansion::Build(const Schema& schema,
                                   const ExpansionOptions& options) {
  // Allocation-failure boundary (rung 3 of the degradation ladder): the
  // enumeration is worst-case exponential, so a genuine std::bad_alloc —
  // or the injected `alloc/expansion` fault standing in for one — must
  // become an honest kResourceExhausted refusal here, inside the
  // subsystem, before it can escape a ThreadPool worker and terminate
  // the process.
  try {
    if (CRSAT_FAILPOINT("alloc/expansion")) {
      throw std::bad_alloc();
    }
    return BuildImpl(schema, options);
  } catch (const std::bad_alloc&) {
    GetRecoveryStats().bad_alloc_conversions.fetch_add(
        1, std::memory_order_relaxed);
    return ResourceExhaustedError(
        "expansion: allocation failed; returning UNKNOWN instead of "
        "crashing");
  }
}

int Expansion::ClassIndexOf(const CompoundClass& compound) const {
  auto it = class_index_by_mask_.find(compound.mask());
  return it == class_index_by_mask_.end() ? -1 : it->second;
}

const std::vector<int>& Expansion::RelationshipsWith(RelationshipId rel,
                                                     int position,
                                                     int class_index) const {
  auto it =
      with_lists_.find(std::make_tuple(rel.value, position, class_index));
  return it == with_lists_.end() ? empty_list_ : it->second;
}

Cardinality Expansion::LiftedCardinality(
    int class_index, RelationshipId rel, RoleId role,
    const std::vector<CardinalityOverride>* overrides) const {
  const CompoundClass& compound = classes_[class_index];
  ClassId primary = schema_->PrimaryClass(role);
  Cardinality lifted;  // Starts at the default (0, inf).
  for (ClassId member : compound.Members()) {
    if (!schema_->IsSubclassOf(member, primary)) {
      continue;
    }
    Cardinality declared = schema_->GetCardinality(member, rel, role);
    if (overrides != nullptr) {
      for (const CardinalityOverride& override : *overrides) {
        if (override.cls == member && override.rel == rel &&
            override.role == role) {
          declared = override.cardinality;
          break;
        }
      }
    }
    lifted.min = std::max(lifted.min, declared.min);
    if (declared.max.has_value() &&
        (!lifted.max.has_value() || *declared.max < *lifted.max)) {
      lifted.max = declared.max;
    }
  }
  return lifted;
}

std::uint64_t Expansion::total_compound_class_count() const {
  int n = schema_->num_classes();
  if (n >= 64) {
    return ~std::uint64_t{0};
  }
  return (std::uint64_t{1} << n) - 1;
}

std::uint64_t Expansion::total_compound_relationship_count() const {
  const std::uint64_t all_classes = total_compound_class_count();
  std::uint64_t total = 0;
  for (RelationshipId rel : schema_->AllRelationships()) {
    std::uint64_t product = 1;
    for (size_t k = 0; k < schema_->RolesOf(rel).size(); ++k) {
      if (all_classes != 0 && product > ~std::uint64_t{0} / all_classes) {
        return ~std::uint64_t{0};  // Saturate.
      }
      product *= all_classes;
    }
    if (total > ~std::uint64_t{0} - product) {
      return ~std::uint64_t{0};
    }
    total += product;
  }
  return total;
}

std::string Expansion::ToString() const {
  std::string text = "Consistent compound classes (" +
                     std::to_string(classes_.size()) + "):\n";
  for (size_t i = 0; i < classes_.size(); ++i) {
    text += "  C" + std::to_string(i) + " = " +
            classes_[i].ToString(*schema_) + "\n";
  }
  text += "Consistent compound relationships (" +
          std::to_string(relationships_.size()) + "):\n";
  for (size_t i = 0; i < relationships_.size(); ++i) {
    text += "  R" + std::to_string(i) + " = " +
            relationships_[i].ToString(*schema_) + "\n";
  }
  text += "Lifted cardinalities (non-default):\n";
  for (RelationshipId rel : schema_->AllRelationships()) {
    const std::vector<RoleId>& roles = schema_->RolesOf(rel);
    for (RoleId role : roles) {
      ClassId primary = schema_->PrimaryClass(role);
      for (int class_index :
           class_indices_containing_[primary.value]) {
        Cardinality lifted = LiftedCardinality(class_index, rel, role);
        if (lifted.IsDefault()) {
          continue;
        }
        text += "  card " + classes_[class_index].ToString(*schema_) +
                " in " + schema_->RelationshipName(rel) + "." +
                schema_->RoleName(role) + " = " + lifted.ToString() + "\n";
      }
    }
  }
  return text;
}

Result<std::vector<CompoundClass>> AllCompoundClasses(const Schema& schema) {
  if (schema.num_classes() > 20) {
    return UnavailableError(
        "AllCompoundClasses is exponential and capped at 20 classes");
  }
  std::uint64_t count = (std::uint64_t{1} << schema.num_classes()) - 1;
  std::vector<CompoundClass> result;
  result.reserve(count);
  for (std::uint64_t mask = 1; mask <= count; ++mask) {
    result.push_back(CompoundClass(mask));
  }
  return result;
}

Result<std::vector<CompoundRelationship>> AllCompoundRelationships(
    const Schema& schema, RelationshipId rel) {
  CRSAT_ASSIGN_OR_RETURN(std::vector<CompoundClass> all,
                         AllCompoundClasses(schema));
  const std::vector<RoleId>& roles = schema.RolesOf(rel);
  std::uint64_t count = 1;
  for (size_t k = 0; k < roles.size(); ++k) {
    if (count > (std::uint64_t{1} << 22) / all.size()) {
      return UnavailableError(
          "AllCompoundRelationships result would exceed 2^22 entries");
    }
    count *= all.size();
  }
  std::vector<CompoundRelationship> result;
  result.reserve(count);
  std::vector<size_t> odometer(roles.size(), 0);
  while (true) {
    CompoundRelationship compound;
    compound.rel = rel;
    for (size_t k = 0; k < roles.size(); ++k) {
      compound.components.push_back(all[odometer[k]]);
    }
    result.push_back(std::move(compound));
    size_t k = 0;
    while (k < roles.size()) {
      if (++odometer[k] < all.size()) {
        break;
      }
      odometer[k] = 0;
      ++k;
    }
    if (k == roles.size()) {
      break;
    }
  }
  return result;
}

}  // namespace crsat
