#ifndef CRSAT_CR_SCHEMA_H_
#define CRSAT_CR_SCHEMA_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/base/result.h"
#include "src/cr/ids.h"

namespace crsat {

/// A `(minc, maxc)` pair. `max == std::nullopt` encodes infinity. The
/// default `(0, inf)` is the paper's implicit cardinality (Definition 2.1).
struct Cardinality {
  std::uint64_t min = 0;
  std::optional<std::uint64_t> max;

  /// True iff this is the implicit default `(0, inf)`.
  bool IsDefault() const { return min == 0 && !max.has_value(); }

  /// Renders "(m, n)" with "*" for infinity, matching the ER notation of
  /// the paper's figures.
  std::string ToString() const;

  bool operator==(const Cardinality& other) const {
    return min == other.min && max == other.max;
  }
};

/// An ISA statement `subclass <= superclass` (Sisa in Definition 2.1).
struct IsaStatement {
  ClassId subclass;
  ClassId superclass;

  bool operator==(const IsaStatement& other) const {
    return subclass == other.subclass && superclass == other.superclass;
  }
};

/// A cardinality declaration `minc/maxc(cls, rel, role)`. Legal only when
/// `cls` is (reflexively-transitively) a subclass of the role's primary
/// class; subclass declarations are the paper's *refinements*.
struct CardinalityDeclaration {
  ClassId cls;
  RelationshipId rel;
  RoleId role;
  Cardinality cardinality;
};

/// A pairwise-disjointness group (extension from the paper's Section 5).
struct DisjointnessConstraint {
  std::vector<ClassId> classes;
};

/// A covering constraint: every instance of `covered` is an instance of
/// some class in `coverers` (extension from the paper's Section 5).
struct CoveringConstraint {
  ClassId covered;
  std::vector<ClassId> coverers;
};

class SchemaBuilder;

/// An immutable CR-schema (Definition 2.1): classes, relationships with
/// named roles and primary classes, ISA statements, cardinality
/// declarations, and the Section 5 extensions (disjointness, covering).
///
/// Build instances with `SchemaBuilder`, which validates all
/// well-formedness rules; a constructed `Schema` is always well-formed.
class Schema {
 public:
  int num_classes() const { return static_cast<int>(class_names_.size()); }
  int num_relationships() const {
    return static_cast<int>(relationship_names_.size());
  }
  int num_roles() const { return static_cast<int>(role_names_.size()); }

  const std::string& ClassName(ClassId cls) const {
    return class_names_[cls.value];
  }
  const std::string& RelationshipName(RelationshipId rel) const {
    return relationship_names_[rel.value];
  }
  const std::string& RoleName(RoleId role) const {
    return role_names_[role.value];
  }

  /// Looks up ids by name.
  std::optional<ClassId> FindClass(const std::string& name) const;
  std::optional<RelationshipId> FindRelationship(const std::string& name) const;
  /// Roles are globally unique by name (roles are specific to one
  /// relationship per Definition 2.1).
  std::optional<RoleId> FindRole(const std::string& name) const;

  /// The roles of `rel`, in declaration order. Size is the arity (>= 2).
  const std::vector<RoleId>& RolesOf(RelationshipId rel) const {
    return relationship_roles_[rel.value];
  }

  /// The relationship a role belongs to.
  RelationshipId RelationshipOf(RoleId role) const {
    return role_relationship_[role.value];
  }

  /// The primary class for `role` in its relationship.
  ClassId PrimaryClass(RoleId role) const {
    return role_primary_class_[role.value];
  }

  /// Position of `role` within its relationship's role list.
  int RolePosition(RoleId role) const { return role_position_[role.value]; }

  /// The declared (direct) ISA statements, in declaration order.
  const std::vector<IsaStatement>& isa_statements() const {
    return isa_statements_;
  }

  /// True iff `sub` is a subclass of `super` under the reflexive transitive
  /// closure of the ISA statements (written `sub <=* super` in the paper).
  bool IsSubclassOf(ClassId sub, ClassId super) const {
    return isa_closure_[sub.value][super.value];
  }

  /// All classes `C` with `C <=* cls` (including `cls` itself).
  std::vector<ClassId> SubclassesOf(ClassId cls) const;

  /// All classes `C` with `cls <=* C` (including `cls` itself).
  std::vector<ClassId> SuperclassesOf(ClassId cls) const;

  /// The declared cardinality for `(cls, rel, role)`, or the implicit
  /// default `(0, inf)` when none was declared. `cls` need not be a legal
  /// refinement holder; the default is returned for any triple.
  Cardinality GetCardinality(ClassId cls, RelationshipId rel,
                             RoleId role) const;

  /// All explicit cardinality declarations, in declaration order.
  const std::vector<CardinalityDeclaration>& cardinality_declarations() const {
    return cardinality_declarations_;
  }

  const std::vector<DisjointnessConstraint>& disjointness_constraints() const {
    return disjointness_constraints_;
  }
  const std::vector<CoveringConstraint>& covering_constraints() const {
    return covering_constraints_;
  }

  /// True iff some disjointness group contains both classes.
  bool AreDeclaredDisjoint(ClassId a, ClassId b) const;

  /// All class ids `0 .. num_classes()-1`.
  std::vector<ClassId> AllClasses() const;
  /// All relationship ids.
  std::vector<RelationshipId> AllRelationships() const;

  /// Returns a builder whose lists hold this schema's declarations, index
  /// for index (see `SchemaBuilder`), so callers can derive edited
  /// schemas.
  SchemaBuilder ToBuilder() const;

 private:
  friend class SchemaBuilder;

  Schema() = default;

  std::vector<std::string> class_names_;
  std::vector<std::string> relationship_names_;
  std::vector<std::string> role_names_;
  std::map<std::string, ClassId> class_by_name_;
  std::map<std::string, RelationshipId> relationship_by_name_;
  std::map<std::string, RoleId> role_by_name_;

  std::vector<std::vector<RoleId>> relationship_roles_;
  std::vector<RelationshipId> role_relationship_;
  std::vector<ClassId> role_primary_class_;
  std::vector<int> role_position_;

  std::vector<IsaStatement> isa_statements_;
  // isa_closure_[a][b] == true iff a <=* b.
  std::vector<std::vector<bool>> isa_closure_;

  std::vector<CardinalityDeclaration> cardinality_declarations_;
  // Keyed by (class, relationship, role) values.
  std::map<std::tuple<int, int, int>, Cardinality> cardinality_by_key_;

  std::vector<DisjointnessConstraint> disjointness_constraints_;
  std::vector<CoveringConstraint> covering_constraints_;
};

/// Incremental, validating builder for `Schema`, and the one editable
/// form of a schema.
///
/// Usage:
///
///   SchemaBuilder builder;
///   ClassId speaker = builder.AddClass("Speaker");
///   ClassId talk = builder.AddClass("Talk");
///   RelationshipId holds = builder.AddRelationship(
///       "Holds", {{"U1", "Speaker"}, {"U2", "Talk"}}).value();
///   builder.AddIsa("Discussant", "Speaker");
///   builder.SetCardinality("Speaker", "Holds", "U1", {1, std::nullopt});
///   Result<Schema> schema = builder.Build();
///
/// Declarations are kept as name-based lists, resolved lazily at
/// `Build()`, so they can reference classes introduced later. Errors
/// accumulate and are reported together by `Build()`.
///
/// The lists are public: schema surgery (unsat-core minimization, repair
/// search, the conformance minimizer, the metamorphic rewrites) takes
/// `Schema::ToBuilder()`, edits or erases entries, and calls `Build()`
/// again. On a well-formed schema `Build()` keeps every declaration, in
/// order, so entry `i` of each list is entry `i` of the matching `Schema`
/// accessor (`AllClasses`, `AllRelationships`, `isa_statements`,
/// `cardinality_declarations`, `disjointness_constraints`,
/// `covering_constraints`) both before and after the round trip.
class SchemaBuilder {
 public:
  struct Relationship {
    std::string name;
    /// (role name, primary class name) in declaration order.
    std::vector<std::pair<std::string, std::string>> roles;
  };
  struct Isa {
    std::string subclass;
    std::string superclass;
  };
  struct Card {
    std::string cls;
    std::string rel;
    std::string role;
    Cardinality cardinality;
  };
  struct Cover {
    std::string covered;
    std::vector<std::string> coverers;
  };

  SchemaBuilder() = default;

  /// Declares a class. Re-declaring the same name is an error (reported at
  /// Build). Returns the id the class will have.
  ClassId AddClass(const std::string& name);

  /// Declares a relationship with `(role name, primary class name)` pairs.
  /// Arity must be >= 2 and role names globally unique (checked at Build).
  RelationshipId AddRelationship(
      const std::string& name,
      const std::vector<std::pair<std::string, std::string>>& roles);

  /// Declares `subclass <= superclass`.
  void AddIsa(const std::string& subclass, const std::string& superclass);

  /// Declares `minc/maxc(cls, rel, role) = cardinality`. The class must be
  /// a (transitive, reflexive) subclass of the role's primary class.
  void SetCardinality(const std::string& cls, const std::string& rel,
                      const std::string& role, Cardinality cardinality);

  /// Declares the classes pairwise disjoint (Section 5 extension).
  void AddDisjointness(const std::vector<std::string>& group);

  /// Declares that `covered`'s extension is contained in the union of the
  /// coverers' extensions (Section 5 extension).
  void AddCovering(const std::string& covered,
                   const std::vector<std::string>& coverers);

  /// When enabled, `Build()` accepts cardinality declarations with
  /// `max < min`. Such a declaration forces its class empty (no instance
  /// can satisfy the bounds); downstream reasoning handles it soundly, and
  /// the lint engine's `empty-range` rule reports it. Off by default so
  /// programmatic construction keeps failing fast on what is almost always
  /// a typo.
  void set_permit_empty_ranges(bool permit) { permit_empty_ranges_ = permit; }

  /// Validates all declarations and produces the schema. Reports every
  /// detected problem in one error message.
  Result<Schema> Build() const;

  std::vector<std::string> classes;
  std::vector<Relationship> relationships;
  std::vector<Isa> isa;
  std::vector<Card> cards;
  std::vector<std::vector<std::string>> disjointness;
  std::vector<Cover> coverings;

 private:
  bool permit_empty_ranges_ = false;
};

}  // namespace crsat

#endif  // CRSAT_CR_SCHEMA_H_
