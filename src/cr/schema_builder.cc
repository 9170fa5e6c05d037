#include <algorithm>
#include <set>
#include <utility>

#include "src/cr/schema.h"

namespace crsat {

ClassId SchemaBuilder::AddClass(const std::string& name) {
  classes.push_back(name);
  return ClassId(static_cast<int>(classes.size()) - 1);
}

RelationshipId SchemaBuilder::AddRelationship(
    const std::string& name,
    const std::vector<std::pair<std::string, std::string>>& roles) {
  relationships.push_back(Relationship{name, roles});
  return RelationshipId(static_cast<int>(relationships.size()) - 1);
}

void SchemaBuilder::AddIsa(const std::string& subclass,
                           const std::string& superclass) {
  isa.push_back(Isa{subclass, superclass});
}

void SchemaBuilder::SetCardinality(const std::string& cls,
                                   const std::string& rel,
                                   const std::string& role,
                                   Cardinality cardinality) {
  cards.push_back(Card{cls, rel, role, cardinality});
}

void SchemaBuilder::AddDisjointness(const std::vector<std::string>& group) {
  disjointness.push_back(group);
}

void SchemaBuilder::AddCovering(const std::string& covered,
                                const std::vector<std::string>& coverers) {
  coverings.push_back(Cover{covered, coverers});
}

SchemaBuilder Schema::ToBuilder() const {
  SchemaBuilder builder;
  builder.classes = class_names_;
  for (size_t r = 0; r < relationship_names_.size(); ++r) {
    SchemaBuilder::Relationship& relationship =
        builder.relationships.emplace_back();
    relationship.name = relationship_names_[r];
    for (RoleId role : relationship_roles_[r]) {
      relationship.roles.emplace_back(
          role_names_[role.value],
          class_names_[role_primary_class_[role.value].value]);
    }
  }
  for (const IsaStatement& statement : isa_statements_) {
    builder.isa.push_back(
        {ClassName(statement.subclass), ClassName(statement.superclass)});
  }
  for (const CardinalityDeclaration& decl : cardinality_declarations_) {
    builder.cards.push_back({ClassName(decl.cls), RelationshipName(decl.rel),
                             RoleName(decl.role), decl.cardinality});
  }
  for (const DisjointnessConstraint& group : disjointness_constraints_) {
    std::vector<std::string>& names = builder.disjointness.emplace_back();
    for (ClassId cls : group.classes) {
      names.push_back(ClassName(cls));
    }
  }
  for (const CoveringConstraint& constraint : covering_constraints_) {
    SchemaBuilder::Cover& cover = builder.coverings.emplace_back();
    cover.covered = ClassName(constraint.covered);
    for (ClassId cls : constraint.coverers) {
      cover.coverers.push_back(ClassName(cls));
    }
  }
  return builder;
}

Result<Schema> SchemaBuilder::Build() const {
  Schema schema;
  std::vector<std::string> errors;

  // Classes.
  for (const std::string& name : classes) {
    if (name.empty()) {
      errors.push_back("class with empty name");
      continue;
    }
    ClassId id(static_cast<int>(schema.class_names_.size()));
    if (!schema.class_by_name_.emplace(name, id).second) {
      errors.push_back("duplicate class name '" + name + "'");
      continue;
    }
    schema.class_names_.push_back(name);
  }

  auto resolve_class = [&](const std::string& name,
                           const std::string& context) -> std::optional<ClassId> {
    auto it = schema.class_by_name_.find(name);
    if (it == schema.class_by_name_.end()) {
      errors.push_back(context + ": unknown class '" + name + "'");
      return std::nullopt;
    }
    return it->second;
  };

  // Relationships and roles.
  for (const Relationship& pending : relationships) {
    if (pending.name.empty()) {
      errors.push_back("relationship with empty name");
      continue;
    }
    RelationshipId rel_id(static_cast<int>(schema.relationship_names_.size()));
    if (!schema.relationship_by_name_.emplace(pending.name, rel_id).second) {
      errors.push_back("duplicate relationship name '" + pending.name + "'");
      continue;
    }
    if (pending.roles.size() < 2) {
      errors.push_back("relationship '" + pending.name +
                       "' must have arity >= 2 (Definition 2.1)");
      // Still register it so later name lookups don't cascade, but with the
      // roles it has.
    }
    schema.relationship_names_.push_back(pending.name);
    schema.relationship_roles_.emplace_back();
    for (const auto& [role_name, class_name] : pending.roles) {
      if (role_name.empty()) {
        errors.push_back("relationship '" + pending.name +
                         "' has a role with empty name");
        continue;
      }
      RoleId role_id(static_cast<int>(schema.role_names_.size()));
      if (!schema.role_by_name_.emplace(role_name, role_id).second) {
        errors.push_back(
            "role name '" + role_name +
            "' reused; roles must be specific to one relationship "
            "(Definition 2.1)");
        continue;
      }
      std::optional<ClassId> primary = resolve_class(
          class_name, "relationship '" + pending.name + "', role '" +
                          role_name + "'");
      schema.role_names_.push_back(role_name);
      schema.role_relationship_.push_back(rel_id);
      schema.role_primary_class_.push_back(primary.value_or(ClassId(0)));
      schema.role_position_.push_back(
          static_cast<int>(schema.relationship_roles_[rel_id.value].size()));
      schema.relationship_roles_[rel_id.value].push_back(role_id);
    }
  }

  // ISA statements and reflexive-transitive closure (Floyd-Warshall style;
  // schemas are small and the closure is queried heavily downstream).
  const int n = schema.num_classes();
  schema.isa_closure_.assign(n, std::vector<bool>(n, false));
  for (int c = 0; c < n; ++c) {
    schema.isa_closure_[c][c] = true;
  }
  for (const Isa& pending : isa) {
    std::optional<ClassId> sub = resolve_class(pending.subclass, "isa");
    std::optional<ClassId> super = resolve_class(pending.superclass, "isa");
    if (!sub.has_value() || !super.has_value()) {
      continue;
    }
    schema.isa_statements_.push_back(IsaStatement{*sub, *super});
    schema.isa_closure_[sub->value][super->value] = true;
  }
  for (int k = 0; k < n; ++k) {
    for (int i = 0; i < n; ++i) {
      if (!schema.isa_closure_[i][k]) {
        continue;
      }
      for (int j = 0; j < n; ++j) {
        if (schema.isa_closure_[k][j]) {
          schema.isa_closure_[i][j] = true;
        }
      }
    }
  }

  // Cardinality declarations.
  for (const Card& pending : cards) {
    std::optional<ClassId> cls =
        resolve_class(pending.cls, "cardinality declaration");
    auto rel_it = schema.relationship_by_name_.find(pending.rel);
    if (rel_it == schema.relationship_by_name_.end()) {
      errors.push_back("cardinality declaration: unknown relationship '" +
                       pending.rel + "'");
      continue;
    }
    auto role_it = schema.role_by_name_.find(pending.role);
    if (role_it == schema.role_by_name_.end()) {
      errors.push_back("cardinality declaration: unknown role '" +
                       pending.role + "'");
      continue;
    }
    if (!cls.has_value()) {
      continue;
    }
    RelationshipId rel = rel_it->second;
    RoleId role = role_it->second;
    if (schema.RelationshipOf(role) != rel) {
      errors.push_back("cardinality declaration: role '" + pending.role +
                       "' does not belong to relationship '" + pending.rel +
                       "'");
      continue;
    }
    ClassId primary = schema.PrimaryClass(role);
    if (!schema.IsSubclassOf(*cls, primary)) {
      errors.push_back(
          "cardinality declaration on ('" + pending.cls + "', '" +
          pending.rel + "', '" + pending.role + "'): class must be a "
          "subclass of the role's primary class '" +
          schema.ClassName(primary) + "' (Definition 2.1)");
      continue;
    }
    if (!permit_empty_ranges_ && pending.cardinality.max.has_value() &&
        *pending.cardinality.max < pending.cardinality.min) {
      errors.push_back("cardinality declaration on ('" + pending.cls +
                       "', '" + pending.rel + "', '" + pending.role +
                       "'): max < min");
      continue;
    }
    auto key = std::make_tuple(cls->value, rel.value, role.value);
    if (!schema.cardinality_by_key_.emplace(key, pending.cardinality).second) {
      errors.push_back("duplicate cardinality declaration on ('" +
                       pending.cls + "', '" + pending.rel + "', '" +
                       pending.role + "')");
      continue;
    }
    schema.cardinality_declarations_.push_back(
        CardinalityDeclaration{*cls, rel, role, pending.cardinality});
  }

  // Disjointness groups.
  for (const std::vector<std::string>& pending : disjointness) {
    if (pending.size() < 2) {
      errors.push_back("disjointness group needs at least two classes");
      continue;
    }
    DisjointnessConstraint group;
    std::set<int> seen;
    bool valid = true;
    for (const std::string& name : pending) {
      std::optional<ClassId> cls = resolve_class(name, "disjointness");
      if (!cls.has_value()) {
        valid = false;
        continue;
      }
      if (!seen.insert(cls->value).second) {
        errors.push_back("disjointness group repeats class '" + name + "'");
        valid = false;
        continue;
      }
      group.classes.push_back(*cls);
    }
    if (valid) {
      schema.disjointness_constraints_.push_back(std::move(group));
    }
  }

  // Covering constraints.
  for (const Cover& pending : coverings) {
    std::optional<ClassId> covered = resolve_class(pending.covered, "cover");
    if (pending.coverers.empty()) {
      errors.push_back("covering of '" + pending.covered +
                       "' needs at least one coverer");
      continue;
    }
    CoveringConstraint constraint;
    bool valid = covered.has_value();
    if (covered.has_value()) {
      constraint.covered = *covered;
    }
    for (const std::string& name : pending.coverers) {
      std::optional<ClassId> cls = resolve_class(name, "cover");
      if (!cls.has_value()) {
        valid = false;
        continue;
      }
      constraint.coverers.push_back(*cls);
    }
    if (valid) {
      schema.covering_constraints_.push_back(std::move(constraint));
    }
  }

  if (!errors.empty()) {
    std::string message = "schema validation failed:";
    for (const std::string& error : errors) {
      message += "\n  - " + error;
    }
    return InvalidArgumentError(std::move(message));
  }
  return schema;
}

}  // namespace crsat
