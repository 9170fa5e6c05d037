#include "src/oracle/metamorphic.h"

#include <algorithm>
#include <utility>

#include "src/base/deterministic.h"

namespace crsat {

namespace {

/// A fresh class name not already declared.
std::string FreshClassName(const SchemaBuilder& parts,
                           const std::string& stem) {
  int suffix = static_cast<int>(parts.classes.size());
  while (true) {
    std::string candidate = stem + std::to_string(suffix);
    if (std::find(parts.classes.begin(), parts.classes.end(), candidate) ==
        parts.classes.end()) {
      return candidate;
    }
    ++suffix;
  }
}

// Each rule edits a copy of the parts and reports its verdict relation;
// returning false means "not applicable to this schema" (skipped, not an
// error). Rules must never remove or reorder classes: the contract maps
// original class ids onto themselves, with fresh classes appended.

bool RenameEntities(const Schema&, SchemaBuilder* parts, DeterministicRng*) {
  auto rename = [](std::string* name) { *name = "m_" + *name; };
  for (std::string& name : parts->classes) {
    rename(&name);
  }
  for (SchemaBuilder::Relationship& relationship : parts->relationships) {
    rename(&relationship.name);
    for (auto& [role_name, class_name] : relationship.roles) {
      rename(&role_name);
      rename(&class_name);
    }
  }
  for (SchemaBuilder::Isa& isa : parts->isa) {
    rename(&isa.subclass);
    rename(&isa.superclass);
  }
  for (SchemaBuilder::Card& card : parts->cards) {
    rename(&card.cls);
    rename(&card.rel);
    rename(&card.role);
  }
  for (std::vector<std::string>& group : parts->disjointness) {
    for (std::string& name : group) {
      rename(&name);
    }
  }
  for (SchemaBuilder::Cover& cover : parts->coverings) {
    rename(&cover.covered);
    for (std::string& name : cover.coverers) {
      rename(&name);
    }
  }
  return true;
}

bool PermuteRoles(const Schema&, SchemaBuilder* parts,
                  DeterministicRng* rng) {
  if (parts->relationships.empty()) {
    return false;
  }
  for (SchemaBuilder::Relationship& relationship : parts->relationships) {
    const int arity = static_cast<int>(relationship.roles.size());
    // Rotate by a nonzero offset: tuples are stored per role order, so
    // this genuinely permutes every extension's component layout.
    std::rotate(relationship.roles.begin(),
                relationship.roles.begin() + rng->UniformInt(1, arity - 1 > 0
                                                                    ? arity - 1
                                                                    : 1),
                relationship.roles.end());
  }
  return true;
}

bool RelaxCardinalities(const Schema&, SchemaBuilder* parts,
                        DeterministicRng* rng) {
  if (parts->cards.empty()) {
    return false;
  }
  for (SchemaBuilder::Card& card : parts->cards) {
    card.cardinality.min = static_cast<std::uint64_t>(
        rng->UniformInt(0, static_cast<int>(card.cardinality.min)));
    if (card.cardinality.max.has_value()) {
      if (rng->Coin(0.4)) {
        card.cardinality.max.reset();  // Relax to "no maximum".
      } else {
        *card.cardinality.max += static_cast<std::uint64_t>(
            rng->UniformInt(0, 2));
      }
    }
  }
  return true;
}

bool TightenCardinalities(const Schema&, SchemaBuilder* parts,
                          DeterministicRng* rng) {
  if (parts->cards.empty()) {
    return false;
  }
  for (SchemaBuilder::Card& card : parts->cards) {
    Cardinality& cardinality = card.cardinality;
    if (cardinality.max.has_value()) {
      const int low = static_cast<int>(cardinality.min);
      const int high = static_cast<int>(*cardinality.max);
      const int new_min = rng->UniformInt(low, high);
      cardinality.min = static_cast<std::uint64_t>(new_min);
      cardinality.max = static_cast<std::uint64_t>(
          rng->UniformInt(new_min, high));
    } else {
      cardinality.min += static_cast<std::uint64_t>(rng->UniformInt(0, 2));
      if (rng->Coin(0.3)) {
        // A finite maximum is strictly tighter than none.
        cardinality.max =
            cardinality.min + static_cast<std::uint64_t>(
                                  rng->UniformInt(0, 2));
      }
    }
  }
  return true;
}

bool InterposeIsaChain(const Schema&, SchemaBuilder* parts,
                       DeterministicRng* rng) {
  if (parts->isa.empty()) {
    return false;
  }
  const int edge = rng->UniformInt(
      0, static_cast<int>(parts->isa.size()) - 1);
  const std::string middle = FreshClassName(*parts, "Mid");
  const std::string subclass = parts->isa[edge].subclass;
  const std::string superclass = parts->isa[edge].superclass;
  parts->classes.push_back(middle);
  parts->isa[edge] = {subclass, middle};
  parts->isa.push_back({middle, superclass});
  return true;
}

bool InsertRedundantIsa(const Schema& schema, SchemaBuilder* parts,
                        DeterministicRng* rng) {
  // Candidate pairs: sub <=* super holds transitively but no direct edge
  // is declared (adding one is then semantically implied — a no-op).
  std::vector<std::pair<int, int>> candidates;
  for (ClassId sub : schema.AllClasses()) {
    for (ClassId super : schema.AllClasses()) {
      if (sub == super || !schema.IsSubclassOf(sub, super)) {
        continue;
      }
      bool declared = false;
      for (const IsaStatement& isa : schema.isa_statements()) {
        declared = declared ||
                   (isa.subclass == sub && isa.superclass == super);
      }
      if (!declared) {
        candidates.emplace_back(sub.value, super.value);
      }
    }
  }
  if (candidates.empty()) {
    return false;
  }
  const auto& [sub, super] = candidates[rng->UniformInt(
      0, static_cast<int>(candidates.size()) - 1)];
  parts->isa.push_back({parts->classes[sub], parts->classes[super]});
  return true;
}

bool GraftDeadClass(const Schema&, SchemaBuilder* parts,
                    DeterministicRng* rng) {
  const std::string dead = FreshClassName(*parts, "Dead");
  const int anchor = rng->UniformInt(
      0, static_cast<int>(parts->classes.size()) - 1);
  parts->isa.push_back({dead, parts->classes[anchor]});
  parts->classes.push_back(dead);
  return true;
}

bool DuplicateDisjointness(const Schema&, SchemaBuilder* parts,
                           DeterministicRng* rng) {
  if (parts->disjointness.empty()) {
    return false;
  }
  const int group = rng->UniformInt(
      0, static_cast<int>(parts->disjointness.size()) - 1);
  parts->disjointness.push_back(parts->disjointness[group]);
  return true;
}

struct Rule {
  const char* name;
  VerdictRelation relation;
  bool (*apply)(const Schema&, SchemaBuilder*, DeterministicRng*);
};

constexpr Rule kRules[] = {
    {"rename-entities", VerdictRelation::kEquisatisfiable, RenameEntities},
    {"permute-roles", VerdictRelation::kEquisatisfiable, PermuteRoles},
    {"relax-cardinalities", VerdictRelation::kSatPreserved,
     RelaxCardinalities},
    {"tighten-cardinalities", VerdictRelation::kUnsatPreserved,
     TightenCardinalities},
    {"interpose-isa-chain", VerdictRelation::kEquisatisfiable,
     InterposeIsaChain},
    {"insert-redundant-isa", VerdictRelation::kEquisatisfiable,
     InsertRedundantIsa},
    {"graft-dead-class", VerdictRelation::kEquisatisfiable, GraftDeadClass},
    {"duplicate-disjointness", VerdictRelation::kEquisatisfiable,
     DuplicateDisjointness},
};

}  // namespace

const char* VerdictRelationToString(VerdictRelation relation) {
  switch (relation) {
    case VerdictRelation::kEquisatisfiable:
      return "equisatisfiable";
    case VerdictRelation::kSatPreserved:
      return "sat-preserved";
    case VerdictRelation::kUnsatPreserved:
      return "unsat-preserved";
  }
  return "unknown";
}

std::vector<std::string> MetamorphicRuleNames() {
  std::vector<std::string> names;
  for (const Rule& rule : kRules) {
    names.emplace_back(rule.name);
  }
  return names;
}

Result<std::vector<MutatedSchema>> ApplyMetamorphicRules(
    const Schema& schema, std::uint32_t seed) {
  std::vector<MutatedSchema> mutants;
  const SchemaBuilder original = schema.ToBuilder();
  for (size_t r = 0; r < std::size(kRules); ++r) {
    const Rule& rule = kRules[r];
    // One independent stream per rule, so skipping an inapplicable rule
    // never shifts the draws of the next one.
    DeterministicRng rng(seed ^ (0x9e3779b9u * static_cast<std::uint32_t>(
                                     r + 1)));
    SchemaBuilder parts = original;
    if (!rule.apply(schema, &parts, &rng)) {
      continue;
    }
    Result<Schema> rebuilt = parts.Build();
    if (!rebuilt.ok()) {
      return Status(StatusCode::kInternal,
                    std::string("metamorphic rule '") + rule.name +
                        "' produced an ill-formed schema: " +
                        rebuilt.status().message());
    }
    // No rule removes or reorders classes, so original ids map onto
    // themselves (fresh classes are appended past the original range).
    std::vector<ClassId> class_map;
    for (ClassId cls : schema.AllClasses()) {
      class_map.push_back(cls);
    }
    mutants.push_back(MutatedSchema{rule.name, rule.relation,
                                    std::move(rebuilt).value(),
                                    std::move(class_map)});
  }
  return mutants;
}

}  // namespace crsat
