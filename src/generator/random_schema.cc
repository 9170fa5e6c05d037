#include "src/generator/random_schema.h"

#include <string>
#include <vector>

#include "src/base/deterministic.h"

namespace crsat {

Result<Schema> GenerateRandomSchema(const RandomSchemaParams& params) {
  if (params.num_classes < 1) {
    return InvalidArgumentError("num_classes must be >= 1");
  }
  if (params.min_arity < 2 || params.max_arity < params.min_arity) {
    return InvalidArgumentError("arity range must satisfy 2 <= min <= max");
  }
  // All draws go through DeterministicRng so a seed reproduces the
  // identical schema on every toolchain (std::uniform_int_distribution
  // sequences are implementation-defined; see deterministic.h).
  DeterministicRng rng(params.seed);
  auto coin = [&rng](double probability) { return rng.Coin(probability); };
  auto uniform_int = [&rng](int low, int high) {
    return rng.UniformInt(low, high);
  };

  SchemaBuilder builder;
  std::vector<std::string> class_names;
  for (int c = 0; c < params.num_classes; ++c) {
    class_names.push_back("C" + std::to_string(c));
    builder.AddClass(class_names.back());
  }

  // ISA edges from lower ids to higher ids: acyclic by construction.
  // Track the closure locally so refinements can pick genuine subclasses.
  std::vector<std::vector<bool>> closure(
      params.num_classes, std::vector<bool>(params.num_classes, false));
  for (int c = 0; c < params.num_classes; ++c) {
    closure[c][c] = true;
  }
  for (int sub = 0; sub < params.num_classes; ++sub) {
    for (int super = sub + 1; super < params.num_classes; ++super) {
      if (coin(params.isa_density)) {
        builder.AddIsa(class_names[sub], class_names[super]);
        for (int a = 0; a < params.num_classes; ++a) {
          if (!closure[a][sub]) {
            continue;
          }
          for (int b = 0; b < params.num_classes; ++b) {
            if (closure[super][b]) {
              closure[a][b] = true;
            }
          }
        }
      }
    }
  }

  auto random_cardinality = [&]() {
    Cardinality cardinality;
    cardinality.min = static_cast<std::uint64_t>(uniform_int(
        0, static_cast<int>(params.max_min_card)));
    if (!coin(params.infinite_max_probability)) {
      cardinality.max =
          cardinality.min + static_cast<std::uint64_t>(uniform_int(
                                0, static_cast<int>(params.max_card_slack)));
    }
    return cardinality;
  };

  for (int r = 0; r < params.num_relationships; ++r) {
    std::string rel_name = "R" + std::to_string(r);
    int arity = uniform_int(params.min_arity, params.max_arity);
    std::vector<std::pair<std::string, std::string>> roles;
    std::vector<int> primaries;
    for (int k = 0; k < arity; ++k) {
      int primary = uniform_int(0, params.num_classes - 1);
      primaries.push_back(primary);
      roles.emplace_back(rel_name + "_U" + std::to_string(k),
                         class_names[primary]);
    }
    builder.AddRelationship(rel_name, roles);
    for (int k = 0; k < arity; ++k) {
      const std::string& role_name = roles[k].first;
      if (coin(params.primary_card_probability)) {
        builder.SetCardinality(class_names[primaries[k]], rel_name, role_name,
                               random_cardinality());
      }
      if (coin(params.refinement_probability)) {
        std::vector<int> subclasses;
        for (int c = 0; c < params.num_classes; ++c) {
          if (c != primaries[k] && closure[c][primaries[k]]) {
            subclasses.push_back(c);
          }
        }
        if (!subclasses.empty()) {
          int chosen = subclasses[uniform_int(
              0, static_cast<int>(subclasses.size()) - 1)];
          builder.SetCardinality(class_names[chosen], rel_name, role_name,
                                 random_cardinality());
        }
      }
    }
  }

  for (int g = 0; g < params.num_disjointness_groups; ++g) {
    std::vector<std::string> group;
    std::vector<int> pool;
    for (int c = 0; c < params.num_classes; ++c) {
      pool.push_back(c);
    }
    for (int pick = 0;
         pick < params.disjointness_group_size && !pool.empty(); ++pick) {
      int index = uniform_int(0, static_cast<int>(pool.size()) - 1);
      group.push_back(class_names[pool[index]]);
      pool.erase(pool.begin() + index);
    }
    if (group.size() >= 2) {
      builder.AddDisjointness(group);
    }
  }

  return builder.Build();
}

}  // namespace crsat
