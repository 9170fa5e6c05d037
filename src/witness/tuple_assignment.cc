#include "src/witness/tuple_assignment.h"

#include <algorithm>
#include <map>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "src/base/degradation.h"
#include "src/base/failpoint.h"
#include "src/flow/max_flow.h"
#include "src/math/bigint.h"

namespace crsat {

namespace {

// Coarse per-object accounting against the guard's memory budget: the
// dominant allocations of an interpretation are the per-individual set
// entries and the per-tuple vectors inside the extension sets.
constexpr std::uint64_t kBytesPerIndividual = 80;
constexpr std::uint64_t kBytesPerTupleBase = 64;
constexpr std::uint64_t kBytesPerTupleComponent = 8;

// Rung-2 retry budget of the degradation ladder (src/base/degradation.h):
// how many times the integer solution may be doubled when
// tuple-distinctness cannot be realized at the current scale (solutions
// of the homogeneous system are closed under positive scaling).
constexpr int kMaxScalingAttempts = 8;

// A partially-built tuple shared by `count` identical copies.
struct TupleGroup {
  std::vector<Individual> prefix;
  std::int64_t count = 0;
};

// Distributes the value multiset {individuals[i] with multiplicity
// multiplicities[i]} over the groups, splitting each group into subgroups
// that append one value to the prefix. Uses a min-congestion transportation
// flow so identical prefixes receive as many *different* values as
// possible. Returns the refined groups; a final group with count > 1 means
// two identical tuples (the caller treats that as failure at this scale).
Result<std::vector<TupleGroup>> RefineGroupsWithValues(
    const std::vector<TupleGroup>& groups,
    const std::vector<Individual>& individuals,
    const std::vector<std::int64_t>& multiplicities, ResourceGuard* guard) {
  const int num_groups = static_cast<int>(groups.size());
  const int num_values = static_cast<int>(individuals.size());
  std::int64_t total = 0;
  for (const TupleGroup& group : groups) {
    total += group.count;
  }

  std::int64_t max_multiplicity = 0;
  for (std::int64_t m : multiplicities) {
    max_multiplicity = std::max(max_multiplicity, m);
  }

  // Binary search the smallest per-cell cap (congestion) that still routes
  // all tuples; the cap is what bounds duplicate prefixes per value.
  auto feasible_flow =
      [&](std::int64_t cap,
          std::vector<std::vector<std::int64_t>>* cells) -> Result<bool> {
    MaxFlowGraph graph(2 + num_groups + num_values);
    const int source = 0;
    const int sink = 1;
    std::vector<std::vector<int>> edge_ids(num_groups,
                                           std::vector<int>(num_values, -1));
    for (int g = 0; g < num_groups; ++g) {
      graph.AddEdge(source, 2 + g, groups[g].count);
    }
    for (int d = 0; d < num_values; ++d) {
      graph.AddEdge(2 + num_groups + d, sink, multiplicities[d]);
    }
    for (int g = 0; g < num_groups; ++g) {
      for (int d = 0; d < num_values; ++d) {
        edge_ids[g][d] =
            graph.AddEdge(2 + g, 2 + num_groups + d,
                          std::min(cap, groups[g].count));
      }
    }
    CRSAT_ASSIGN_OR_RETURN(std::int64_t flow,
                           graph.Solve(source, sink, guard));
    if (flow != total) {
      return false;
    }
    if (cells != nullptr) {
      cells->assign(num_groups, std::vector<std::int64_t>(num_values, 0));
      for (int g = 0; g < num_groups; ++g) {
        for (int d = 0; d < num_values; ++d) {
          (*cells)[g][d] = graph.EdgeFlow(edge_ids[g][d]);
        }
      }
    }
    return true;
  };

  std::int64_t low = 1;
  std::int64_t high = std::max<std::int64_t>(max_multiplicity, 1);
  CRSAT_ASSIGN_OR_RETURN(bool feasible_at_high, feasible_flow(high, nullptr));
  if (!feasible_at_high) {
    return InternalError(
        "witness: transportation flow infeasible at full capacity");
  }
  while (low < high) {
    std::int64_t mid = low + (high - low) / 2;
    CRSAT_ASSIGN_OR_RETURN(bool ok, feasible_flow(mid, nullptr));
    if (ok) {
      high = mid;
    } else {
      low = mid + 1;
    }
  }
  std::vector<std::vector<std::int64_t>> cells;
  CRSAT_ASSIGN_OR_RETURN(bool ok, feasible_flow(high, &cells));
  if (!ok) {
    return InternalError("witness: flow became infeasible on replay");
  }

  std::vector<TupleGroup> refined;
  for (int g = 0; g < num_groups; ++g) {
    for (int d = 0; d < num_values; ++d) {
      if (cells[g][d] == 0) {
        continue;
      }
      TupleGroup subgroup;
      subgroup.prefix = groups[g].prefix;
      subgroup.prefix.push_back(individuals[d]);
      subgroup.count = cells[g][d];
      refined.push_back(std::move(subgroup));
    }
  }
  return refined;
}

// One attempt at materializing the model for fixed integer counts. Returns
// Unavailable when tuple distinctness could not be realized at this scale
// (the caller scales the solution and retries). `charge` accumulates the
// interpretation's approximate footprint against the guard for the
// duration of the attempt.
Result<Interpretation> TryBuild(const Expansion& expansion,
                                const std::vector<std::int64_t>& class_counts,
                                const std::vector<std::int64_t>& rel_counts,
                                WitnessStats* stats, ResourceGuard* guard,
                                ScopedMemoryCharge* charge) {
  const Schema& schema = expansion.schema();
  Interpretation interpretation(schema);

  // Individuals per compound class. The memory charge lands before the
  // poll so an over-budget block trips on entry, not after allocating.
  std::vector<std::vector<Individual>> members_of(expansion.classes().size());
  for (size_t i = 0; i < expansion.classes().size(); ++i) {
    if (class_counts[i] > 0) {
      charge->Add(static_cast<std::uint64_t>(class_counts[i]) *
                  kBytesPerIndividual);
      if (guard != nullptr) {
        CRSAT_RETURN_IF_ERROR(guard->Check("witness/individuals"));
      }
    }
    for (std::int64_t m = 0; m < class_counts[i]; ++m) {
      Individual individual = interpretation.AddIndividual();
      members_of[i].push_back(individual);
      for (ClassId cls : expansion.classes()[i].Members()) {
        CRSAT_RETURN_IF_ERROR(interpretation.AddToClass(cls, individual));
      }
    }
  }

  // Global rotation offset per (relationship, role position, compound
  // class index): consecutive tuple slots map to consecutive individuals
  // modulo the class population, which keeps every individual's count in
  // the balanced window [floor(T/n), ceil(T/n)] within [minc, maxc].
  std::map<std::tuple<int, int, int>, std::int64_t> rotation;

  for (size_t j = 0; j < expansion.relationships().size(); ++j) {
    const std::int64_t t = rel_counts[j];
    if (t == 0) {
      continue;
    }
    const CompoundRelationship& compound = expansion.relationships()[j];
    const std::vector<RoleId>& roles = schema.RolesOf(compound.rel);
    const int arity = static_cast<int>(roles.size());

    charge->Add(static_cast<std::uint64_t>(t) *
                (kBytesPerTupleBase +
                 kBytesPerTupleComponent * static_cast<std::uint64_t>(arity)));
    if (guard != nullptr) {
      CRSAT_RETURN_IF_ERROR(guard->Check("witness/tuples"));
    }

    std::vector<int> component_index(arity);
    std::vector<std::int64_t> population(arity);
    std::vector<std::int64_t> offsets(arity);
    for (int k = 0; k < arity; ++k) {
      component_index[k] = expansion.ClassIndexOf(compound.components[k]);
      if (component_index[k] < 0) {
        return InternalError("witness: unknown compound component");
      }
      population[k] = class_counts[component_index[k]];
      if (population[k] == 0) {
        return InvalidArgumentError(
            "witness: solution is not acceptable (populated compound "
            "relationship with an empty component class)");
      }
      auto key = std::make_tuple(compound.rel.value, k, component_index[k]);
      offsets[k] = rotation[key];
      rotation[key] = (offsets[k] + t) % population[k];
    }

    // Fast path: aligned round-robin. Tuples m and m' collide only when
    // population[k] divides m'-m for every k. The failpoint simulates a
    // collision up front, forcing the min-congestion flow refinement the
    // way a genuinely misaligned rotation would.
    bool aligned_ok = !CRSAT_FAILPOINT("witness/force_flow_refine");
    if (aligned_ok) {
      std::set<std::vector<Individual>> seen;
      std::vector<std::vector<Individual>> tuples;
      tuples.reserve(t);
      for (std::int64_t m = 0; m < t && aligned_ok; ++m) {
        if (guard != nullptr && (m & 1023) == 0) {
          CRSAT_RETURN_IF_ERROR(guard->Check("witness/tuples"));
        }
        std::vector<Individual> tuple(arity);
        for (int k = 0; k < arity; ++k) {
          tuple[k] = members_of[component_index[k]]
                               [(offsets[k] + m) % population[k]];
        }
        if (!seen.insert(tuple).second) {
          aligned_ok = false;
          break;
        }
        tuples.push_back(std::move(tuple));
      }
      if (aligned_ok) {
        for (std::vector<Individual>& tuple : tuples) {
          CRSAT_RETURN_IF_ERROR(
              interpretation.AddTuple(compound.rel, tuple));
        }
        continue;
      }
    }

    // Slow path: realize this compound relationship coordinate by
    // coordinate with min-congestion flows, preserving the exact value
    // multisets of the round-robin windows.
    if (stats != nullptr) {
      ++stats->flow_refinements;
    }
    GetRecoveryStats().witness_flow_refinements.fetch_add(
        1, std::memory_order_relaxed);
    std::vector<TupleGroup> groups(1);
    groups[0].count = t;
    for (int k = 0; k < arity; ++k) {
      // Window multiset: individual (offsets[k] + s) mod n, s in [0, t).
      const std::int64_t n = population[k];
      std::vector<Individual> individuals;
      std::vector<std::int64_t> multiplicities;
      for (std::int64_t d = 0; d < n; ++d) {
        std::int64_t count = t / n;
        // Individuals hit by the remainder of the window get one extra.
        std::int64_t rem = t % n;
        std::int64_t position = (d - offsets[k] % n + n) % n;
        if (position < rem) {
          ++count;
        }
        if (count > 0) {
          individuals.push_back(members_of[component_index[k]][d]);
          multiplicities.push_back(count);
        }
      }
      CRSAT_ASSIGN_OR_RETURN(
          groups, RefineGroupsWithValues(groups, individuals, multiplicities,
                                         guard));
    }
    for (const TupleGroup& group : groups) {
      if (group.count != 1) {
        return UnavailableError(
            "witness: duplicate tuples unavoidable at this scale");
      }
      CRSAT_RETURN_IF_ERROR(
          interpretation.AddTuple(compound.rel, group.prefix));
    }
  }
  return interpretation;
}

}  // namespace

Result<Interpretation> AssignTuples(const Expansion& expansion,
                                    const IntegerSolution& solution,
                                    const WitnessOptions& options,
                                    WitnessStats* stats,
                                    ResourceGuard* guard) {
  if (solution.class_counts.size() != expansion.classes().size() ||
      solution.rel_counts.size() != expansion.relationships().size()) {
    return InvalidArgumentError(
        "witness: solution size does not match the expansion");
  }
  BigInt scale(1);
  for (int attempt = 0; attempt <= kMaxScalingAttempts; ++attempt) {
    if (guard != nullptr) {
      CRSAT_RETURN_IF_ERROR(guard->CheckNow("witness/attempt"));
    }
    if (stats != nullptr) {
      stats->scaling_attempts = attempt;
    }
    if (CRSAT_FAILPOINT("witness/force_rescale")) {
      // Injected duplicate collision: double the scale exactly as if
      // TryBuild had returned kUnavailable at this scale. Firing on
      // every hit exhausts the budget into the honest kUnavailable
      // refusal below — never a wrong witness.
      GetRecoveryStats().witness_rescales.fetch_add(
          1, std::memory_order_relaxed);
      scale *= BigInt(2);
      continue;
    }
    // Convert scaled counts to int64 and enforce the size cap.
    std::vector<std::int64_t> class_counts;
    std::vector<std::int64_t> rel_counts;
    BigInt total;
    bool fits = true;
    auto convert = [&](const std::vector<BigInt>& source,
                       std::vector<std::int64_t>* target) {
      for (const BigInt& value : source) {
        BigInt scaled = value * scale;
        total += scaled;
        Result<std::int64_t> narrow = scaled.ToInt64();
        if (!narrow.ok()) {
          fits = false;
          return;
        }
        target->push_back(narrow.value());
      }
    };
    convert(solution.class_counts, &class_counts);
    if (fits) {
      convert(solution.rel_counts, &rel_counts);
    }
    if (!fits ||
        total > BigInt(static_cast<std::int64_t>(options.max_model_size))) {
      return UnavailableError("witness: model size exceeds max_model_size");
    }

    ScopedMemoryCharge charge(guard, 0);
    Result<Interpretation> built =
        TryBuild(expansion, class_counts, rel_counts, stats, guard, &charge);
    if (built.ok() || built.status().code() != StatusCode::kUnavailable) {
      return built;
    }
    GetRecoveryStats().witness_rescales.fetch_add(1,
                                                  std::memory_order_relaxed);
    scale *= BigInt(2);
  }
  return UnavailableError(
      "witness: retry budget exhausted without a duplicate-free realization");
}

}  // namespace crsat
