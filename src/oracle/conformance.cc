#include "src/oracle/conformance.h"

#include <algorithm>
#include <functional>
#include <numeric>
#include <optional>
#include <sstream>
#include <utility>

#include "src/analysis/empty_classes.h"
#include "src/base/degradation.h"
#include "src/base/deterministic.h"
#include "src/base/failpoint.h"
#include "src/base/json.h"
#include "src/base/resource_guard.h"
#include "src/baseline/fast_path.h"
#include "src/baseline/ln_reasoner.h"
#include "src/lp/simplex.h"
#include "src/reasoner/implication_engine.h"
#include "src/cr/interpretation.h"
#include "src/cr/model_checker.h"
#include "src/cr/schema_text.h"
#include "src/expansion/expansion.h"
#include "src/generator/random_schema.h"
#include "src/oracle/metamorphic.h"
#include "src/reasoner/satisfiability.h"
#include "src/saturation/graph.h"
#include "src/saturation/saturation.h"
#include "src/witness/witness.h"

namespace crsat {

namespace {

bool IsResourceLimit(StatusCode code) {
  return code == StatusCode::kResourceExhausted ||
         code == StatusCode::kDeadlineExceeded;
}

/// Witness-synthesis failures that do not convict anyone: budget and
/// guard exhaustion (`WitnessSynthesizer::Synthesize` contract). What is
/// NOT here is deliberate — `kInternal` means certification refused a
/// synthesized model, and `kInvalidArgument` means the pipeline saw no
/// satisfiable class right after the reasoner reported one.
bool IsBenignWitnessFailure(StatusCode code) {
  return IsResourceLimit(code) || code == StatusCode::kUnavailable ||
         code == StatusCode::kCancelled;
}

/// The production verdict path — the same expansion -> known-empty feed ->
/// satisfiability pipeline `crsat_cli check` runs. `inject_flip_class`
/// (when in range) flips one verdict, simulating a reasoner bug.
/// `expansion_options` lets the chaos driver thread a resource guard
/// through the whole pipeline (the options travel with the built
/// expansion into every downstream layer).
Result<std::vector<bool>> ReasonerVerdicts(
    const Schema& schema, int inject_flip_class,
    const ExpansionOptions& expansion_options = {}) {
  Result<Expansion> expansion = Expansion::Build(schema, expansion_options);
  if (!expansion.ok()) {
    return expansion.status();
  }
  SatisfiabilityChecker checker(*expansion);
  checker.SetKnownEmptyClasses(ComputeProvablyEmpty(schema).class_empty);
  Result<std::vector<bool>> verdicts = checker.SatisfiableClasses();
  if (!verdicts.ok()) {
    return verdicts.status();
  }
  std::vector<bool> result = std::move(verdicts).value();
  if (inject_flip_class >= 0 &&
      inject_flip_class < static_cast<int>(result.size())) {
    result[inject_flip_class] = !result[inject_flip_class];
  }
  return result;
}

/// The classes on which `IsClassSatisfiable`, asked of a fresh checker
/// per class, differs from `SatisfiableClasses`, both over the production
/// pipeline's expansion and provably-empty hints. A fresh checker has no
/// support, so each query takes the target LP (Theorem 3.3) and computes
/// the support only on a non-acceptable vertex.
Result<std::vector<ClassId>> TargetQueryMismatches(const Schema& schema) {
  CRSAT_ASSIGN_OR_RETURN(Expansion expansion, Expansion::Build(schema));
  const std::vector<bool> known_empty =
      ComputeProvablyEmpty(schema).class_empty;
  SatisfiabilityChecker support(expansion);
  support.SetKnownEmptyClasses(known_empty);
  CRSAT_ASSIGN_OR_RETURN(std::vector<bool> verdicts,
                         support.SatisfiableClasses());
  std::vector<ClassId> mismatched;
  for (ClassId cls : schema.AllClasses()) {
    SatisfiabilityChecker fresh(expansion);
    fresh.SetKnownEmptyClasses(known_empty);
    CRSAT_ASSIGN_OR_RETURN(bool satisfiable, fresh.IsClassSatisfiable(cls));
    if (satisfiable != verdicts[cls.value]) {
      mismatched.push_back(cls);
    }
  }
  return mismatched;
}

/// Synthesizes a certified witness when some class is satisfiable.
/// Failure statuses propagate so the caller can tell a benign resource
/// limit from a semantic failure: the production pipeline promises that
/// whenever it reports a satisfiable class it can also certify a model,
/// so "reasoner says SAT but synthesis failed" is a conformance
/// disagreement, not bad luck.
Result<Interpretation> SynthesizeWitness(
    const Schema& schema, const ExpansionOptions& expansion_options = {}) {
  Result<Expansion> expansion = Expansion::Build(schema, expansion_options);
  if (!expansion.ok()) {
    return expansion.status();
  }
  SatisfiabilityChecker checker(*expansion);
  Result<std::vector<bool>> verdicts = checker.SatisfiableClasses();
  if (!verdicts.ok()) {
    return verdicts.status();
  }
  if (std::none_of(verdicts->begin(), verdicts->end(),
                   [](bool satisfiable) { return satisfiable; })) {
    return Status(StatusCode::kInvalidArgument, "no satisfiable class");
  }
  WitnessSynthesizer synthesizer(checker);
  Result<CertifiedWitness> witness = synthesizer.Synthesize();
  if (!witness.ok()) {
    return witness.status();
  }
  return std::move(witness).value().TakeInterpretation();
}

/// Degraded form for minimization predicates, where candidate schemas may
/// legitimately have no witness.
std::optional<Interpretation> TrySynthesizeWitness(const Schema& schema) {
  Result<Interpretation> witness = SynthesizeWitness(schema);
  if (!witness.ok()) {
    return std::nullopt;
  }
  return std::move(witness).value();
}

/// True iff the certified witness would have been found by an oracle run
/// with these bounds (domain and every relationship extension inside the
/// caps) — in which case an UNSAT-up-to-bound verdict convicts the oracle.
bool WitnessFitsBounds(const Interpretation& witness,
                       const OracleOptions& bounds) {
  if (witness.domain_size() > bounds.max_domain) {
    return false;
  }
  for (RelationshipId rel : witness.schema().AllRelationships()) {
    if (witness.RelationshipExtension(rel).size() >
        bounds.max_tuples_per_relationship) {
      return false;
    }
  }
  return true;
}

/// Greedy delta-debugging over `schema.ToBuilder()`: repeatedly drop any
/// single declaration (covering, disjointness, cardinality, ISA edge, or a
/// whole relationship with its cardinalities) as long as `disagrees` still
/// holds on the rebuilt schema. Classes are never dropped so class ids stay
/// stable for the predicate. Returns the shrunk schema's text, or "" when
/// nothing was removable.
std::string MinimizeDisagreement(
    const Schema& schema, const std::function<bool(const Schema&)>& disagrees,
    int budget) {
  SchemaBuilder parts = schema.ToBuilder();
  int evaluations = 0;
  auto still_disagrees = [&](const SchemaBuilder& candidate) {
    if (evaluations >= budget) {
      return false;
    }
    ++evaluations;
    Result<Schema> built = candidate.Build();
    return built.ok() && disagrees(*built);
  };
  auto try_drop_each = [&](size_t count,
                           const std::function<void(SchemaBuilder*, size_t)>&
                               erase) {
    for (size_t i = 0; i < count; ++i) {
      SchemaBuilder candidate = parts;
      erase(&candidate, i);
      if (still_disagrees(candidate)) {
        parts = std::move(candidate);
        return true;
      }
    }
    return false;
  };
  bool removed_anything = false;
  bool progress = true;
  while (progress) {
    progress =
        try_drop_each(parts.coverings.size(),
                      [](SchemaBuilder* p, size_t i) {
                        p->coverings.erase(p->coverings.begin() + i);
                      }) ||
        try_drop_each(parts.disjointness.size(),
                      [](SchemaBuilder* p, size_t i) {
                        p->disjointness.erase(p->disjointness.begin() + i);
                      }) ||
        try_drop_each(parts.cards.size(),
                      [](SchemaBuilder* p, size_t i) {
                        p->cards.erase(p->cards.begin() + i);
                      }) ||
        try_drop_each(parts.isa.size(),
                      [](SchemaBuilder* p, size_t i) {
                        p->isa.erase(p->isa.begin() + i);
                      }) ||
        try_drop_each(
            parts.relationships.size(), [](SchemaBuilder* p, size_t i) {
              const std::string name = p->relationships[i].name;
              p->relationships.erase(p->relationships.begin() + i);
              p->cards.erase(
                  std::remove_if(p->cards.begin(), p->cards.end(),
                                 [&name](const SchemaBuilder::Card& card) {
                                   return card.rel == name;
                                 }),
                  p->cards.end());
            });
    removed_anything = removed_anything || progress;
  }
  if (!removed_anything) {
    return "";
  }
  Result<Schema> built = parts.Build();
  if (!built.ok()) {
    return "";
  }
  return SchemaToText(*built, "minimized");
}

bool RelationHolds(VerdictRelation relation, bool original_sat,
                   bool mutant_sat) {
  switch (relation) {
    case VerdictRelation::kEquisatisfiable:
      return original_sat == mutant_sat;
    case VerdictRelation::kSatPreserved:
      return !original_sat || mutant_sat;
    case VerdictRelation::kUnsatPreserved:
      return original_sat || !mutant_sat;
  }
  return false;
}

RandomSchemaParams SweepParams(const ConformanceOptions& options,
                               std::uint32_t seed) {
  RandomSchemaParams params;
  params.seed = seed;
  params.num_classes = options.num_classes;
  params.num_relationships = options.num_relationships;
  params.isa_density = options.isa_density;
  // Exercise the Section 5 extensions on a third of the sweep: enough to
  // cover disjointness interaction without making most schemas trivially
  // unsatisfiable.
  params.num_disjointness_groups = (seed % 3 == 0) ? 1 : 0;
  return params;
}

}  // namespace

std::string ConformanceReport::ToJson() const {
  JsonWriter json;
  json.BeginObject(JsonLayout::kMultiLine)
      .Member("schemas_checked", schemas_checked)
      .Member("class_verdicts_compared", class_verdicts_compared)
      .Member("sat_confirmed_by_oracle", sat_confirmed_by_oracle)
      .Member("unsat_consistent_up_to_bound", unsat_consistent_up_to_bound)
      .Member("sat_beyond_bound", sat_beyond_bound)
      .Member("oracle_exhausted", oracle_exhausted)
      .Member("baseline_schemas", baseline_schemas)
      .Member("metamorphic_mutants", metamorphic_mutants)
      .Member("witnesses_certified", witnesses_certified)
      .Member("saturation_models_certified", saturation_models_certified)
      .Member("sat_confirmed_by_saturation", sat_confirmed_by_saturation)
      .Member("unsat_confirmed_by_saturation", unsat_confirmed_by_saturation)
      .Member("sat_without_finite_witness", sat_without_finite_witness)
      .Member("infinite_model_contrasts", infinite_model_contrasts)
      .Member("saturation_unknown", saturation_unknown);
  // Process-wide solver counters at report time; with the CLI's
  // reset-at-command-start discipline they cover exactly this sweep.
  const SimplexStats& lp = GetSimplexStats();
  const ImplicationStats& probe = GetImplicationStats();
  const ExpansionStats& expand = GetExpansionStats();
  json.Key("stats")
      .BeginObject()
      .Member("solves", lp.solves)
      .Member("pivots", lp.pivots)
      .Member("warm_start_hits", lp.warm_start_hits)
      .Member("warm_start_misses", lp.warm_start_misses)
      .Member("dual_pivots", lp.dual_pivots)
      .Member("incremental_hits", lp.incremental_hits)
      .Member("incremental_fallbacks", lp.incremental_fallbacks)
      .Member("dominance_lookups", probe.dominance_lookups)
      .Member("dominance_hits", probe.dominance_hits)
      .Member("derived_disjoint_pairs", expand.derived_disjoint_pairs)
      .Member("pruned_subtrees", expand.pruned_subtrees)
      .Member("ln_short_circuits", GetFastPathStats().ln_short_circuits)
      .End();
  json.Key("disagreements").BeginArray(JsonLayout::kMultiLine);
  for (const ConformanceDisagreement& d : disagreements) {
    json.BeginObject().Member("seed", d.seed).Member("kind", d.kind);
    json.Member("class", d.class_name).Member("detail", d.detail);
    json.Member("schema", d.schema_text);
    json.Member("minimized", d.minimized_schema_text).End();
  }
  return json.End().End().str();
}

std::string ConformanceReport::Summary() const {
  std::ostringstream out;
  out << schemas_checked << " schemas, " << class_verdicts_compared
      << " class verdicts vs oracle (" << sat_confirmed_by_oracle
      << " sat confirmed, " << unsat_consistent_up_to_bound
      << " unsat consistent, " << sat_beyond_bound << " sat beyond bound, "
      << oracle_exhausted << " oracle budget skips), " << baseline_schemas
      << " baseline schemas, " << metamorphic_mutants
      << " metamorphic mutants, " << witnesses_certified
      << " witnesses certified, saturation vote ("
      << saturation_models_certified << " models certified, "
      << sat_confirmed_by_saturation << " sat confirmed, "
      << unsat_confirmed_by_saturation << " unsat confirmed, "
      << sat_without_finite_witness << " sat without finite witness, "
      << infinite_model_contrasts << " infinite-model contrasts, "
      << saturation_unknown << " unknown): " << disagreements.size()
      << " disagreement(s)";
  return out.str();
}

Result<ConformanceReport> RunConformance(const ConformanceOptions& options) {
  ConformanceReport report;
  // Curated extras first (reported with seed 0), then the generated
  // sweep. Both run the identical comparison pipeline; only the baseline
  // cross-check is generator-derived and skips extras.
  struct SweepItem {
    std::uint32_t seed = 0;
    bool generated = false;
    Schema schema;
  };
  std::vector<SweepItem> items;
  for (const std::string& text : options.extra_schema_texts) {
    Result<NamedSchema> parsed = ParseSchema(text);
    if (!parsed.ok()) {
      return Status(parsed.status().code(),
                    "extra conformance schema failed to parse: " +
                        parsed.status().message());
    }
    items.push_back({0, false, std::move(parsed).value().schema});
  }
  for (int i = 0; i < options.num_seeds; ++i) {
    const std::uint32_t seed =
        options.first_seed + static_cast<std::uint32_t>(i);
    Result<Schema> generated =
        GenerateRandomSchema(SweepParams(options, seed));
    if (!generated.ok()) {
      return generated.status();
    }
    items.push_back({seed, true, std::move(generated).value()});
  }
  for (const SweepItem& item : items) {
    const std::uint32_t seed = item.seed;
    const Schema& schema = item.schema;
    const std::string schema_text = SchemaToText(schema, "conformance");

    Result<std::vector<bool>> reasoner =
        ReasonerVerdicts(schema, options.inject_flip_class);
    if (!reasoner.ok()) {
      return Status(reasoner.status().code(),
                    "reasoner failed on seed " + std::to_string(seed) +
                        ": " + reasoner.status().message());
    }
    ++report.schemas_checked;

    auto record = [&](const std::string& kind, ClassId cls,
                      const std::string& detail,
                      const std::function<bool(const Schema&)>& predicate) {
      ConformanceDisagreement disagreement;
      disagreement.seed = seed;
      disagreement.kind = kind;
      disagreement.class_name = schema.ClassName(cls);
      disagreement.detail = detail;
      disagreement.schema_text = schema_text;
      if (options.minimize) {
        disagreement.minimized_schema_text = MinimizeDisagreement(
            schema, predicate, options.minimize_budget);
      }
      report.disagreements.push_back(std::move(disagreement));
    };

    // --- Target queries vs the support --------------------------------
    // The per-class queries the implication engine and the schema
    // debugging probes ask must agree with the support the verdicts read.
    Result<std::vector<ClassId>> mismatched = TargetQueryMismatches(schema);
    if (!mismatched.ok()) {
      return Status(mismatched.status().code(),
                    "reasoner failed on seed " + std::to_string(seed) +
                        ": " + mismatched.status().message());
    }
    for (ClassId cls : *mismatched) {
      record("target-query-vs-support", cls,
             "IsClassSatisfiable on a fresh checker differs from "
             "SatisfiableClasses",
             [cls](const Schema& candidate) {
               Result<std::vector<ClassId>> m =
                   TargetQueryMismatches(candidate);
               return m.ok() &&
                      std::find(m->begin(), m->end(), cls) != m->end();
             });
    }

    // --- Witness cross-check ------------------------------------------
    // Whenever the reasoner reports any satisfiable class, make the
    // production pipeline put up a witness and re-judge it here, outside
    // that pipeline. The synthesizer certifies internally, but this
    // invocation is the harness's own: a witness that fails it is a
    // disagreement, not an exception.
    std::optional<Interpretation> witness;
    const bool any_sat =
        std::any_of(reasoner->begin(), reasoner->end(), [](bool b) {
          return b;
        });
    if (options.check_witnesses && any_sat) {
      Result<Interpretation> synthesized = SynthesizeWitness(schema);
      if (synthesized.ok()) {
        witness = std::move(synthesized).value();
        if (ModelChecker::IsModel(schema, *witness)) {
          ++report.witnesses_certified;
        } else {
          record("witness-not-a-model", ClassId{0},
                 "synthesized witness with domain size " +
                     std::to_string(witness->domain_size()) +
                     " fails ModelChecker",
                 [&options](const Schema& candidate) {
                   Result<std::vector<bool>> v = ReasonerVerdicts(
                       candidate, options.inject_flip_class);
                   if (!v.ok() ||
                       std::none_of(v->begin(), v->end(),
                                    [](bool b) { return b; })) {
                     return false;
                   }
                   std::optional<Interpretation> w =
                       TrySynthesizeWitness(candidate);
                   return w.has_value() &&
                          !ModelChecker::IsModel(candidate, *w);
                 });
          witness.reset();  // Not a model; useless against the oracle.
        }
      } else if (!IsBenignWitnessFailure(synthesized.status().code())) {
        // The reasoner reported a satisfiable class, yet its own witness
        // pipeline cannot put up a certified model. Either the verdict is
        // an unsound SAT or the synthesizer is broken; both are findings.
        record("witness-synthesis-failed", ClassId{0},
               "reasoner reports satisfiable classes but synthesis "
               "failed: " +
                   synthesized.status().message(),
               [&options](const Schema& candidate) {
                 Result<std::vector<bool>> v = ReasonerVerdicts(
                     candidate, options.inject_flip_class);
                 if (!v.ok() || std::none_of(v->begin(), v->end(),
                                             [](bool b) { return b; })) {
                   return false;
                 }
                 Result<Interpretation> w = SynthesizeWitness(candidate);
                 return !w.ok() &&
                        !IsBenignWitnessFailure(w.status().code());
               });
      }
    }

    // --- Reasoner vs brute-force oracle -------------------------------
    // The report outlives this block: the saturation vote below uses it
    // to corroborate its own findings when the oracle ran to completion.
    std::optional<OracleReport> oracle;
    if (options.check_oracle) {
      Result<OracleReport> decided =
          BruteForceOracle::Decide(schema, options.oracle);
      if (!decided.ok() && IsResourceLimit(decided.status().code())) {
        ++report.oracle_exhausted;
      } else if (!decided.ok()) {
        return Status(decided.status().code(),
                      "oracle failed on seed " + std::to_string(seed) + ": " +
                          decided.status().message());
      } else {
        oracle = std::move(decided).value();
      }
    }
    if (oracle.has_value()) {
      for (ClassId cls : schema.AllClasses()) {
        const bool reasoner_sat = (*reasoner)[cls.value];
        const bool oracle_sat = oracle->Satisfiable(cls);
        ++report.class_verdicts_compared;
        if (reasoner_sat && oracle_sat) {
          ++report.sat_confirmed_by_oracle;
          continue;
        }
        if (!reasoner_sat && !oracle_sat) {
          ++report.unsat_consistent_up_to_bound;
          continue;
        }
        if (!reasoner_sat && oracle_sat) {
          // The oracle holds a ModelChecker-certified model of a class the
          // reasoner claims cannot be populated: a soundness bug.
          record("reasoner-unsat-oracle-sat", cls,
                 "oracle found a certified model with domain size " +
                     std::to_string(
                         oracle->classes[cls.value].model_domain_size),
                 [&options, cls](const Schema& candidate) {
                   Result<std::vector<bool>> v = ReasonerVerdicts(
                       candidate, options.inject_flip_class);
                   Result<OracleReport> o =
                       BruteForceOracle::Decide(candidate, options.oracle);
                   return v.ok() && o.ok() && !(*v)[cls.value] &&
                          o->Satisfiable(cls);
                 });
          continue;
        }
        // reasoner SAT, oracle UNSAT up to bound. Only a disagreement if a
        // certified witness proves a model exists *within* the bounds.
        if (witness.has_value() &&
            WitnessFitsBounds(*witness, options.oracle) &&
            !witness->ClassExtension(cls).empty()) {
          record("oracle-missed-witness", cls,
                 "certified witness with domain size " +
                     std::to_string(witness->domain_size()) +
                     " fits the oracle bounds",
                 [&options, cls](const Schema& candidate) {
                   Result<std::vector<bool>> v = ReasonerVerdicts(
                       candidate, options.inject_flip_class);
                   Result<OracleReport> o =
                       BruteForceOracle::Decide(candidate, options.oracle);
                   if (!v.ok() || !o.ok() || !(*v)[cls.value] ||
                       o->Satisfiable(cls)) {
                     return false;
                   }
                   std::optional<Interpretation> w =
                       TrySynthesizeWitness(candidate);
                   return w.has_value() &&
                          WitnessFitsBounds(*w, options.oracle) &&
                          !w->ClassExtension(cls).empty();
                 });
        } else {
          ++report.sat_beyond_bound;
        }
      }
    }

    // --- The saturation vote ------------------------------------------
    // The third engine answers *classical* satisfiability plus, when it
    // can, a concrete finite model. Its evidence is re-judged here at
    // harness level, outside the engine: finite models go through
    // ModelChecker (the CertifiedWitness non-bypass discipline),
    // sat-with-reuse graphs through ValidateSaturationGraph. A valid
    // cyclic graph against a reasoner finitely-UNSAT is NOT a
    // disagreement — it is the infinite-model contrast this engine
    // exists to exhibit.
    if (options.check_saturation) {
      const SaturationOptions sat_options = options.saturation;
      const SaturationReport saturation =
          SaturationEngine::Decide(schema, sat_options);
      for (ClassId cls : schema.AllClasses()) {
        const SaturationClassResult& vote =
            saturation.classes[static_cast<size_t>(cls.value)];
        const bool reasoner_sat = (*reasoner)[cls.value];
        const bool oracle_ran = oracle.has_value();
        const bool oracle_sat = oracle_ran && oracle->Satisfiable(cls);
        switch (vote.verdict) {
          case SaturationVerdict::kUnknown:
            ++report.saturation_unknown;
            break;
          case SaturationVerdict::kUnsat:
            if (reasoner_sat) {
              record("saturation-unsat-reasoner-sat", cls,
                     "saturation proves classical UNSAT, reasoner reports "
                     "finitely SAT",
                     [sat_options, cls](const Schema& candidate) {
                       Result<std::vector<bool>> v =
                           ReasonerVerdicts(candidate, -1);
                       return v.ok() && (*v)[cls.value] &&
                              SaturationEngine::DecideClass(candidate, cls,
                                                            sat_options)
                                      .verdict == SaturationVerdict::kUnsat;
                     });
            } else if (oracle_sat) {
              record("saturation-unsat-oracle-sat", cls,
                     "saturation proves classical UNSAT, oracle holds a "
                     "certified model with domain size " +
                         std::to_string(
                             oracle->classes[cls.value].model_domain_size),
                     [&options, sat_options, cls](const Schema& candidate) {
                       Result<OracleReport> o = BruteForceOracle::Decide(
                           candidate, options.oracle);
                       return o.ok() && o->Satisfiable(cls) &&
                              SaturationEngine::DecideClass(candidate, cls,
                                                            sat_options)
                                      .verdict == SaturationVerdict::kUnsat;
                     });
            } else {
              ++report.unsat_confirmed_by_saturation;
            }
            break;
          case SaturationVerdict::kFiniteModel: {
            if (!vote.model.has_value() ||
                !ModelChecker::IsModel(schema, *vote.model)) {
              record("saturation-missed-violation", cls,
                     "saturation finite model" +
                         (vote.model.has_value()
                              ? " with domain size " +
                                    std::to_string(vote.model->domain_size())
                              : std::string("")) +
                         " fails the harness ModelChecker",
                     [sat_options, cls](const Schema& candidate) {
                       SaturationClassResult s = SaturationEngine::DecideClass(
                           candidate, cls, sat_options);
                       return s.verdict == SaturationVerdict::kFiniteModel &&
                              (!s.model.has_value() ||
                               !ModelChecker::IsModel(candidate, *s.model));
                     });
              break;
            }
            ++report.saturation_models_certified;
            if (!reasoner_sat) {
              record("reasoner-unsat-saturation-model", cls,
                     "harness-certified saturation model with domain size " +
                         std::to_string(vote.model->domain_size()) +
                         " for a class the reasoner calls UNSAT",
                     [sat_options, cls](const Schema& candidate) {
                       Result<std::vector<bool>> v =
                           ReasonerVerdicts(candidate, -1);
                       if (!v.ok() || (*v)[cls.value]) {
                         return false;
                       }
                       SaturationClassResult s = SaturationEngine::DecideClass(
                           candidate, cls, sat_options);
                       return s.verdict == SaturationVerdict::kFiniteModel &&
                              s.model.has_value() &&
                              ModelChecker::IsModel(candidate, *s.model);
                     });
              break;
            }
            ++report.sat_confirmed_by_saturation;
            if (oracle_ran && !oracle_sat &&
                WitnessFitsBounds(*vote.model, options.oracle) &&
                !vote.model->ClassExtension(cls).empty()) {
              record("oracle-missed-saturation-model", cls,
                     "certified saturation model with domain size " +
                         std::to_string(vote.model->domain_size()) +
                         " fits the oracle bounds",
                     [&options, sat_options, cls](const Schema& candidate) {
                       Result<OracleReport> o = BruteForceOracle::Decide(
                           candidate, options.oracle);
                       if (!o.ok() || o->Satisfiable(cls)) {
                         return false;
                       }
                       SaturationClassResult s = SaturationEngine::DecideClass(
                           candidate, cls, sat_options);
                       return s.verdict == SaturationVerdict::kFiniteModel &&
                              s.model.has_value() &&
                              ModelChecker::IsModel(candidate, *s.model) &&
                              WitnessFitsBounds(*s.model, options.oracle) &&
                              !s.model->ClassExtension(cls).empty();
                     });
            }
            break;
          }
          case SaturationVerdict::kSatWithReuse: {
            const std::vector<std::string> graph_violations =
                ValidateSaturationGraph(schema, vote.graph, cls);
            if (!graph_violations.empty()) {
              const std::string why =
                  "sat-with-reuse graph fails validation: " +
                  graph_violations.front();
              const auto invalid_graph = [sat_options,
                                          cls](const Schema& candidate) {
                SaturationClassResult s = SaturationEngine::DecideClass(
                    candidate, cls, sat_options);
                return s.verdict == SaturationVerdict::kSatWithReuse &&
                       !ValidateSaturationGraph(candidate, s.graph, cls)
                            .empty();
              };
              record(oracle_ran && !oracle_sat
                         ? "saturation-claims-sat-oracle-unsat"
                         : "saturation-graph-invalid",
                     cls, why, invalid_graph);
              break;
            }
            if (!reasoner_sat) {
              ++report.infinite_model_contrasts;
            } else {
              ++report.sat_without_finite_witness;
            }
            break;
          }
        }
      }
    }

    // --- Reasoner vs the Lenzerini–Nobili baseline --------------------
    // The baseline refuses ISA, so the comparison runs on an ISA-free
    // sibling schema generated from the same seed.
    if (options.check_baseline && item.generated) {
      RandomSchemaParams ln_params = SweepParams(options, seed);
      ln_params.isa_density = 0.0;
      ln_params.refinement_probability = 0.0;
      ln_params.num_disjointness_groups = 0;
      Result<Schema> ln_schema = GenerateRandomSchema(ln_params);
      if (!ln_schema.ok()) {
        return ln_schema.status();
      }
      Result<LnReasoner> baseline = LnReasoner::Create(*ln_schema);
      if (!baseline.ok()) {
        return Status(StatusCode::kInternal,
                      "ISA-free schema rejected by the LN baseline: " +
                          baseline.status().message());
      }
      Result<std::vector<bool>> baseline_verdicts =
          baseline->SatisfiableClasses();
      Result<std::vector<bool>> reasoner_on_ln =
          ReasonerVerdicts(*ln_schema, options.inject_flip_class);
      if (!baseline_verdicts.ok() || !reasoner_on_ln.ok()) {
        return Status(StatusCode::kInternal,
                      "baseline comparison failed on seed " +
                          std::to_string(seed));
      }
      ++report.baseline_schemas;
      for (ClassId cls : ln_schema->AllClasses()) {
        if ((*baseline_verdicts)[cls.value] ==
            (*reasoner_on_ln)[cls.value]) {
          continue;
        }
        ConformanceDisagreement disagreement;
        disagreement.seed = seed;
        disagreement.kind = "reasoner-vs-baseline";
        disagreement.class_name = ln_schema->ClassName(cls);
        disagreement.detail =
            std::string("reasoner says ") +
            ((*reasoner_on_ln)[cls.value] ? "sat" : "unsat") +
            ", LN baseline says " +
            ((*baseline_verdicts)[cls.value] ? "sat" : "unsat");
        disagreement.schema_text = SchemaToText(*ln_schema, "conformance");
        if (options.minimize) {
          disagreement.minimized_schema_text = MinimizeDisagreement(
              *ln_schema,
              [&options, cls](const Schema& candidate) {
                Result<LnReasoner> b = LnReasoner::Create(candidate);
                if (!b.ok()) {
                  return false;
                }
                Result<std::vector<bool>> bv = b->SatisfiableClasses();
                Result<std::vector<bool>> rv = ReasonerVerdicts(
                    candidate, options.inject_flip_class);
                return bv.ok() && rv.ok() &&
                       (*bv)[cls.value] != (*rv)[cls.value];
              },
              options.minimize_budget);
        }
        report.disagreements.push_back(std::move(disagreement));
      }
    }

    // --- Reasoner vs itself under metamorphic rewrites ----------------
    if (options.check_metamorphic) {
      Result<std::vector<MutatedSchema>> mutants =
          ApplyMetamorphicRules(schema, seed);
      if (!mutants.ok()) {
        return mutants.status();
      }
      for (const MutatedSchema& mutant : *mutants) {
        Result<std::vector<bool>> mutant_verdicts =
            ReasonerVerdicts(mutant.schema, /*inject_flip_class=*/-1);
        if (!mutant_verdicts.ok()) {
          return Status(mutant_verdicts.status().code(),
                        "reasoner failed on mutant '" + mutant.rule_name +
                            "' of seed " + std::to_string(seed) + ": " +
                            mutant_verdicts.status().message());
        }
        ++report.metamorphic_mutants;
        for (ClassId cls : schema.AllClasses()) {
          const bool original_sat = (*reasoner)[cls.value];
          const bool mutant_sat =
              (*mutant_verdicts)[mutant.class_map[cls.value].value];
          if (RelationHolds(mutant.relation, original_sat, mutant_sat)) {
            continue;
          }
          const std::string rule = mutant.rule_name;
          record(
              "metamorphic:" + rule, cls,
              std::string(VerdictRelationToString(mutant.relation)) +
                  " violated: original " +
                  (original_sat ? "sat" : "unsat") + ", mutant " +
                  (mutant_sat ? "sat" : "unsat"),
              [&options, cls, rule, seed](const Schema& candidate) {
                Result<std::vector<bool>> original = ReasonerVerdicts(
                    candidate, options.inject_flip_class);
                if (!original.ok()) {
                  return false;
                }
                Result<std::vector<MutatedSchema>> remutated =
                    ApplyMetamorphicRules(candidate, seed);
                if (!remutated.ok()) {
                  return false;
                }
                for (const MutatedSchema& m : *remutated) {
                  if (m.rule_name != rule) {
                    continue;
                  }
                  Result<std::vector<bool>> mv =
                      ReasonerVerdicts(m.schema, -1);
                  return mv.ok() &&
                         !RelationHolds(
                             m.relation, (*original)[cls.value],
                             (*mv)[m.class_map[cls.value].value]);
                }
                return false;
              });
        }
      }
    }
  }
  return report;
}

namespace {

/// Renders an armed schedule in the CRSAT_FAILPOINTS grammar, so every
/// reported flip replays from the command line.
std::string FormatSchedule(const std::vector<FailpointSpec>& schedule) {
  std::ostringstream out;
  bool first = true;
  for (const FailpointSpec& spec : schedule) {
    out << (first ? "" : ",") << spec.id;
    first = false;
    switch (spec.mode) {
      case FailpointMode::kNth:
        out << "=nth:" << spec.n;
        break;
      case FailpointMode::kEveryK:
        out << "=every:" << spec.n;
        break;
      case FailpointMode::kProbability:
        out << "=p:" << spec.probability << "@" << spec.seed;
        break;
    }
  }
  return out.str();
}

/// Seed-derived randomized fault schedule: 1..max_faults distinct
/// registered failpoints (a shuffled prefix of the registry), each with a
/// random mode — fire-once, every-K, or seeded probability. A pure
/// function of `seed`, exactly like the schema itself, so a failing seed
/// reproduces the identical fault schedule on any platform.
std::vector<FailpointSpec> ChaosSchedule(std::uint32_t seed, int max_faults) {
  // Decorrelated from the schema generator, which consumes the raw seed.
  DeterministicRng rng(seed * 2654435761u + 0x9E3779B9u);
  const std::vector<std::string>& registry = RegisteredFailpoints();
  std::vector<std::size_t> order(registry.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[static_cast<std::size_t>(rng.UniformInt(
                                0, static_cast<int>(i) - 1))]);
  }
  const int count =
      std::min(rng.UniformInt(1, std::max(1, max_faults)),
               static_cast<int>(registry.size()));
  std::vector<FailpointSpec> schedule;
  for (int i = 0; i < count; ++i) {
    FailpointSpec spec;
    spec.id = registry[order[static_cast<std::size_t>(i)]];
    switch (rng.UniformInt(0, 2)) {
      case 0:
        spec.mode = FailpointMode::kNth;
        spec.n = static_cast<std::uint64_t>(rng.UniformInt(1, 4));
        break;
      case 1:
        spec.mode = FailpointMode::kEveryK;
        spec.n = static_cast<std::uint64_t>(rng.UniformInt(2, 5));
        break;
      default:
        spec.mode = FailpointMode::kProbability;
        spec.probability = 0.25 * rng.UniformInt(1, 3);
        spec.seed = rng.NextWord();
        break;
    }
    schedule.push_back(std::move(spec));
  }
  return schedule;
}

/// However a faulted run exits, the process returns to fault-free.
struct ScopedChaosFaults {
  ~ScopedChaosFaults() { DeactivateAllFailpoints(); }
};

}  // namespace

std::string ChaosReport::ToJson() const {
  JsonWriter json;
  json.BeginObject(JsonLayout::kMultiLine)
      .Member("seeds_swept", seeds_swept)
      .Member("faulted_runs_agreeing", faulted_runs_agreeing)
      .Member("degraded_to_unknown", degraded_to_unknown)
      .Member("witnesses_survived", witnesses_survived)
      .Member("witness_benign_failures", witness_benign_failures)
      .Member("failpoints_armed", failpoints_armed)
      .Member("faults_fired", faults_fired)
      .Key("fires_by_failpoint").BeginObject();
  for (const auto& [failpoint, fires] : fires_by_failpoint) {
    json.Member(failpoint, fires);
  }
  // Ladder-transition counters for the whole sweep (reset-at-start
  // discipline, same as the solver stats in ConformanceReport).
  json.End().Key("recovery").Raw(GetRecoveryStats().ToJson());
  json.Key("flips").BeginArray(JsonLayout::kMultiLine);
  for (const ChaosVerdictFlip& flip : flips) {
    json.BeginObject().Member("seed", flip.seed).Member("kind", flip.kind);
    json.Member("class", flip.class_name);
    json.Member("faults", flip.fault_schedule).Member("detail", flip.detail);
    json.Member("schema", flip.schema_text).End();
  }
  return json.End().End().str();
}

std::string ChaosReport::Summary() const {
  std::ostringstream out;
  out << seeds_swept << " seeds under chaos (" << failpoints_armed
      << " failpoints armed, " << faults_fired << " faults fired): "
      << faulted_runs_agreeing << " faulted runs agreed with fault-free, "
      << degraded_to_unknown << " degraded to UNKNOWN, "
      << witnesses_survived << " witnesses survived, "
      << witness_benign_failures << " benign witness failures: "
      << flips.size() << " verdict flip(s)";
  return out.str();
}

Result<ChaosReport> RunChaosConformance(
    const ChaosConformanceOptions& options) {
  ChaosReport report;
  for (const std::string& id : RegisteredFailpoints()) {
    report.fires_by_failpoint.emplace_back(id, 0);
  }
  // However this sweep exits, leave the process fault-free.
  ScopedChaosFaults cleanup;
  for (int i = 0; i < options.num_seeds; ++i) {
    const std::uint32_t seed =
        options.first_seed + static_cast<std::uint32_t>(i);
    ConformanceOptions shape;
    shape.num_classes = options.num_classes;
    shape.num_relationships = options.num_relationships;
    shape.isa_density = options.isa_density;
    Result<Schema> generated = GenerateRandomSchema(SweepParams(shape, seed));
    if (!generated.ok()) {
      return generated.status();
    }
    const Schema& schema = *generated;

    // Ground truth: the fault-free run. A failure here is a harness bug,
    // not a chaos finding.
    DeactivateAllFailpoints();
    Result<std::vector<bool>> baseline =
        ReasonerVerdicts(schema, /*inject_flip_class=*/-1);
    if (!baseline.ok()) {
      return Status(baseline.status().code(),
                    "fault-free run failed on seed " + std::to_string(seed) +
                        ": " + baseline.status().message());
    }

    // Arm the seed-derived schedule and re-run the same pipeline, guarded
    // so `guard/trip` has a guard to trip.
    const std::vector<FailpointSpec> schedule =
        ChaosSchedule(seed, options.max_faults_per_seed);
    const std::string schedule_text = FormatSchedule(schedule);
    std::vector<FailpointCounters> before;
    for (const FailpointSpec& spec : schedule) {
      before.push_back(GetFailpointCounters(spec.id));
      CRSAT_RETURN_IF_ERROR(ActivateFailpoint(spec));
      ++report.failpoints_armed;
    }

    auto record_flip = [&](const std::string& kind,
                           const std::string& class_name,
                           const std::string& detail) {
      ChaosVerdictFlip flip;
      flip.seed = seed;
      flip.kind = kind;
      flip.class_name = class_name;
      flip.fault_schedule = schedule_text;
      flip.detail = detail;
      flip.schema_text = SchemaToText(schema, "chaos");
      report.flips.push_back(std::move(flip));
    };

    ResourceGuard guard;
    ExpansionOptions faulted_options;
    faulted_options.guard = &guard;
    Result<std::vector<bool>> faulted =
        ReasonerVerdicts(schema, options.inject_flip_class, faulted_options);
    if (faulted.ok()) {
      bool agreed = true;
      for (ClassId cls : schema.AllClasses()) {
        if ((*faulted)[cls.value] == (*baseline)[cls.value]) {
          continue;
        }
        agreed = false;
        record_flip("verdict-flip", schema.ClassName(cls),
                    std::string("fault-free run says ") +
                        ((*baseline)[cls.value] ? "sat" : "unsat") +
                        ", faulted run says " +
                        ((*faulted)[cls.value] ? "sat" : "unsat"));
      }
      if (agreed) {
        ++report.faulted_runs_agreeing;
      }
    } else if (IsResourceLimitStatus(faulted.status().code())) {
      // The bottom rung: an honest UNKNOWN instead of an answer.
      ++report.degraded_to_unknown;
    } else {
      record_flip("non-benign-status", "",
                  "faulted run failed outside the resource family: " +
                      faulted.status().message());
    }

    // Witness stage under the same faults: whenever the fault-free run
    // found a satisfiable class, the faulted pipeline must either put up
    // a model that certifies here — outside the pipeline — or fail with
    // one of its documented benign statuses. A non-model or a semantic
    // error is a ladder-soundness violation.
    const bool any_sat = std::any_of(baseline->begin(), baseline->end(),
                                     [](bool b) { return b; });
    if (options.check_witnesses && any_sat) {
      Result<Interpretation> witness =
          SynthesizeWitness(schema, faulted_options);
      if (witness.ok()) {
        if (ModelChecker::IsModel(schema, *witness)) {
          ++report.witnesses_survived;
        } else {
          record_flip("witness-flip", "",
                      "faulted witness stage synthesized a non-model with "
                      "domain size " +
                          std::to_string(witness->domain_size()));
        }
      } else if (IsBenignWitnessFailure(witness.status().code())) {
        ++report.witness_benign_failures;
      } else {
        record_flip("witness-flip", "",
                    "faulted witness stage failed outside the benign "
                    "family: " +
                        witness.status().message());
      }
    }

    for (std::size_t s = 0; s < schedule.size(); ++s) {
      const FailpointCounters after = GetFailpointCounters(schedule[s].id);
      const std::uint64_t fired = after.fires - before[s].fires;
      report.faults_fired += fired;
      for (auto& entry : report.fires_by_failpoint) {
        if (entry.first == schedule[s].id) {
          entry.second += fired;
          break;
        }
      }
    }
    DeactivateAllFailpoints();
    ++report.seeds_swept;
  }
  return report;
}

}  // namespace crsat
