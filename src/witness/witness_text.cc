#include "src/witness/witness_text.h"

// srclint: allow(unguarded-loop): renders an already-certified witness,
// whose size was capped by WitnessOptions::max_model_size before the
// synthesis stages would materialize it.

#include <vector>

#include "src/base/json.h"

namespace crsat {

std::string WitnessToJson(const CertifiedWitness& witness) {
  const Interpretation& interpretation = witness.interpretation();
  const Schema& schema = interpretation.schema();
  const WitnessStats& stats = witness.stats();
  constexpr JsonLayout kCompact = JsonLayout::kCompact;

  JsonWriter json;
  json.BeginObject(kCompact).Member("certified", true);
  json.Member("individuals", stats.individuals).Member("tuples", stats.tuples);
  json.Key("stats").BeginObject(kCompact);
  json.Member("integer_fast_path", stats.integer_fast_path);
  json.Member("integer_exact_fallback", stats.integer_exact_fallback);
  json.Member("scaling_attempts", stats.scaling_attempts);
  json.Member("flow_refinements", stats.flow_refinements).End();

  json.Key("classes").BeginObject(kCompact);
  for (ClassId cls : schema.AllClasses()) {
    json.Key(schema.ClassName(cls)).BeginArray(kCompact);
    for (Individual individual : interpretation.ClassExtension(cls)) {
      json.Value(interpretation.IndividualName(individual));
    }
    json.End();
  }
  json.End();

  json.Key("relationships").BeginObject(kCompact);
  for (RelationshipId rel : schema.AllRelationships()) {
    json.Key(schema.RelationshipName(rel)).BeginArray(kCompact);
    for (const std::vector<Individual>& tuple :
         interpretation.RelationshipExtension(rel)) {
      json.BeginArray(kCompact);
      for (Individual member : tuple) {
        json.Value(interpretation.IndividualName(member));
      }
      json.End();
    }
    json.End();
  }
  return json.End().End().str();
}

std::string WitnessToDot(const CertifiedWitness& witness) {
  const Interpretation& interpretation = witness.interpretation();
  const Schema& schema = interpretation.schema();

  // DOT string literals escape like JSON for the characters we emit.
  std::string dot = "digraph witness {\n  rankdir=LR;\n";
  for (Individual individual = 0; individual < interpretation.domain_size();
       ++individual) {
    std::string classes;
    for (ClassId cls : schema.AllClasses()) {
      if (interpretation.IsInstanceOf(cls, individual)) {
        if (!classes.empty()) {
          classes += ", ";
        }
        classes += schema.ClassName(cls);
      }
    }
    dot += "  i" + std::to_string(individual) + " [label=\"" +
           JsonEscape(interpretation.IndividualName(individual)) + "\\n{" +
           JsonEscape(classes) + "}\"];\n";
  }
  int tuple_id = 0;
  for (RelationshipId rel : schema.AllRelationships()) {
    const std::vector<RoleId>& roles = schema.RolesOf(rel);
    for (const std::vector<Individual>& tuple :
         interpretation.RelationshipExtension(rel)) {
      std::string node = "t" + std::to_string(tuple_id++);
      dot += "  " + node + " [shape=box, label=\"" +
             JsonEscape(schema.RelationshipName(rel)) + "\"];\n";
      for (size_t k = 0; k < tuple.size(); ++k) {
        dot += "  " + node + " -> i" + std::to_string(tuple[k]) +
               " [label=\"" + JsonEscape(schema.RoleName(roles[k])) +
               "\"];\n";
      }
    }
  }
  dot += "}\n";
  return dot;
}

}  // namespace crsat
