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

  std::string json = "{\"certified\":true";
  json += ",\"individuals\":" + std::to_string(stats.individuals);
  json += ",\"tuples\":" + std::to_string(stats.tuples);
  json += ",\"stats\":{\"integer_fast_path\":";
  json += stats.integer_fast_path ? "true" : "false";
  json += ",\"integer_exact_fallback\":";
  json += stats.integer_exact_fallback ? "true" : "false";
  json += ",\"scaling_attempts\":" + std::to_string(stats.scaling_attempts);
  json += ",\"flow_refinements\":" + std::to_string(stats.flow_refinements);
  json += "}";

  json += ",\"classes\":{";
  bool first_class = true;
  for (ClassId cls : schema.AllClasses()) {
    if (!first_class) {
      json += ",";
    }
    first_class = false;
    json += "\"" + JsonEscape(schema.ClassName(cls)) + "\":[";
    bool first_member = true;
    for (Individual individual : interpretation.ClassExtension(cls)) {
      if (!first_member) {
        json += ",";
      }
      first_member = false;
      json += "\"" + JsonEscape(interpretation.IndividualName(individual)) +
              "\"";
    }
    json += "]";
  }
  json += "}";

  json += ",\"relationships\":{";
  bool first_rel = true;
  for (RelationshipId rel : schema.AllRelationships()) {
    if (!first_rel) {
      json += ",";
    }
    first_rel = false;
    json += "\"" + JsonEscape(schema.RelationshipName(rel)) + "\":[";
    bool first_tuple = true;
    for (const std::vector<Individual>& tuple :
         interpretation.RelationshipExtension(rel)) {
      if (!first_tuple) {
        json += ",";
      }
      first_tuple = false;
      json += "[";
      for (size_t k = 0; k < tuple.size(); ++k) {
        if (k > 0) {
          json += ",";
        }
        json += "\"" + JsonEscape(interpretation.IndividualName(tuple[k])) +
                "\"";
      }
      json += "]";
    }
    json += "]";
  }
  json += "}}";
  return json;
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
