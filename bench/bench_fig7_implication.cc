// Reproduces the paper's Figure 7: "Inferences from the CR-diagram shown
// in Figure 2":
//
//   S |= Speaker <= Discussant
//   S |= maxc(Talk, Participates, U4) = 1
//   S |= maxc(Speaker, Holds, U1) = 1
//
// plus the tightest implied cardinality bounds the Section 4 machinery can
// derive for every legal (class, relationship, role) triple of the schema.

#include <iomanip>
#include <iostream>

#include "src/crsat.h"

namespace {

constexpr char kMeetingText[] = R"(
schema Meeting {
  class Speaker, Discussant, Talk;
  isa Discussant < Speaker;
  relationship Holds(U1: Speaker, U2: Talk);
  relationship Participates(U3: Discussant, U4: Talk);
  card Speaker in Holds.U1 = (1, *);
  card Discussant in Holds.U1 = (0, 2);
  card Talk in Holds.U2 = (1, 1);
  card Discussant in Participates.U3 = (1, 1);
  card Talk in Participates.U4 = (1, *);
}
)";

bool g_all_match = true;

void Row(const std::string& inference, bool implied, bool expected) {
  bool match = implied == expected;
  g_all_match = g_all_match && match;
  std::cout << "  " << std::left << std::setw(44) << inference
            << (implied ? "implied    " : "not implied")
            << (match ? "  [MATCH]" : "  [MISMATCH]") << "\n";
}

}  // namespace

int main() {
  crsat::NamedSchema parsed = crsat::ParseSchema(kMeetingText).value();
  const crsat::Schema& schema = parsed.schema;
  crsat::ClassId speaker = schema.FindClass("Speaker").value();
  crsat::ClassId discussant = schema.FindClass("Discussant").value();
  crsat::ClassId talk = schema.FindClass("Talk").value();
  crsat::RelationshipId holds = schema.FindRelationship("Holds").value();
  crsat::RelationshipId participates =
      schema.FindRelationship("Participates").value();
  crsat::RoleId u1 = schema.FindRole("U1").value();
  crsat::RoleId u4 = schema.FindRole("U4").value();

  // ISA implication reads the maximal acceptable support of one checker.
  crsat::Expansion expansion = crsat::Expansion::Build(schema).value();
  crsat::SatisfiabilityChecker checker(expansion);

  std::cout << "=== Figure 7: inferences from the meeting schema ===\n\n";
  Row("S |= Speaker <= Discussant",
      crsat::ImplicationChecker::ImpliesIsa(checker, speaker, discussant)
          .value(),
      /*expected=*/true);
  Row("S |= maxc(Talk, Participates, U4) = 1",
      crsat::ImplicationChecker::ImpliesMaxCardinality(schema, talk,
                                                       participates, u4, 1)
          .value(),
      /*expected=*/true);
  Row("S |= maxc(Speaker, Holds, U1) = 1",
      crsat::ImplicationChecker::ImpliesMaxCardinality(schema, speaker,
                                                       holds, u1, 1)
          .value(),
      /*expected=*/true);

  // Negative controls: inferences the schema must NOT make.
  Row("S |= Talk <= Speaker (control)",
      crsat::ImplicationChecker::ImpliesIsa(checker, talk, speaker).value(),
      /*expected=*/false);
  Row("S |= maxc(Speaker, Holds, U1) = 0 (control)",
      crsat::ImplicationChecker::ImpliesMaxCardinality(schema, speaker,
                                                       holds, u1, 0)
          .value(),
      /*expected=*/false);

  std::cout
      << "\nTightest implied cardinalities (declared -> implied):\n";
  struct Triple {
    const char* label;
    crsat::ClassId cls;
    crsat::RelationshipId rel;
    crsat::RoleId role;
    const char* declared;
  };
  std::vector<Triple> triples = {
      {"(Speaker, Holds, U1)", speaker, holds, u1, "(1, *)"},
      {"(Discussant, Holds, U1)", discussant, holds, u1, "(0, 2)"},
      {"(Talk, Holds, U2)", talk, holds, schema.FindRole("U2").value(),
       "(1, 1)"},
      {"(Discussant, Participates, U3)", discussant, participates,
       schema.FindRole("U3").value(), "(1, 1)"},
      {"(Talk, Participates, U4)", talk, participates, u4, "(1, *)"},
  };
  for (const Triple& triple : triples) {
    std::uint64_t min = crsat::ImplicationChecker::TightestImpliedMin(
                            schema, triple.cls, triple.rel, triple.role)
                            .value();
    std::optional<std::uint64_t> max =
        crsat::ImplicationChecker::TightestImpliedMax(schema, triple.cls,
                                                      triple.rel, triple.role)
            .value();
    std::cout << "  " << std::left << std::setw(34) << triple.label
              << std::setw(10) << triple.declared << " -> (" << min << ", "
              << (max.has_value() ? std::to_string(*max) : "*") << ")\n";
  }

  std::cout << "\nOverall: " << (g_all_match ? "ALL MATCH" : "MISMATCHES")
            << "\n";
  return g_all_match ? 0 : 1;
}
