// Reproduces the paper's running example across Figures 2-6:
//
//   Figure 2/3: the meeting CR-schema (DSL rendering of the CR-diagram),
//   Figure 4:   its expansion (compound classes/relationships + lifted
//               cardinalities),
//   Figure 5:   the system of disequations (both the paper's all-unknowns
//               presentation and the consistent-only system the reasoner
//               actually solves),
//   Figure 6:   an acceptable solution and a finite model derived from it,
//   Section 3.3 follow-up: adding minc(Discussant, Holds, U1) = 2 makes
//               the system unsolvable.
//
// Expected checks (from the paper):
//   - 5 consistent compound classes (C1, C3, C4, C5, C7),
//   - 12 consistent compound relationships for Holds, 6 for Participates,
//   - Speaker satisfiable, with a model of speaker-discussants and talks,
//   - the eager-discussant variant is class-unsatisfiable.

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

void Check(const std::string& what, bool condition) {
  std::cout << "  [" << (condition ? "MATCH" : "MISMATCH") << "] " << what
            << "\n";
  g_all_match = g_all_match && condition;
}

}  // namespace

int main() {
  crsat::NamedSchema parsed = crsat::ParseSchema(kMeetingText).value();
  const crsat::Schema& schema = parsed.schema;

  std::cout << "=== Figure 2/3: the meeting CR-schema ===\n\n"
            << crsat::SchemaToText(schema, parsed.name) << "\n";

  std::cout << "=== Figure 4: the expansion ===\n\n";
  crsat::Expansion expansion = crsat::Expansion::Build(schema).value();
  std::cout << expansion.ToString() << "\n";
  crsat::RelationshipId holds = schema.FindRelationship("Holds").value();
  crsat::RelationshipId participates =
      schema.FindRelationship("Participates").value();
  Check("5 consistent compound classes (paper: C1,C3,C4,C5,C7)",
        expansion.classes().size() == 5);
  Check("12 consistent compound relationships for Holds",
        expansion.RelationshipIndicesOf(holds).size() == 12);
  Check("6 consistent compound relationships for Participates",
        expansion.RelationshipIndicesOf(participates).size() == 6);

  std::cout << "\n=== Figure 5: the system of disequations ===\n\n";
  std::cout << "(a) Paper presentation, unknowns for all "
            << expansion.total_compound_class_count()
            << " compound classes and 49+49 compound relationships,\n"
            << "    inconsistent ones pinned to 0:\n\n";
  crsat::LinearSystem presentation =
      crsat::SystemBuilder::BuildPresentationSystem(schema).value();
  std::cout << presentation.ToString();
  std::cout << "\n(b) Consistent-only system actually solved ("
            << expansion.classes().size() << "+"
            << expansion.relationships().size() << " unknowns):\n\n";
  crsat::SatisfiabilityChecker checker(expansion);
  std::cout << checker.cr_system().system.ToString();

  std::cout << "\n=== Figure 6: an acceptable solution and its model ===\n\n";
  std::vector<bool> satisfiable = checker.SatisfiableClasses().value();
  Check("Speaker satisfiable", satisfiable[0]);
  Check("Discussant satisfiable", satisfiable[1]);
  Check("Talk satisfiable", satisfiable[2]);

  crsat::IntegerSolution solution =
      checker.AcceptableIntegerSolution().value();
  std::cout << "\nAcceptable integer solution (nonzero unknowns):\n";
  for (size_t i = 0; i < solution.class_counts.size(); ++i) {
    if (solution.class_counts[i].IsPositive()) {
      std::cout << "  Var(" << expansion.classes()[i].ToString(schema)
                << ") = " << solution.class_counts[i] << "\n";
    }
  }
  for (size_t i = 0; i < solution.rel_counts.size(); ++i) {
    if (solution.rel_counts[i].IsPositive()) {
      std::cout << "  Var(" << expansion.relationships()[i].ToString(schema)
                << ") = " << solution.rel_counts[i] << "\n";
    }
  }

  crsat::ClassId speaker = schema.FindClass("Speaker").value();
  const crsat::CertifiedWitness witness =
      crsat::WitnessSynthesizer(checker).Synthesize().value();
  const crsat::Interpretation& model = witness.interpretation();
  std::cout << "\nDerived finite model (paper's model has John, Mary and "
               "two talks):\n"
            << model.ToString();
  Check("model verifies against Definition 2.2",
        crsat::ModelChecker::IsModel(schema, model));
  // The paper's key structural property: every speaker is a discussant.
  crsat::ClassId discussant = schema.FindClass("Discussant").value();
  Check("speakers == discussants in the model",
        model.ClassExtension(speaker) == model.ClassExtension(discussant));

  std::cout << "\n=== Section 3.3 follow-up: eager discussants ===\n\n"
            << "Adding minc(Discussant, Holds, U1) = 2 ...\n";
  crsat::NamedSchema eager = crsat::ParseSchema(R"(
schema EagerMeeting {
  class Speaker, Discussant, Talk;
  isa Discussant < Speaker;
  relationship Holds(U1: Speaker, U2: Talk);
  relationship Participates(U3: Discussant, U4: Talk);
  card Speaker in Holds.U1 = (1, *);
  card Discussant in Holds.U1 = (2, 2);
  card Talk in Holds.U2 = (1, 1);
  card Discussant in Participates.U3 = (1, 1);
  card Talk in Participates.U4 = (1, *);
}
)")
                               .value();
  crsat::Expansion eager_expansion =
      crsat::Expansion::Build(eager.schema).value();
  crsat::SatisfiabilityChecker eager_checker(eager_expansion);
  std::vector<bool> eager_satisfiable =
      eager_checker.SatisfiableClasses().value();
  Check("system becomes unsolvable (all classes unsatisfiable)",
        !eager_satisfiable[0] && !eager_satisfiable[1] &&
            !eager_satisfiable[2]);

  std::cout << "\nOverall: " << (g_all_match ? "ALL MATCH" : "MISMATCHES")
            << "\n";
  return g_all_match ? 0 : 1;
}
