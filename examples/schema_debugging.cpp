// Schema debugging: the paper's Section 5 sketches "a technique that
// provides the designer with a minimum number of constraints that are
// unsatisfiable, thus supporting her in schema debugging". This example
// runs that workflow on two schemas:
//
//  1. the finitely-unsatisfiable diagram of Figure 1, and
//  2. the meeting schema after the Section 3.3 refinement
//     minc(Discussant, Holds, U1) = 2, which silently empties every class.
//
// For each, the minimal unsatisfiable core is printed: removing any single
// listed constraint repairs the class.

#include <cstdlib>
#include <iostream>

#include "src/crsat.h"

namespace {

constexpr char kFigure1Text[] = R"(
schema Figure1 {
  class C, D;
  isa D < C;
  relationship R(V1: C, V2: D);
  card C in R.V1 = (2, *);
  card D in R.V2 = (0, 1);
}
)";

constexpr char kEagerMeetingText[] = R"(
schema EagerMeeting {
  class Speaker, Discussant, Talk;
  isa Discussant < Speaker;
  relationship Holds(U1: Speaker, U2: Talk);
  relationship Participates(U3: Discussant, U4: Talk);
  card Speaker in Holds.U1 = (1, *);
  card Discussant in Holds.U1 = (2, 2);   // the Section 3.3 refinement
  card Talk in Holds.U2 = (1, 1);
  card Discussant in Participates.U3 = (1, 1);
  card Talk in Participates.U4 = (1, *);
}
)";

int DebugSchema(const char* text) {
  crsat::Result<crsat::NamedSchema> parsed = crsat::ParseSchema(text);
  if (!parsed.ok()) {
    std::cerr << "parse failed: " << parsed.status() << "\n";
    return EXIT_FAILURE;
  }
  const crsat::Schema& schema = parsed->schema;
  std::cout << "=== Schema '" << parsed->name << "' ===\n";

  crsat::Result<crsat::Expansion> expansion = crsat::Expansion::Build(schema);
  if (!expansion.ok()) {
    std::cerr << "expansion failed: " << expansion.status() << "\n";
    return EXIT_FAILURE;
  }
  crsat::SatisfiabilityChecker checker(*expansion);
  std::vector<bool> satisfiable = checker.SatisfiableClasses().value();

  bool any_unsat = false;
  for (crsat::ClassId cls : schema.AllClasses()) {
    if (satisfiable[cls.value]) {
      continue;
    }
    any_unsat = true;
    std::cout << "Class '" << schema.ClassName(cls)
              << "' is unsatisfiable. Minimal explanation:\n";
    crsat::Result<crsat::UnsatCore> core =
        crsat::MinimizeUnsatCore(schema, cls);
    if (!core.ok()) {
      std::cerr << "  core extraction failed: " << core.status() << "\n";
      return EXIT_FAILURE;
    }
    for (const crsat::CoreConstraint& constraint : core->constraints) {
      std::cout << "  - " << constraint.description << "\n";
    }
    std::cout << "  (removing any one of these " << core->constraints.size()
              << " constraints makes the class satisfiable)\n";
    crsat::Result<std::vector<crsat::RepairSuggestion>> repairs =
        crsat::SuggestRepairs(schema, cls, *core);
    if (repairs.ok()) {
      std::cout << "  Smallest single-constraint repairs:\n";
      for (const crsat::RepairSuggestion& suggestion : *repairs) {
        std::cout << "    * " << suggestion.description << "\n";
      }
    }
  }
  if (!any_unsat) {
    std::cout << "All classes are satisfiable; nothing to debug.\n";
  }
  std::cout << "\n";
  return EXIT_SUCCESS;
}

}  // namespace

int main() {
  if (DebugSchema(kFigure1Text) != EXIT_SUCCESS) {
    return EXIT_FAILURE;
  }
  return DebugSchema(kEagerMeetingText);
}
