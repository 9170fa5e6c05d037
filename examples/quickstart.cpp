// Quickstart: the paper's meeting example end to end.
//
// Parses the CR-schema of Figure 2/3 from DSL text, checks which classes
// are finitely satisfiable, materializes an actual database state (the
// analogue of Figure 6), and asks the implication questions of Figure 7.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdlib>
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

}  // namespace

int main() {
  // 1. Parse.
  crsat::Result<crsat::NamedSchema> parsed = crsat::ParseSchema(kMeetingText);
  if (!parsed.ok()) {
    std::cerr << "parse failed: " << parsed.status() << "\n";
    return EXIT_FAILURE;
  }
  const crsat::Schema& schema = parsed->schema;
  std::cout << "Loaded schema '" << parsed->name << "' with "
            << schema.num_classes() << " classes and "
            << schema.num_relationships() << " relationships.\n\n";

  // 2. Expand (Section 3.1 of the paper) and build the reasoner.
  crsat::Result<crsat::Expansion> expansion = crsat::Expansion::Build(schema);
  if (!expansion.ok()) {
    std::cerr << "expansion failed: " << expansion.status() << "\n";
    return EXIT_FAILURE;
  }
  crsat::SatisfiabilityChecker checker(*expansion);

  // 3. Class satisfiability (Theorem 3.3).
  std::cout << "Class satisfiability:\n";
  crsat::Result<std::vector<bool>> satisfiable = checker.SatisfiableClasses();
  if (!satisfiable.ok()) {
    std::cerr << "satisfiability check failed: " << satisfiable.status()
              << "\n";
    return EXIT_FAILURE;
  }
  for (crsat::ClassId cls : schema.AllClasses()) {
    std::cout << "  " << schema.ClassName(cls) << ": "
              << ((*satisfiable)[cls.value] ? "satisfiable" : "UNSATISFIABLE")
              << "\n";
  }

  // 4. Materialize a model (the constructive side of Figure 6).
  crsat::ClassId speaker = schema.FindClass("Speaker").value();
  crsat::Result<crsat::CertifiedWitness> witness =
      crsat::WitnessSynthesizer(checker).Synthesize();
  if (!witness.ok()) {
    std::cerr << "model construction failed: " << witness.status() << "\n";
    return EXIT_FAILURE;
  }
  std::cout << "\nA finite model populating Speaker:\n"
            << witness->interpretation().ToString();

  // 5. Implication queries (Figure 7).
  crsat::ClassId discussant = schema.FindClass("Discussant").value();
  crsat::ClassId talk = schema.FindClass("Talk").value();
  crsat::RelationshipId holds = schema.FindRelationship("Holds").value();
  crsat::RelationshipId participates =
      schema.FindRelationship("Participates").value();
  crsat::RoleId u1 = schema.FindRole("U1").value();
  crsat::RoleId u4 = schema.FindRole("U4").value();

  std::cout << "\nImplied constraints (Figure 7):\n";
  std::cout << "  Speaker <= Discussant: "
            << (crsat::ImplicationChecker::ImpliesIsa(checker, speaker,
                                                      discussant)
                        .value()
                    ? "implied"
                    : "not implied")
            << "\n";
  std::cout << "  maxc(Talk, Participates, U4) = 1: "
            << (crsat::ImplicationChecker::ImpliesMaxCardinality(
                    schema, talk, participates, u4, 1)
                        .value()
                    ? "implied"
                    : "not implied")
            << "\n";
  std::cout << "  maxc(Speaker, Holds, U1) = 1: "
            << (crsat::ImplicationChecker::ImpliesMaxCardinality(
                    schema, speaker, holds, u1, 1)
                        .value()
                    ? "implied"
                    : "not implied")
            << "\n";

  crsat::Result<std::uint64_t> tightest_min =
      crsat::ImplicationChecker::TightestImpliedMin(schema, speaker, holds,
                                                    u1);
  crsat::Result<std::optional<std::uint64_t>> tightest_max =
      crsat::ImplicationChecker::TightestImpliedMax(schema, speaker, holds,
                                                    u1);
  if (tightest_min.ok() && tightest_max.ok()) {
    std::cout << "  tightest implied cardinality of (Speaker, Holds, U1): ("
              << *tightest_min << ", "
              << (tightest_max->has_value() ? std::to_string(**tightest_max)
                                            : "*")
              << ")  [declared: (1, *)]\n";
  }
  return EXIT_SUCCESS;
}
