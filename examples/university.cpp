// A larger conceptual-design scenario: a university schema mixing ISA
// hierarchies, ternary relationships, refinements, and the Section 5
// extensions (disjointness and covering). This is the kind of schema a
// CASE tool would hand to crsat during conceptual database design
// (the paper's Section 1 motivation): the designer wants to know which
// classes can be populated, what the schema silently implies, and how
// much disjointness shrinks the reasoning problem.

#include <cstdlib>
#include <iostream>

#include "src/crsat.h"

namespace {

constexpr char kUniversityText[] = R"(
schema University {
  class Person, Student, Professor, PhDStudent, Course, Department, Room;

  isa Student < Person;
  isa Professor < Person;
  isa PhDStudent < Student;
  // PhD students teach, so they are also professors in this university.
  isa PhDStudent < Professor;

  // Students and rooms have nothing in common; neither do courses and
  // persons (Section 5 extensions; these also prune the expansion).
  disjoint Person, Course, Room;
  // Every person on record is a student or a professor.
  cover Person by Student, Professor;

  relationship Teaches(teacher: Professor, course: Course);
  relationship Enrolled(student: Student, enrolled_course: Course);
  relationship Lecture(lecture_course: Course, room: Room, dept: Department);

  // Every professor teaches 1..3 courses; every course is taught by
  // exactly one professor.
  card Professor in Teaches.teacher = (1, 3);
  card Course in Teaches.course = (1, 1);
  // PhD students are limited to one course (a refinement).
  card PhDStudent in Teaches.teacher = (1, 1);

  // Every course has at least 2 students; students take 1..5 courses.
  card Student in Enrolled.student = (1, 5);
  card Course in Enrolled.enrolled_course = (2, *);
  // PhD students audit at most 2 courses.
  card PhDStudent in Enrolled.student = (1, 2);

  // Every course gets exactly one lecture slot; rooms host at most 4;
  // departments run at least 1.
  card Course in Lecture.lecture_course = (1, 1);
  card Room in Lecture.room = (0, 4);
  card Department in Lecture.dept = (1, *);
}
)";

}  // namespace

int main() {
  crsat::Result<crsat::NamedSchema> parsed =
      crsat::ParseSchema(kUniversityText);
  if (!parsed.ok()) {
    std::cerr << "parse failed: " << parsed.status() << "\n";
    return EXIT_FAILURE;
  }
  const crsat::Schema& schema = parsed->schema;

  crsat::Result<crsat::Expansion> expansion = crsat::Expansion::Build(schema);
  if (!expansion.ok()) {
    std::cerr << "expansion failed: " << expansion.status() << "\n";
    return EXIT_FAILURE;
  }
  std::cout << "Expansion size: " << expansion->classes().size()
            << " consistent compound classes (of "
            << expansion->total_compound_class_count() << " total), "
            << expansion->relationships().size()
            << " consistent compound relationships.\n";

  // How much did the Section 5 extensions prune?
  crsat::ExpansionOptions no_extensions;
  no_extensions.use_extensions = false;
  crsat::Result<crsat::Expansion> unpruned =
      crsat::Expansion::Build(schema, no_extensions);
  if (unpruned.ok()) {
    std::cout << "Without disjointness/covering pruning it would be "
              << unpruned->classes().size() << " compound classes and "
              << unpruned->relationships().size()
              << " compound relationships.\n\n";
  }

  crsat::SatisfiabilityChecker checker(*expansion);
  std::vector<bool> satisfiable = checker.SatisfiableClasses().value();
  std::cout << "Class satisfiability:\n";
  for (crsat::ClassId cls : schema.AllClasses()) {
    std::cout << "  " << schema.ClassName(cls) << ": "
              << (satisfiable[cls.value] ? "satisfiable" : "UNSATISFIABLE")
              << "\n";
  }

  // Hidden consequences of the ISA/cardinality interaction.
  crsat::ClassId phd = schema.FindClass("PhDStudent").value();
  crsat::RelationshipId teaches = schema.FindRelationship("Teaches").value();
  crsat::RelationshipId enrolled =
      schema.FindRelationship("Enrolled").value();
  crsat::RoleId teacher = schema.FindRole("teacher").value();
  crsat::RoleId student_role = schema.FindRole("student").value();

  std::cout << "\nImplied bounds for PhD students:\n";
  crsat::Result<std::uint64_t> min_teaching =
      crsat::ImplicationChecker::TightestImpliedMin(schema, phd, teaches,
                                                    teacher);
  crsat::Result<std::optional<std::uint64_t>> max_teaching =
      crsat::ImplicationChecker::TightestImpliedMax(schema, phd, teaches,
                                                    teacher,
                                                    /*search_limit=*/8);
  if (min_teaching.ok() && max_teaching.ok()) {
    std::cout << "  teaching load: (" << *min_teaching << ", "
              << (max_teaching->has_value() ? std::to_string(**max_teaching)
                                            : "*")
              << ")\n";
  }
  crsat::Result<std::optional<std::uint64_t>> max_enrollment =
      crsat::ImplicationChecker::TightestImpliedMax(schema, phd, enrolled,
                                                    student_role,
                                                    /*search_limit=*/8);
  if (max_enrollment.ok()) {
    std::cout << "  enrollment: at most "
              << (max_enrollment->has_value()
                      ? std::to_string(**max_enrollment)
                      : "unbounded")
              << " courses\n";
  }

  // Materialize a sample database state.
  crsat::Result<crsat::CertifiedWitness> witness =
      crsat::WitnessSynthesizer(checker).Synthesize();
  if (!witness.ok()) {
    std::cerr << "model construction failed: " << witness.status() << "\n";
    return EXIT_FAILURE;
  }
  const crsat::Interpretation& model = witness->interpretation();
  crsat::ClassId course = schema.FindClass("Course").value();
  crsat::ClassId professor = schema.FindClass("Professor").value();
  std::cout << "\nSample database state populating PhDStudent: "
            << model.domain_size() << " individuals, "
            << model.ClassExtension(professor).size() << " professors, "
            << model.ClassExtension(course).size() << " courses.\n";
  std::cout << "Model verifies: "
            << (crsat::ModelChecker::IsModel(schema, model) ? "yes" : "NO")
            << "\n";
  return EXIT_SUCCESS;
}
