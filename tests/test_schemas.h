#ifndef CRSAT_TESTS_TEST_SCHEMAS_H_
#define CRSAT_TESTS_TEST_SCHEMAS_H_

#include "src/cr/schema.h"

namespace crsat {
namespace testing {

/// The paper's running example (Figures 2 and 3): a meeting with talks,
/// speakers, and discussants.
///
///   class Speaker, Discussant, Talk;
///   isa Discussant < Speaker;
///   relationship Holds(U1: Speaker, U2: Talk);
///   relationship Participates(U3: Discussant, U4: Talk);
///   card Speaker    in Holds.U1        = (1, *);
///   card Discussant in Holds.U1        = (0, 2);   // refinement
///   card Talk       in Holds.U2        = (1, 1);
///   card Discussant in Participates.U3 = (1, 1);
///   card Talk       in Participates.U4 = (1, *);
inline Schema MeetingSchema() {
  SchemaBuilder builder;
  builder.AddClass("Speaker");
  builder.AddClass("Discussant");
  builder.AddClass("Talk");
  builder.AddIsa("Discussant", "Speaker");
  builder.AddRelationship("Holds", {{"U1", "Speaker"}, {"U2", "Talk"}});
  builder.AddRelationship("Participates",
                          {{"U3", "Discussant"}, {"U4", "Talk"}});
  builder.SetCardinality("Speaker", "Holds", "U1", {1, std::nullopt});
  builder.SetCardinality("Discussant", "Holds", "U1", {0, 2});
  builder.SetCardinality("Talk", "Holds", "U2", {1, 1});
  builder.SetCardinality("Discussant", "Participates", "U3", {1, 1});
  builder.SetCardinality("Talk", "Participates", "U4", {1, std::nullopt});
  return builder.Build().value();
}

/// The meeting schema plus the Section 3.3 follow-up constraint
/// `minc(Discussant, Holds, U1) = 2`, which makes every class
/// unsatisfiable (the paper shows the system becomes unsolvable).
inline Schema MeetingSchemaWithEagerDiscussants() {
  SchemaBuilder builder;
  builder.AddClass("Speaker");
  builder.AddClass("Discussant");
  builder.AddClass("Talk");
  builder.AddIsa("Discussant", "Speaker");
  builder.AddRelationship("Holds", {{"U1", "Speaker"}, {"U2", "Talk"}});
  builder.AddRelationship("Participates",
                          {{"U3", "Discussant"}, {"U4", "Talk"}});
  builder.SetCardinality("Speaker", "Holds", "U1", {1, std::nullopt});
  builder.SetCardinality("Discussant", "Holds", "U1", {2, 2});
  builder.SetCardinality("Talk", "Holds", "U2", {1, 1});
  builder.SetCardinality("Discussant", "Participates", "U3", {1, 1});
  builder.SetCardinality("Talk", "Participates", "U4", {1, std::nullopt});
  return builder.Build().value();
}

/// The paper's Figure 1: a finitely unsatisfiable ER diagram. The
/// cardinalities force |tuples| >= 2|C| and |tuples| <= |D|, while
/// `D <= C` forces |D| <= |C|; so both classes are empty in every finite
/// model.
inline Schema Figure1Schema() {
  SchemaBuilder builder;
  builder.AddClass("C");
  builder.AddClass("D");
  builder.AddIsa("D", "C");
  builder.AddRelationship("R", {{"V1", "C"}, {"V2", "D"}});
  builder.SetCardinality("C", "R", "V1", {2, std::nullopt});
  builder.SetCardinality("D", "R", "V2", {0, 1});
  return builder.Build().value();
}

/// An ISA-free schema in the Lenzerini-Nobili fragment: employees work in
/// departments; every employee works in exactly one department and every
/// department has at least three employees.
inline Schema EmploymentSchema() {
  SchemaBuilder builder;
  builder.AddClass("Employee");
  builder.AddClass("Department");
  builder.AddRelationship("WorksIn", {{"W1", "Employee"}, {"W2", "Department"}});
  builder.SetCardinality("Employee", "WorksIn", "W1", {1, 1});
  builder.SetCardinality("Department", "WorksIn", "W2", {3, std::nullopt});
  return builder.Build().value();
}

/// The cardinalities of `IsaFreeUnsatSchema`, on classes A, B and
/// relationships R1(X1: A, X2: B), R2(Y1: A, Y2: B) the caller has added.
inline void SetIsaFreeUnsatCardinalities(SchemaBuilder& builder) {
  // R1 forces |B| = 2|A|; R2 forces |B| <= |A|/3.
  builder.SetCardinality("A", "R1", "X1", {2, 2});
  builder.SetCardinality("B", "R1", "X2", {1, 1});
  builder.SetCardinality("A", "R2", "Y1", {0, 1});
  builder.SetCardinality("B", "R2", "Y2", {3, std::nullopt});
}

/// An ISA-free unsatisfiable-class schema: every A pairs with exactly two
/// B's, every B with exactly one A, but every B also pairs with at least
/// three A's in a second relationship capped at one per A.
inline Schema IsaFreeUnsatSchema() {
  SchemaBuilder builder;
  builder.AddClass("A");
  builder.AddClass("B");
  builder.AddRelationship("R1", {{"X1", "A"}, {"X2", "B"}});
  builder.AddRelationship("R2", {{"Y1", "A"}, {"Y2", "B"}});
  SetIsaFreeUnsatCardinalities(builder);
  return builder.Build().value();
}

/// `IsaFreeUnsatSchema` plus a satisfiable bystander class C whose one
/// cardinality declaration has nothing to do with A: A's core leaves it
/// out. That declaration is the first one with `bystander_first`, the
/// last one otherwise; the class ids are A, B, C either way.
inline Schema IsaFreeUnsatSchemaWithBystander(bool bystander_first) {
  SchemaBuilder builder;
  builder.AddClass("A");
  builder.AddClass("B");
  builder.AddClass("C");
  builder.AddRelationship("R1", {{"X1", "A"}, {"X2", "B"}});
  builder.AddRelationship("R2", {{"Y1", "A"}, {"Y2", "B"}});
  builder.AddRelationship("R3", {{"Z1", "C"}, {"Z2", "C"}});
  if (bystander_first) {
    builder.SetCardinality("C", "R3", "Z1", {1, 1});
  }
  SetIsaFreeUnsatCardinalities(builder);
  if (!bystander_first) {
    builder.SetCardinality("C", "R3", "Z1", {1, 1});
  }
  return builder.Build().value();
}

}  // namespace testing
}  // namespace crsat

#endif  // CRSAT_TESTS_TEST_SCHEMAS_H_
