// End-to-end pipeline tests: DSL text -> schema -> expansion -> system ->
// satisfiability -> model / implication / debugging, retracing the paper's
// whole narrative on its own examples.

#include <gtest/gtest.h>

#include "src/crsat.h"

namespace crsat {
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

TEST(IntegrationTest, PaperNarrativeEndToEnd) {
  // Section 2: parse the schema of Figure 3.
  NamedSchema parsed = ParseSchema(kMeetingText).value();
  const Schema& schema = parsed.schema;

  // Section 3.1: the expansion of Figure 4.
  Expansion expansion = Expansion::Build(schema).value();
  EXPECT_EQ(expansion.classes().size(), 5u);
  EXPECT_EQ(expansion.relationships().size(), 18u);

  // Section 3.2: the disequation system of Figure 5 (consistent part).
  SatisfiabilityChecker checker(expansion);
  EXPECT_EQ(checker.cr_system().system.num_variables(), 23);

  // Section 3.3 / Theorem 3.3: Speaker is satisfiable; Figure 6's model.
  ClassId speaker = schema.FindClass("Speaker").value();
  EXPECT_TRUE(checker.IsClassSatisfiable(speaker).value());
  const CertifiedWitness witness =
      WitnessSynthesizer(checker).Synthesize().value();
  const Interpretation& model = witness.interpretation();
  EXPECT_TRUE(ModelChecker::IsModel(schema, model));
  EXPECT_FALSE(model.ClassExtension(speaker).empty());

  // Section 4 / Figure 7: the three inferences.
  ClassId discussant = schema.FindClass("Discussant").value();
  ClassId talk = schema.FindClass("Talk").value();
  RelationshipId holds = schema.FindRelationship("Holds").value();
  RelationshipId participates =
      schema.FindRelationship("Participates").value();
  RoleId u1 = schema.FindRole("U1").value();
  RoleId u4 = schema.FindRole("U4").value();
  EXPECT_TRUE(
      ImplicationChecker::ImpliesIsa(checker, speaker, discussant).value());
  EXPECT_TRUE(ImplicationChecker::ImpliesMaxCardinality(schema, talk,
                                                        participates, u4, 1)
                  .value());
  EXPECT_TRUE(ImplicationChecker::ImpliesMaxCardinality(schema, speaker,
                                                        holds, u1, 1)
                  .value());
}

TEST(IntegrationTest, Section33FollowUpThroughTheDsl) {
  // Adding the eager-discussant refinement through DSL text makes the
  // schema class-unsatisfiable, and the unsat core explains why.
  constexpr char kEagerText[] = R"(
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
)";
  NamedSchema parsed = ParseSchema(kEagerText).value();
  const Schema& schema = parsed.schema;
  Expansion expansion = Expansion::Build(schema).value();
  SatisfiabilityChecker checker(expansion);
  ClassId speaker = schema.FindClass("Speaker").value();
  EXPECT_FALSE(checker.IsClassSatisfiable(speaker).value());
  UnsatCore core = MinimizeUnsatCore(schema, speaker).value();
  EXPECT_FALSE(core.constraints.empty());
  // The eager refinement is part of every explanation.
  bool mentions_refinement = false;
  for (const CoreConstraint& constraint : core.constraints) {
    if (constraint.description.find("(2, 2)") != std::string::npos) {
      mentions_refinement = true;
    }
  }
  EXPECT_TRUE(mentions_refinement);
}

TEST(IntegrationTest, Figure1ThroughTheDsl) {
  constexpr char kFigure1Text[] = R"(
schema Figure1 {
  class C, D;
  isa D < C;
  relationship R(V1: C, V2: D);
  card C in R.V1 = (2, *);
  card D in R.V2 = (0, 1);
}
)";
  NamedSchema parsed = ParseSchema(kFigure1Text).value();
  Expansion expansion = Expansion::Build(parsed.schema).value();
  SatisfiabilityChecker checker(expansion);
  std::vector<bool> satisfiable = checker.SatisfiableClasses().value();
  EXPECT_FALSE(satisfiable[0]);
  EXPECT_FALSE(satisfiable[1]);
}

TEST(IntegrationTest, Section5DisjointnessShrinksSystemWithoutChangingVerdicts) {
  // The paper's closing observation: declaring Speaker and Talk disjoint
  // "leads to a system of disequations with just a few unknowns".
  NamedSchema parsed = ParseSchema(kMeetingText).value();
  SchemaBuilder builder = parsed.schema.ToBuilder();
  builder.AddDisjointness({"Speaker", "Talk"});
  Schema pruned_schema = builder.Build().value();

  Expansion full = Expansion::Build(parsed.schema).value();
  Expansion pruned = Expansion::Build(pruned_schema).value();
  SatisfiabilityChecker full_checker(full);
  SatisfiabilityChecker pruned_checker(pruned);
  EXPECT_LT(pruned_checker.cr_system().system.num_variables(),
            full_checker.cr_system().system.num_variables());
  // The verdicts for the meeting schema do not depend on speaker/talk
  // overlap: all classes stay satisfiable.
  EXPECT_EQ(full_checker.SatisfiableClasses().value(),
            pruned_checker.SatisfiableClasses().value());
}

TEST(IntegrationTest, RoundTripModelThroughToString) {
  NamedSchema parsed = ParseSchema(kMeetingText).value();
  Expansion expansion = Expansion::Build(parsed.schema).value();
  SatisfiabilityChecker checker(expansion);
  ClassId talk = parsed.schema.FindClass("Talk").value();
  const CertifiedWitness witness =
      WitnessSynthesizer(checker).Synthesize().value();
  EXPECT_FALSE(witness.interpretation().ClassExtension(talk).empty());
  std::string rendered = witness.interpretation().ToString();
  EXPECT_NE(rendered.find("Speaker = {"), std::string::npos);
  EXPECT_NE(rendered.find("Holds = {"), std::string::npos);
}

TEST(IntegrationTest, ObjectOrientedReadingOfTheModel) {
  // Section 1: "by interpreting relationships as attributes, we directly
  // derive a method applicable to object-oriented data models". An OO
  // class with a mandatory single-valued attribute is a binary
  // relationship with (1,1) on the owner side.
  constexpr char kOoText[] = R"(
schema OoExample {
  class Object, Employee, Manager, Department;
  isa Employee < Object;
  isa Manager < Employee;
  relationship DeptAttr(owner: Employee, value: Department);
  card Employee in DeptAttr.owner = (1, 1);
  // Managers additionally head a department; every department has
  // exactly one head, and heads manage at most two departments.
  relationship HeadsAttr(head: Manager, headed: Department);
  card Manager in HeadsAttr.head = (1, 2);
  card Department in HeadsAttr.headed = (1, 1);
}
)";
  NamedSchema parsed = ParseSchema(kOoText).value();
  Expansion expansion = Expansion::Build(parsed.schema).value();
  SatisfiabilityChecker checker(expansion);
  std::vector<bool> satisfiable = checker.SatisfiableClasses().value();
  for (int c = 0; c < parsed.schema.num_classes(); ++c) {
    EXPECT_TRUE(satisfiable[c]) << parsed.schema.ClassName(ClassId(c));
  }
  // Implied: at least half as many managers as departments... expressed as
  // a cardinality inference: a department's head attribute is mandatory.
  ClassId manager = parsed.schema.FindClass("Manager").value();
  RelationshipId heads = parsed.schema.FindRelationship("HeadsAttr").value();
  RoleId head_role = parsed.schema.FindRole("head").value();
  EXPECT_TRUE(ImplicationChecker::ImpliesMinCardinality(
                  parsed.schema, manager, heads, head_role, 1)
                  .value());
}

}  // namespace
}  // namespace crsat
