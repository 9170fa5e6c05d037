#include "src/cr/schema_text.h"

#include "src/cr/text_lexer.h"

#include <utility>
#include <vector>

namespace crsat {

namespace {

using internal_text::Lexer;
using internal_text::Token;
using internal_text::TokenCursor;
using internal_text::TokenKind;

class Parser : private TokenCursor {
 public:
  Parser(std::vector<Token> tokens, const ParseSchemaOptions& options)
      : TokenCursor(std::move(tokens)) {
    builder_.set_permit_empty_ranges(options.permit_empty_ranges);
  }

  Result<NamedSchema> Parse() {
    CRSAT_RETURN_IF_ERROR(ExpectKeyword("schema"));
    CRSAT_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier("schema name"));
    CRSAT_RETURN_IF_ERROR(ExpectPunct("{"));
    while (!IsPunct("}")) {
      CRSAT_RETURN_IF_ERROR(ParseDeclaration());
    }
    CRSAT_RETURN_IF_ERROR(ExpectPunct("}"));
    if (Current().kind != TokenKind::kEnd) {
      return ErrorHere("expected end of input after '}'");
    }
    CRSAT_ASSIGN_OR_RETURN(Schema schema, builder_.Build());
    // A successful Build keeps every pending declaration, so the location
    // vectors recorded during parsing line up 1:1 with the schema's
    // declaration lists.
    return NamedSchema{std::move(name), std::move(schema),
                       std::move(source_map_)};
  }

 private:
  SourceLocation Here() const {
    return SourceLocation{Current().line, Current().column};
  }

  Status ParseDeclaration() {
    SourceLocation loc = Here();
    CRSAT_ASSIGN_OR_RETURN(std::string keyword,
                           ExpectIdentifier("declaration keyword"));
    if (keyword == "class") {
      return ParseClassDeclaration();
    }
    if (keyword == "isa") {
      return ParseIsaDeclaration(loc);
    }
    if (keyword == "relationship") {
      return ParseRelationshipDeclaration(loc);
    }
    if (keyword == "card") {
      return ParseCardDeclaration(loc);
    }
    if (keyword == "disjoint") {
      return ParseDisjointDeclaration(loc);
    }
    if (keyword == "cover") {
      return ParseCoverDeclaration(loc);
    }
    return ErrorHere("unknown declaration keyword '" + keyword + "'");
  }

  Status ParseClassDeclaration() {
    while (true) {
      SourceLocation loc = Here();
      CRSAT_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier("class name"));
      builder_.AddClass(name);
      source_map_.classes.push_back(loc);
      if (IsPunct(",")) {
        Consume();
        continue;
      }
      return ExpectPunct(";");
    }
  }

  Status ParseIsaDeclaration(SourceLocation loc) {
    CRSAT_ASSIGN_OR_RETURN(std::string sub, ExpectIdentifier("subclass name"));
    CRSAT_RETURN_IF_ERROR(ExpectPunct("<"));
    CRSAT_ASSIGN_OR_RETURN(std::string super,
                           ExpectIdentifier("superclass name"));
    builder_.AddIsa(sub, super);
    source_map_.isa_statements.push_back(loc);
    return ExpectPunct(";");
  }

  Status ParseRelationshipDeclaration(SourceLocation loc) {
    CRSAT_ASSIGN_OR_RETURN(std::string name,
                           ExpectIdentifier("relationship name"));
    CRSAT_RETURN_IF_ERROR(ExpectPunct("("));
    std::vector<std::pair<std::string, std::string>> roles;
    while (true) {
      SourceLocation role_loc = Here();
      CRSAT_ASSIGN_OR_RETURN(std::string role, ExpectIdentifier("role name"));
      CRSAT_RETURN_IF_ERROR(ExpectPunct(":"));
      CRSAT_ASSIGN_OR_RETURN(std::string cls,
                             ExpectIdentifier("primary class name"));
      roles.emplace_back(std::move(role), std::move(cls));
      source_map_.roles.push_back(role_loc);
      if (IsPunct(",")) {
        Consume();
        continue;
      }
      break;
    }
    CRSAT_RETURN_IF_ERROR(ExpectPunct(")"));
    builder_.AddRelationship(name, roles);
    source_map_.relationships.push_back(loc);
    return ExpectPunct(";");
  }

  Status ParseCardDeclaration(SourceLocation loc) {
    CRSAT_ASSIGN_OR_RETURN(std::string cls, ExpectIdentifier("class name"));
    CRSAT_RETURN_IF_ERROR(ExpectKeyword("in"));
    CRSAT_ASSIGN_OR_RETURN(std::string rel,
                           ExpectIdentifier("relationship name"));
    CRSAT_RETURN_IF_ERROR(ExpectPunct("."));
    CRSAT_ASSIGN_OR_RETURN(std::string role, ExpectIdentifier("role name"));
    CRSAT_RETURN_IF_ERROR(ExpectPunct("="));
    CRSAT_RETURN_IF_ERROR(ExpectPunct("("));
    CRSAT_ASSIGN_OR_RETURN(std::uint64_t min, ExpectNumber("minimum"));
    CRSAT_RETURN_IF_ERROR(ExpectPunct(","));
    Cardinality cardinality;
    cardinality.min = min;
    if (IsPunct("*")) {
      Consume();
    } else {
      CRSAT_ASSIGN_OR_RETURN(std::uint64_t max, ExpectNumber("maximum"));
      cardinality.max = max;
    }
    CRSAT_RETURN_IF_ERROR(ExpectPunct(")"));
    builder_.SetCardinality(cls, rel, role, cardinality);
    source_map_.cardinality_declarations.push_back(loc);
    return ExpectPunct(";");
  }

  Status ParseDisjointDeclaration(SourceLocation loc) {
    std::vector<std::string> classes;
    while (true) {
      CRSAT_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier("class name"));
      classes.push_back(std::move(name));
      if (IsPunct(",")) {
        Consume();
        continue;
      }
      break;
    }
    builder_.AddDisjointness(classes);
    source_map_.disjointness_constraints.push_back(loc);
    return ExpectPunct(";");
  }

  Status ParseCoverDeclaration(SourceLocation loc) {
    CRSAT_ASSIGN_OR_RETURN(std::string covered,
                           ExpectIdentifier("covered class name"));
    CRSAT_RETURN_IF_ERROR(ExpectKeyword("by"));
    std::vector<std::string> coverers;
    while (true) {
      CRSAT_ASSIGN_OR_RETURN(std::string name,
                             ExpectIdentifier("coverer class name"));
      coverers.push_back(std::move(name));
      if (IsPunct(",")) {
        Consume();
        continue;
      }
      break;
    }
    builder_.AddCovering(covered, coverers);
    source_map_.covering_constraints.push_back(loc);
    return ExpectPunct(";");
  }

  SchemaBuilder builder_;
  SchemaSourceMap source_map_;
};

// "A, B, C".
std::string ClassList(const Schema& schema, const std::vector<ClassId>& list) {
  std::string text;
  for (size_t i = 0; i < list.size(); ++i) {
    if (i > 0) {
      text += ", ";
    }
    text += schema.ClassName(list[i]);
  }
  return text;
}

}  // namespace

Result<NamedSchema> ParseSchema(std::string_view text) {
  return ParseSchema(text, ParseSchemaOptions{});
}

Result<NamedSchema> ParseSchema(std::string_view text,
                                const ParseSchemaOptions& options) {
  Lexer lexer(text);
  CRSAT_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  Parser parser(std::move(tokens), options);
  return parser.Parse();
}

std::string IsaToText(const Schema& schema, const IsaStatement& isa) {
  return "isa " + schema.ClassName(isa.subclass) + " < " +
         schema.ClassName(isa.superclass);
}

std::string CardinalityToText(const Schema& schema,
                              const CardinalityDeclaration& decl) {
  return "card " + schema.ClassName(decl.cls) + " in " +
         schema.RelationshipName(decl.rel) + "." +
         schema.RoleName(decl.role) + " = " + decl.cardinality.ToString();
}

std::string DisjointnessToText(const Schema& schema,
                               const DisjointnessConstraint& group) {
  return "disjoint " + ClassList(schema, group.classes);
}

std::string CoveringToText(const Schema& schema,
                           const CoveringConstraint& constraint) {
  return "cover " + schema.ClassName(constraint.covered) + " by " +
         ClassList(schema, constraint.coverers);
}

std::string SchemaToText(const Schema& schema, const std::string& name) {
  std::string text = "schema " + name + " {\n";
  for (ClassId cls : schema.AllClasses()) {
    text += "  class " + schema.ClassName(cls) + ";\n";
  }
  for (const IsaStatement& isa : schema.isa_statements()) {
    text += "  " + IsaToText(schema, isa) + ";\n";
  }
  for (RelationshipId rel : schema.AllRelationships()) {
    text += "  relationship " + schema.RelationshipName(rel) + "(";
    const std::vector<RoleId>& roles = schema.RolesOf(rel);
    for (size_t k = 0; k < roles.size(); ++k) {
      if (k > 0) {
        text += ", ";
      }
      text += schema.RoleName(roles[k]) + ": " +
              schema.ClassName(schema.PrimaryClass(roles[k]));
    }
    text += ");\n";
  }
  for (const CardinalityDeclaration& decl :
       schema.cardinality_declarations()) {
    text += "  " + CardinalityToText(schema, decl) + ";\n";
  }
  for (const DisjointnessConstraint& group :
       schema.disjointness_constraints()) {
    text += "  " + DisjointnessToText(schema, group) + ";\n";
  }
  for (const CoveringConstraint& constraint : schema.covering_constraints()) {
    text += "  " + CoveringToText(schema, constraint) + ";\n";
  }
  text += "}\n";
  return text;
}

std::string SchemaToDot(const Schema& schema, const std::string& name) {
  std::string dot = "digraph \"" + name + "\" {\n";
  dot += "  rankdir=TB;\n";
  dot += "  node [fontname=\"Helvetica\"];\n";

  for (ClassId cls : schema.AllClasses()) {
    dot += "  \"" + schema.ClassName(cls) + "\" [shape=box];\n";
  }
  for (RelationshipId rel : schema.AllRelationships()) {
    dot += "  \"" + schema.RelationshipName(rel) + "\" [shape=diamond];\n";
  }

  // ISA: solid arrow from subclass to superclass (the paper's Figure 1/2
  // arrow direction).
  for (const IsaStatement& isa : schema.isa_statements()) {
    dot += "  \"" + schema.ClassName(isa.subclass) + "\" -> \"" +
           schema.ClassName(isa.superclass) + "\" [arrowhead=onormal];\n";
  }

  // Role edges: primary class to relationship, labeled with role name and
  // the primary class's declared cardinality.
  for (RelationshipId rel : schema.AllRelationships()) {
    for (RoleId role : schema.RolesOf(rel)) {
      ClassId primary = schema.PrimaryClass(role);
      Cardinality cardinality = schema.GetCardinality(primary, rel, role);
      dot += "  \"" + schema.ClassName(primary) + "\" -> \"" +
             schema.RelationshipName(rel) + "\" [dir=none, label=\"" +
             schema.RoleName(role);
      if (!cardinality.IsDefault()) {
        dot += " " + cardinality.ToString();
      }
      dot += "\"];\n";
    }
  }

  // Refinements (declarations on proper subclasses): dashed edges, as in
  // the paper's Figure 2 (Discussant -- Holds).
  for (const CardinalityDeclaration& decl :
       schema.cardinality_declarations()) {
    if (decl.cls == schema.PrimaryClass(decl.role)) {
      continue;
    }
    dot += "  \"" + schema.ClassName(decl.cls) + "\" -> \"" +
           schema.RelationshipName(decl.rel) +
           "\" [dir=none, style=dashed, label=\"" + schema.RoleName(decl.role) +
           " " + decl.cardinality.ToString() + "\"];\n";
  }

  // Section 5 extensions as annotation nodes.
  int annotation = 0;
  for (const DisjointnessConstraint& group :
       schema.disjointness_constraints()) {
    std::string node = "__disjoint" + std::to_string(annotation++);
    dot += "  \"" + node +
           "\" [shape=circle, label=\"x\", width=0.25, fixedsize=true];\n";
    for (ClassId cls : group.classes) {
      dot += "  \"" + node + "\" -> \"" + schema.ClassName(cls) +
             "\" [dir=none, style=dotted];\n";
    }
  }
  for (const CoveringConstraint& constraint : schema.covering_constraints()) {
    std::string node = "__cover" + std::to_string(annotation++);
    dot += "  \"" + node +
           "\" [shape=circle, label=\"U\", width=0.25, fixedsize=true];\n";
    dot += "  \"" + schema.ClassName(constraint.covered) + "\" -> \"" + node +
           "\" [dir=none, style=dotted];\n";
    for (ClassId cls : constraint.coverers) {
      dot += "  \"" + node + "\" -> \"" + schema.ClassName(cls) +
             "\" [style=dotted];\n";
    }
  }

  dot += "}\n";
  return dot;
}

}  // namespace crsat
