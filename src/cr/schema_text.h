#ifndef CRSAT_CR_SCHEMA_TEXT_H_
#define CRSAT_CR_SCHEMA_TEXT_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/base/result.h"
#include "src/cr/schema.h"
#include "src/cr/source_location.h"

namespace crsat {

/// Source positions for every declaration of a parsed schema, so
/// diagnostics (src/analysis/) can point back into the DSL text. Each
/// vector parallels the corresponding `Schema` accessor: entries are
/// indexed by id value (classes, relationships, roles) or declaration
/// order (ISA, cardinality, disjointness, covering). All vectors are empty
/// for schemas that were built programmatically.
struct SchemaSourceMap {
  std::vector<SourceLocation> classes;
  std::vector<SourceLocation> relationships;
  std::vector<SourceLocation> roles;
  std::vector<SourceLocation> isa_statements;
  std::vector<SourceLocation> cardinality_declarations;
  std::vector<SourceLocation> disjointness_constraints;
  std::vector<SourceLocation> covering_constraints;
};

/// A schema together with the name it was declared under and (when parsed
/// from text) the source positions of its declarations.
struct NamedSchema {
  std::string name;
  Schema schema;
  SchemaSourceMap source_map;
};

/// Knobs for `ParseSchema`.
struct ParseSchemaOptions {
  /// Accept `card ... = (m, n)` with `m > n`. Such a declaration forces
  /// the class empty; the default strict mode rejects it at build time,
  /// while the lint pipeline parses leniently so the `empty-range` rule
  /// can report it with a source position instead.
  bool permit_empty_ranges = false;
};

/// Parses the crsat schema DSL. The grammar (comments: `//` or `#` to end
/// of line):
///
///   schema Meeting {
///     class Speaker, Discussant, Talk;
///     isa Discussant < Speaker;
///     relationship Holds(U1: Speaker, U2: Talk);
///     relationship Participates(U3: Discussant, U4: Talk);
///     card Speaker in Holds.U1 = (1, *);      // * means "no maximum"
///     card Discussant in Holds.U1 = (0, 2);   // refinement on a subclass
///     card Talk in Holds.U2 = (1, 1);
///     card Discussant in Participates.U3 = (1, 1);
///     card Talk in Participates.U4 = (1, *);
///     disjoint Speaker, Talk;                 // Section 5 extension
///     cover Speaker by Discussant;            // Section 5 extension
///   }
///
/// All well-formedness rules of `SchemaBuilder` apply; errors carry
/// line/column information for syntax problems. The returned
/// `NamedSchema::source_map` records where each declaration appeared.
Result<NamedSchema> ParseSchema(std::string_view text);

/// As above, with parsing knobs (see `ParseSchemaOptions`).
Result<NamedSchema> ParseSchema(std::string_view text,
                                const ParseSchemaOptions& options);

/// Renders `schema` back into DSL text that `ParseSchema` accepts
/// (round-trips up to formatting).
std::string SchemaToText(const Schema& schema, const std::string& name);

/// One declaration of `schema` as the DSL writes it, without the closing
/// `;`: "isa Sub < Super", "card C in R.U = (m, n)", "disjoint A, B",
/// "cover C by A, B". `SchemaToText`, the unsat core's descriptions, the
/// repair suggestions and the lint messages all print declarations
/// through these.
std::string IsaToText(const Schema& schema, const IsaStatement& isa);
std::string CardinalityToText(const Schema& schema,
                              const CardinalityDeclaration& decl);
std::string DisjointnessToText(const Schema& schema,
                               const DisjointnessConstraint& group);
std::string CoveringToText(const Schema& schema,
                           const CoveringConstraint& constraint);

/// Renders `schema` as a Graphviz DOT digraph using the paper's ER-diagram
/// conventions (Figure 2): classes as boxes, relationships as diamonds,
/// role edges labeled with the role name and its `(min, max)`, ISA as
/// solid arrows, subclass cardinality *refinements* as dashed labeled
/// edges, and disjointness/covering as annotation nodes. Pipe through
/// `dot -Tsvg` to visualize.
std::string SchemaToDot(const Schema& schema, const std::string& name);

}  // namespace crsat

#endif  // CRSAT_CR_SCHEMA_TEXT_H_
