#include <memory>
#include <string>
#include <vector>

#include "src/analysis/rules.h"
#include "src/cr/schema_text.h"

namespace crsat {

namespace {

/// Reports declared ISA edges that are already implied by the remaining
/// declared edges (transitive shortcuts and exact duplicates). Removing a
/// flagged edge leaves the ISA closure unchanged.
class RedundantIsaRule : public LintRule {
 public:
  std::string_view id() const override { return "redundant-isa"; }
  std::string_view description() const override {
    return "ISA edges implied by the other declared ISA statements";
  }

  void Run(const LintContext& context,
           std::vector<Diagnostic>* out) const override {
    const Schema& schema = context.schema();
    const std::vector<IsaStatement>& isa = schema.isa_statements();
    for (int e = 0; e < static_cast<int>(isa.size()); ++e) {
      if (isa[e].subclass == isa[e].superclass) {
        continue;  // Self-loops belong to the isa-cycle rule.
      }
      if (!ReachableWithoutEdge(schema, e)) {
        continue;
      }
      Diagnostic diagnostic;
      diagnostic.rule = std::string(id());
      diagnostic.severity = Severity::kNote;
      diagnostic.message = IsaToText(schema, isa[e]) +
                           " is redundant: already implied by the other ISA "
                           "statements";
      diagnostic.entities = {schema.ClassName(isa[e].subclass),
                             schema.ClassName(isa[e].superclass)};
      diagnostic.location = context.IsaLocation(e);
      out->push_back(std::move(diagnostic));
    }
  }

 private:
  // Depth-first search from the edge's subclass to its superclass over
  // every declared edge except the `skip`-th one.
  static bool ReachableWithoutEdge(const Schema& schema, int skip) {
    const std::vector<IsaStatement>& isa = schema.isa_statements();
    const ClassId source = isa[skip].subclass;
    const ClassId target = isa[skip].superclass;
    std::vector<bool> visited(schema.num_classes(), false);
    std::vector<ClassId> stack = {source};
    visited[source.value] = true;
    while (!stack.empty()) {
      ClassId current = stack.back();
      stack.pop_back();
      for (int e = 0; e < static_cast<int>(isa.size()); ++e) {
        if (e == skip || isa[e].subclass != current) {
          continue;
        }
        if (isa[e].superclass == target) {
          return true;
        }
        if (!visited[isa[e].superclass.value]) {
          visited[isa[e].superclass.value] = true;
          stack.push_back(isa[e].superclass);
        }
      }
    }
    return false;
  }
};

}  // namespace

std::unique_ptr<LintRule> MakeRedundantIsaRule() {
  return std::make_unique<RedundantIsaRule>();
}

}  // namespace crsat
