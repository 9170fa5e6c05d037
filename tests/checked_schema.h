#ifndef CRSAT_TESTS_CHECKED_SCHEMA_H_
#define CRSAT_TESTS_CHECKED_SCHEMA_H_

#include "src/cr/schema.h"
#include "src/expansion/expansion.h"
#include "src/reasoner/satisfiability.h"

namespace crsat {
namespace testing {

/// A schema's expansion and a checker over it: the input the ISA-family
/// implication queries (`ImplicationChecker::ImpliesIsa` and friends)
/// take. The schema must outlive it.
struct CheckedSchema {
  explicit CheckedSchema(const Schema& schema)
      : expansion(Expansion::Build(schema).value()), checker(expansion) {}

  CheckedSchema(const CheckedSchema&) = delete;
  CheckedSchema& operator=(const CheckedSchema&) = delete;

  Expansion expansion;
  SatisfiabilityChecker checker;
};

}  // namespace testing
}  // namespace crsat

#endif  // CRSAT_TESTS_CHECKED_SCHEMA_H_
