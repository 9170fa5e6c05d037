#ifndef CRSAT_TESTS_DEBUG_DIGEST_H_
#define CRSAT_TESTS_DEBUG_DIGEST_H_

#include <string>
#include <vector>

#include "src/reasoner/repair.h"
#include "src/reasoner/unsat_core.h"

namespace crsat {
namespace testing {

/// One line per core constraint (kind, index, description), then one per
/// repair suggestion (action, relaxed bound, description): two schema
/// debugging runs agree iff their digests are equal.
inline std::string DebugDigest(const UnsatCore& core,
                               const std::vector<RepairSuggestion>& repairs) {
  std::string digest;
  for (const CoreConstraint& constraint : core.constraints) {
    digest += "core " + std::to_string(static_cast<int>(constraint.kind)) +
              " " + std::to_string(constraint.index) + " " +
              constraint.description + "\n";
  }
  for (const RepairSuggestion& suggestion : repairs) {
    digest += "repair " +
              std::to_string(static_cast<int>(suggestion.action)) + " " +
              (suggestion.relaxed.has_value() ? suggestion.relaxed->ToString()
                                              : "-") +
              " " + suggestion.description + "\n";
  }
  return digest;
}

}  // namespace testing
}  // namespace crsat

#endif  // CRSAT_TESTS_DEBUG_DIGEST_H_
