#include "src/commands/analysis.h"

#include <utility>

#include "src/analysis/empty_classes.h"
#include "src/baseline/fast_path.h"

namespace crsat {
namespace commands {

Result<const std::vector<bool>*> Analysis::FastVerdicts() {
  if (!fast_verdicts_.has_value()) {
    CRSAT_ASSIGN_OR_RETURN(std::optional<std::vector<bool>> verdicts,
                           TryLnSatisfiableClasses(*schema_));
    fast_verdicts_.emplace(std::move(verdicts));
  }
  const std::vector<bool>* verdicts =
      fast_verdicts_->has_value() ? &**fast_verdicts_ : nullptr;
  return verdicts;
}

Result<const SatisfiabilityChecker*> Analysis::Checker(ResourceGuard* guard) {
  if (reasoning_ != nullptr) {
    if (guard != nullptr) {
      const Expansion& expansion = *reasoning_->expansion;
      guard->AddCompounds(expansion.classes().size() +
                          expansion.relationships().size());
      CRSAT_RETURN_IF_ERROR(guard->CheckNow("analysis/reuse"));
    }
    const SatisfiabilityChecker* checker = &*reasoning_->checker;
    return checker;
  }
  auto reasoning = std::make_unique<Reasoning>();
  // Structural emptiness facts feed both the expansion's compound pruning
  // and the checker's per-class short-circuit.
  reasoning->known_empty = ComputeProvablyEmpty(*schema_).class_empty;
  ExpansionOptions options;
  options.guard = guard;
  options.known_empty_classes = &reasoning->known_empty;
  CRSAT_ASSIGN_OR_RETURN(Expansion expansion,
                         Expansion::Build(*schema_, options));
  reasoning->expansion.emplace(std::move(expansion));
  reasoning->checker.emplace(*reasoning->expansion);
  reasoning->checker->SetKnownEmptyClasses(reasoning->known_empty);
  reasoning->checker->SetMinimalWitness(witness_may_follow_);
  const Result<AcceptableSupport>& support =
      reasoning->checker->Support(guard);
  if (!support.ok()) {
    return support.status();
  }
  if (guard != nullptr && guard->tripped()) {
    return guard->TripStatus();
  }
  reasoning->expansion->DetachGuard();
  reasoning_ = std::move(reasoning);
  const SatisfiabilityChecker* checker = &*reasoning_->checker;
  return checker;
}

}  // namespace commands
}  // namespace crsat
