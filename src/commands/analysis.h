#ifndef CRSAT_COMMANDS_ANALYSIS_H_
#define CRSAT_COMMANDS_ANALYSIS_H_

#include <memory>
#include <optional>
#include <vector>

#include "src/base/resource_guard.h"
#include "src/base/result.h"
#include "src/cr/schema.h"
#include "src/expansion/expansion.h"
#include "src/reasoner/satisfiability.h"

namespace crsat {
namespace commands {

/// What the reasoning verbs derive from one parsed schema, shared by every
/// `check`, `check --witness` and `implies isa` over it: the
/// Lenzerini-Nobili fast-path verdicts, the provably-empty classes, the
/// expansion, and a checker whose maximal acceptable support is computed.
/// Acceptable solutions are closed under sums (Theorem 3.3), so that one
/// support answers every class query and every §4 target query ("a
/// compound class containing C but not D").
///
/// Each half is computed on first use, at most once, and never changed
/// afterwards: a plain `check` that the fast path answers builds no
/// expansion. crsatd keeps one per session and drops it on the next
/// parse; the one-shot CLI builds one per command.
///
/// Guards: the analysis keeps none. `Checker` builds under its first
/// caller's guard and keeps nothing when the build fails or the guard
/// trips, so the next caller starts over under its own guard. A caller
/// that finds the checker built charges the expansion's compound count to
/// its own guard and checks it once (site `analysis/reuse`), so a compound
/// budget the analysis exceeds is refused as if the caller had built it.
///
/// Witness: the support carries the minimal witness only when a witness
/// may be asked of this analysis (`witness_may_follow`); otherwise the
/// cover LP skips its second stage, and a witness synthesized anyway
/// scales a valid but not minimal solution.
///
/// Thread-compatible: one caller at a time, as crsatd runs one request
/// per session at a time.
class Analysis {
 public:
  /// `schema` must outlive the analysis. Computes nothing yet. The
  /// one-shot CLI passes whether `check --witness` was given; crsatd
  /// sessions pass true, since any later request may be a `witness`.
  Analysis(const Schema& schema, bool witness_may_follow)
      : schema_(&schema), witness_may_follow_(witness_may_follow) {}

  Analysis(const Analysis&) = delete;
  Analysis& operator=(const Analysis&) = delete;

  const Schema& schema() const { return *schema_; }

  /// One verdict per class from `TryLnSatisfiableClasses`, or null when
  /// the fast path does not apply (the schema has ISA statements).
  /// Computed on the first call; a failure is returned and not kept.
  Result<const std::vector<bool>*> FastVerdicts();

  /// The checker over the schema's expansion (pruned by the provably-empty
  /// classes, which it also holds as hints), with its maximal acceptable
  /// support computed. Built on the first successful call under `guard`
  /// (may be null); see the class comment for how later calls use theirs.
  Result<const SatisfiabilityChecker*> Checker(ResourceGuard* guard);

 private:
  // Heap-allocated, so the checker's pointer to the expansion and the
  // expansion's pointer to `known_empty` stay valid.
  struct Reasoning {
    std::vector<bool> known_empty;
    std::optional<Expansion> expansion;
    std::optional<SatisfiabilityChecker> checker;
  };

  const Schema* schema_;
  bool witness_may_follow_;
  std::optional<std::optional<std::vector<bool>>> fast_verdicts_;
  std::unique_ptr<Reasoning> reasoning_;
};

}  // namespace commands
}  // namespace crsat

#endif  // CRSAT_COMMANDS_ANALYSIS_H_
