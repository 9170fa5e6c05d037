#ifndef CRSAT_WITNESS_WITNESS_H_
#define CRSAT_WITNESS_WITNESS_H_

#include <cstdint>
#include <utility>

#include "src/base/resource_guard.h"
#include "src/base/result.h"
#include "src/cr/interpretation.h"
#include "src/cr/model_checker.h"
#include "src/expansion/expansion.h"
#include "src/reasoner/satisfiability.h"
#include "src/witness/certify.h"

namespace crsat {

/// Knobs for witness synthesis (src/witness/).
struct WitnessOptions {
  /// Refuse to materialize witnesses larger than this many individuals
  /// plus tuples (the decision procedure never needs materialization; this
  /// is a safety valve for the constructive API).
  std::uint64_t max_model_size = 1000000;

  /// Optional resource guard; overrides the expansion's own
  /// `ExpansionOptions::guard` when non-null. Every stage — the integer
  /// scaling, tuple assignment (including its max-flow refinements),
  /// and certification — polls it, so `--witness` work respects the same
  /// deadlines/budgets as the verdict it decorates. A trip surfaces as a
  /// resource-limit status and no witness is produced.
  ResourceGuard* guard = nullptr;

  /// Optional declaration-site map (from `NamedSchema::source_map`). Only
  /// consulted if certification ever fails: the refusal message then
  /// points at the violated declarations.
  const SchemaSourceMap* source_map = nullptr;
};

// `WitnessStats` and `CertifiedWitness` live in src/witness/certify.h —
// the certification stage owns them, and srclint's certify-non-bypass
// rule pins the class definition there.

/// The constructive half of the paper's completeness proof (Section 3.3),
/// as a three-stage pipeline over a satisfiable schema's expansion:
///
///   1. *Integer solution*: the minimal rational witness that the
///      checker's cached maximal acceptable support carries (the cover
///      LP's second stage; no LP runs here) is scaled to nonnegative
///      integers by the LCM of denominators — int64 fast path, exact
///      BigInt fallback. The
///      acceptability side-condition (a zero compound-class count forces
///      every dependent relationship count to zero) is re-verified on the
///      integers.
///   2. *Tuple assignment*: compound-class populations are materialized
///      and relationship tuples distributed across role slots round-robin,
///      falling back to a min-congestion max-flow per compound
///      relationship when bounds are tight, and doubling the whole
///      solution when distinctness is unrealizable at the current scale.
///   3. *Certification*: the interpretation is run back through
///      `ModelChecker`; only a zero-violation result is emitted (as a
///      `CertifiedWitness` — uncertified witnesses cannot be constructed).
///
/// The synthesizer reuses the `SatisfiabilityChecker`'s cached support, so
/// after a verdict it runs no LP at all; on an all-UNSAT schema it refuses
/// immediately (tests assert both via `SimplexStats`).
class WitnessSynthesizer {
 public:
  /// The checker (and its expansion) must outlive the synthesizer.
  explicit WitnessSynthesizer(const SatisfiabilityChecker& checker)
      : checker_(&checker) {}

  /// Runs the full pipeline. Fails with `kInvalidArgument` when no class
  /// is satisfiable (nothing to witness), `kUnavailable` when the retry
  /// budget or `max_model_size` is exhausted, a resource-limit status when
  /// the guard trips, and `kInternal` when certification refuses.
  Result<CertifiedWitness> Synthesize(
      const WitnessOptions& options = {}) const;

  /// Stages 2–3 only, from a caller-provided acceptable integer solution.
  static Result<CertifiedWitness> SynthesizeFromSolution(
      const Expansion& expansion, const IntegerSolution& solution,
      const WitnessOptions& options = {});

 private:
  const SatisfiabilityChecker* checker_;
};

}  // namespace crsat

#endif  // CRSAT_WITNESS_WITNESS_H_
