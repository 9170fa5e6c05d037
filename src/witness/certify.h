#ifndef CRSAT_WITNESS_CERTIFY_H_
#define CRSAT_WITNESS_CERTIFY_H_

// Stage 3 of witness synthesis: certification. This header is the ONLY
// place `CertifiedWitness` is defined, and certify.cc the only place one
// is constructed — `tools/srclint` (certify-non-bypass rule) rejects
// definitions, `friend` declarations, or direct constructions of the
// type anywhere else in src/, so the compiler-level guarantee (private
// constructor, single factory) cannot be quietly widened.

#include <cstdint>
#include <utility>

#include "src/base/result.h"
#include "src/cr/interpretation.h"
#include "src/cr/model_checker.h"
#include "src/cr/schema.h"

namespace crsat {

/// Deterministic accounting of one synthesis run.
struct WitnessStats {
  /// The LCM/scaling stage completed on the overflow-checked int64
  /// (`SmallRational`) fast path.
  bool integer_fast_path = false;
  /// The fast path overflowed and the exact BigInt path ran instead.
  bool integer_exact_fallback = false;
  /// Doublings performed beyond the initial scale during tuple assignment.
  int scaling_attempts = 0;
  /// Compound relationships whose tuples needed the min-congestion
  /// max-flow refinement (round-robin alone collided).
  std::uint64_t flow_refinements = 0;
  /// Size of the certified witness.
  std::uint64_t individuals = 0;
  std::uint64_t tuples = 0;
};

/// A finite interpretation that passed `ModelChecker` with zero
/// violations. The constructor is private and `Certify` is the only
/// factory, so holding a `CertifiedWitness` *is* the certificate: there is
/// no code path that emits an unchecked interpretation as a witness.
class CertifiedWitness {
 public:
  /// Runs `interpretation` through `ModelChecker::CheckModel` and wraps it
  /// on success. Any violation refuses certification with `kInternal`
  /// (an uncertifiable synthesis result is a bug in the pipeline, never a
  /// user error); the message lists every violation, with declaration
  /// sites when `source_map` is supplied.
  static Result<CertifiedWitness> Certify(
      const Schema& schema, Interpretation interpretation, WitnessStats stats,
      const SchemaSourceMap* source_map = nullptr);

  const Interpretation& interpretation() const { return interpretation_; }
  const WitnessStats& stats() const { return stats_; }

  /// Moves the interpretation out (for callers that only need the model,
  /// e.g. the conformance harness's witness cross-check).
  Interpretation&& TakeInterpretation() && {
    return std::move(interpretation_);
  }

 private:
  CertifiedWitness(Interpretation interpretation, WitnessStats stats)
      : interpretation_(std::move(interpretation)), stats_(std::move(stats)) {}

  Interpretation interpretation_;
  WitnessStats stats_;
};

}  // namespace crsat

#endif  // CRSAT_WITNESS_CERTIFY_H_
