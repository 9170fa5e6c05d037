#ifndef CRSAT_BASE_DEGRADATION_H_
#define CRSAT_BASE_DEGRADATION_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace crsat {

/// The graceful-degradation ladder (DESIGN.md §14).
///
/// Worst-case exponential inputs make fallbacks *normal operation*, not
/// edge cases, so the recovery order is a first-class contract:
///
///   rung 0  incremental   warm-start bases, memoized bounds, pruning
///   rung 1  cold          same algorithms, no carried state
///   rung 2  exact tier    Rational re-solve after SmallRational overflow
///   rung 3  UNKNOWN       honest resource-status refusal, never a guess
///
/// Dropping a rung must never change a verdict — only cost — and running
/// out of rungs must surface as a resource-limit `Status`
/// (`IsResourceLimitStatus`), which the CLI maps to exit code 3 and the
/// conformance harness treats as benign. The chaos conformance sweep
/// (`crsat_cli conform --chaos-seeds N`) is the proof: under randomized
/// fault schedules every verdict either matches the fault-free run or is
/// such an UNKNOWN, never a flip.
///
/// Each rung transition has exactly one switch:
///
///   rung 0 -> 1  `IncrementalReasoningEnabled()` (src/base/incremental.h),
///                set by `CRSAT_NO_INCREMENTAL`, `ScopedIncrementalOverride`
///                or the `incremental/force_cold` failpoint
///   rung 1 -> 2  the `lp/fast_tier_overflow` failpoint (a per-solve
///                reference asks for `SimplexOptions::Tier::kExactOnly`)
///   rung 2       the witness rescale budget, a constant in
///                src/witness/tuple_assignment.cc

/// Process-wide counters recording every rung transition actually taken.
/// Exposed in `crsat_cli --json` (object "recovery") and alongside
/// `SimplexStats` in the conformance stats block; the failpoint tests
/// assert on deltas to prove each seam really degraded instead of
/// silently succeeding.
struct RecoveryStats {
  /// Rung 0 -> 1: carried warm-start basis rejected or repair aborted;
  /// solve fell back to cold phase 1.
  std::atomic<std::uint64_t> warm_start_fallbacks{0};
  /// Rung 0 -> 1: support-cover LP failed; expansion fell back to
  /// per-group probe rounds.
  std::atomic<std::uint64_t> cover_fallbacks{0};
  /// Rung 1 -> 2: SmallRational tier overflowed (or an injected
  /// `lp/fast_tier_overflow` fault skipped it); solve re-ran on exact
  /// Rational.
  std::atomic<std::uint64_t> tier_fallbacks{0};
  /// Witness stage: aligned fast path failed; min-congestion max-flow
  /// refinement ran.
  std::atomic<std::uint64_t> witness_flow_refinements{0};
  /// Witness stage: duplicate tuples forced a scale doubling.
  std::atomic<std::uint64_t> witness_rescales{0};
  /// A std::bad_alloc was caught at a tier boundary and converted to
  /// kResourceExhausted (rung 3) instead of crashing.
  std::atomic<std::uint64_t> bad_alloc_conversions{0};
  /// ResourceGuard trips observed while converting work to UNKNOWN
  /// (includes injected `guard/trip` fires).
  std::atomic<std::uint64_t> guard_trips{0};

  void Reset() {
    warm_start_fallbacks.store(0, std::memory_order_relaxed);
    cover_fallbacks.store(0, std::memory_order_relaxed);
    tier_fallbacks.store(0, std::memory_order_relaxed);
    witness_flow_refinements.store(0, std::memory_order_relaxed);
    witness_rescales.store(0, std::memory_order_relaxed);
    bad_alloc_conversions.store(0, std::memory_order_relaxed);
    guard_trips.store(0, std::memory_order_relaxed);
  }

  /// The counters as one JSON object, keys in declaration order.
  std::string ToJson() const;
};

/// The process-wide recovery record. Counters are relaxed atomics;
/// increments from worker threads are safe.
RecoveryStats& GetRecoveryStats();

}  // namespace crsat

#endif  // CRSAT_BASE_DEGRADATION_H_
