#ifndef CRSAT_LP_SIMPLEX_H_
#define CRSAT_LP_SIMPLEX_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/base/result.h"
#include "src/lp/linear_system.h"

namespace crsat {

class ResourceGuard;

/// Outcome classification of an LP solve.
enum class LpOutcome {
  /// A feasible (and, when optimizing, optimal) assignment was found.
  kOptimal,
  /// No assignment satisfies the constraints.
  kInfeasible,
  /// Feasible, but the objective can be improved without bound.
  kUnbounded,
};

/// Result of an LP solve.
struct LpResult {
  LpOutcome outcome = LpOutcome::kInfeasible;
  /// One value per system variable; meaningful when `outcome == kOptimal`.
  std::vector<Rational> values;
  /// Objective value at `values`; zero for pure feasibility checks.
  Rational objective;
};

/// Cumulative counters for diagnosing solver behaviour. Process-wide and
/// safe to update from concurrent solves (relaxed atomics: totals are
/// exact, momentary reads may be mid-solve). `Reset()` is for benchmarks
/// and must not race with running solves.
///
/// Thread-safety annotation policy (src/base/annotations.h): every field
/// is its own `std::atomic` capability, so no `CRSAT_GUARDED_BY` mutex is
/// involved — the type system already forbids unsynchronized access, and
/// Clang `-Wthread-safety` has nothing further to prove here. Keep it
/// that way: adding a non-atomic field to this struct would require a
/// `Mutex` + `CRSAT_GUARDED_BY` or it will race under TSan.
struct SimplexStats {
  /// Total `Solve`/`SolveWith` calls.
  std::atomic<std::uint64_t> solves{0};
  /// Simplex iterations across both tiers, including those of fast-tier
  /// attempts later abandoned to overflow. Not counted here: the pivots
  /// that install a basis (see `basis_pivots`), though they run the same
  /// kernel.
  std::atomic<std::uint64_t> pivots{0};
  /// Pivots that install a basis rather than iterate: the pivot-ins of a
  /// carried or crash warm-start basis and the pivots of
  /// `EliminateArtificialsFromBasis`, across both tiers and including
  /// attempts later discarded. Disjoint from `pivots`.
  std::atomic<std::uint64_t> basis_pivots{0};
  /// Subset of `pivots` spent in phase 1.
  std::atomic<std::uint64_t> phase1_pivots{0};
  /// Solves completed entirely on the int64 fast tier.
  std::atomic<std::uint64_t> fast_solves{0};
  /// Subset of `pivots` performed by *completed* fast-tier solves.
  /// (Abandoned fast-tier attempts are counted by the degradation ladder,
  /// `RecoveryStats::tier_fallbacks` in src/base/degradation.h.)
  std::atomic<std::uint64_t> fast_pivots{0};
  /// Solves that reused a caller-provided basis and skipped phase 1 —
  /// either because the basis was still primal-feasible or because dual
  /// pivots repaired it (see `incremental_hits`).
  std::atomic<std::uint64_t> warm_start_hits{0};
  /// Warm-start attempts that ended in a cold phase 1: layout mismatch,
  /// singular basis, fast-tier overflow during pivot-in, or a dual repair
  /// that hit its pivot cap. Exactly one of hits/misses is recorded per
  /// solve that was handed a non-empty basis, so hits + misses = attempts.
  std::atomic<std::uint64_t> warm_start_misses{0};
  /// Dual-simplex pivots spent repairing carried bases (subset of
  /// `pivots`, disjoint from `phase1_pivots`).
  std::atomic<std::uint64_t> dual_pivots{0};
  /// Subset of `warm_start_hits` where the carried basis was *not* primal
  /// feasible and dual pivots repaired it (or proved the system
  /// infeasible) in place of a cold phase 1.
  std::atomic<std::uint64_t> incremental_hits{0};
  /// Dual repairs abandoned (pivot cap or fast-tier overflow) that fell
  /// back to a cold phase 1; subset of `warm_start_misses`.
  std::atomic<std::uint64_t> incremental_fallbacks{0};

  /// Zeroes every counter.
  void Reset();
};

/// Returns a mutable reference to the process-wide solver counters.
SimplexStats& GetSimplexStats();

/// A feasible basis exported from a completed solve, reusable to skip
/// phase 1 on later solves of a system with the *same shape* (identical
/// variables, constraint count, and per-row senses — e.g. successive
/// support probes that differ only in one row's coefficients). Opaque to
/// callers; validated structurally before reuse, and rejected bases simply
/// cost one cold phase 1.
struct WarmStartBasis {
  std::vector<int> basis;  // Basic column per tableau row.
  int num_columns = 0;     // Column-layout fingerprint.

  bool empty() const { return basis.empty(); }
};

/// A small shape-keyed store of exported bases. Successive reasoner probes
/// alternate between a handful of system shapes (the pinned-out variable
/// set varies with the probed bound and the fixpoint iteration), so a
/// single carried `WarmStartBasis` thrashes: each differently-shaped solve
/// overwrites the carry the next same-shaped solve needed. Keying by
/// (variable count, constraint count) lets every shape family warm-start
/// within itself; the dual-repair path then absorbs the remaining
/// same-shape coefficient differences. Thread-compatible, not thread-safe:
/// confine a cache to one thread, as its owner
/// (`CardinalityImplicationEngine`, `SatisfiabilityChecker`) is.
class WarmStartBasisCache {
 public:
  /// The stored basis for this shape, or nullptr. The pointer is
  /// invalidated by the next non-const call.
  const WarmStartBasis* Lookup(int num_variables, int num_constraints);

  /// Stores (or replaces) the basis for this shape, evicting the least
  /// recently used entry when full. Empty bases are ignored.
  void Store(int num_variables, int num_constraints, WarmStartBasis basis);

 private:
  struct Entry {
    int num_variables = 0;
    int num_constraints = 0;
    WarmStartBasis basis;
  };
  static constexpr std::size_t kMaxEntries = 8;
  std::vector<Entry> entries_;  // Most recently used at the back.
};

/// Knobs for a single solve.
struct SimplexOptions {
  enum class Tier {
    /// Try the overflow-checked int64 tier first, fall back to exact
    /// `Rational` pivoting when any value leaves the representable range.
    /// Verdicts are exact either way (the fast tier is exact-or-flagged).
    kTwoTier,
    /// Exact `Rational` pivoting only: the per-solve reference the
    /// cross-tier property tests compare against. (The process-wide
    /// rung 1 -> 2 switch is the `lp/fast_tier_overflow` failpoint,
    /// src/base/degradation.h.)
    kExactOnly,
  };
  Tier tier = Tier::kTwoTier;
  /// When non-null and structurally compatible, the solve pivots into this
  /// basis and skips phase 1. A basis that pivots in cleanly but is no
  /// longer primal-feasible (the common case after a probe bound changed)
  /// is repaired by dual-simplex pivots against the zero objective instead
  /// of being rejected; only a layout mismatch, a singular basis, or a
  /// repair that exceeds its pivot cap falls back to a cold start. Ignored
  /// entirely when `IncrementalReasoningEnabled()` is false
  /// (src/base/incremental.h) — the forced-cold reference path.
  const WarmStartBasis* warm_start = nullptr;
  /// When non-null, receives the final basis of an optimal solve.
  WarmStartBasis* export_basis = nullptr;
  /// Optional crash basis: structural variables to pivot into the initial
  /// basis when no carried basis applied (absent or rejected). Callers use
  /// this for variables they KNOW form a cheap feasible basis — e.g. the
  /// per-row cover variables of the maximal-support LP, whose unit columns
  /// evict every artificial in one pivot each — turning phase 1 into a
  /// no-op. Purely an acceleration: a crash that does not land feasible
  /// falls through to the ordinary cold phase 1.
  const std::vector<VarId>* crash_vars = nullptr;
  /// Optional resource guard (src/base/resource_guard.h), polled once per
  /// pivot. A tripped guard aborts the solve — including the exact-tier
  /// fallback — and `SolveWith` returns the guard's trip status
  /// (`kDeadlineExceeded` / `kResourceExhausted` / `kCancelled`).
  /// Tableau storage is charged against the guard's memory budget for the
  /// duration of the solve.
  ResourceGuard* guard = nullptr;
};

/// Exact two-phase primal simplex with Bland's anti-cycling rule and a
/// two-tier arithmetic scheme.
///
/// Pivoting runs on an overflow-checked `int64` rational fast tier first;
/// any value that leaves the representable range raises a sticky flag and
/// the solve transparently restarts on exact `Rational` (BigInt-backed)
/// arithmetic. Both tiers are exact — the fast tier either computes the
/// same numbers the exact tier would or abstains — so `kInfeasible` is
/// always a proof, never a numeric judgement. Strict (`>`) constraints are
/// rejected with `InvalidArgument`; the homogeneous layer
/// (`src/lp/homogeneous.h`) reduces them to non-strict ones before calling
/// in, exploiting that the paper's systems are homogeneous (conic).
class SimplexSolver {
 public:
  /// Minimizes or maximizes `objective` subject to `system`. The objective's
  /// constant term is included in the reported objective value.
  static Result<LpResult> Solve(const LinearSystem& system,
                                const LinearExpr& objective, bool maximize);

  /// Pure feasibility check (zero objective).
  static Result<LpResult> CheckFeasibility(const LinearSystem& system);

  /// `Solve` with explicit tier selection and warm-start plumbing.
  static Result<LpResult> SolveWith(const LinearSystem& system,
                                    const LinearExpr& objective, bool maximize,
                                    const SimplexOptions& options);
};

}  // namespace crsat

#endif  // CRSAT_LP_SIMPLEX_H_
