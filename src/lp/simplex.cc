#include "src/lp/simplex.h"

#include <algorithm>
#include <bit>
#include <new>
#include <utility>

#include "src/base/degradation.h"
#include "src/base/failpoint.h"
#include "src/base/incremental.h"
#include "src/base/resource_guard.h"
#include "src/lp/small_rational.h"

namespace crsat {

void SimplexStats::Reset() {
  solves.store(0, std::memory_order_relaxed);
  pivots.store(0, std::memory_order_relaxed);
  basis_pivots.store(0, std::memory_order_relaxed);
  phase1_pivots.store(0, std::memory_order_relaxed);
  fast_solves.store(0, std::memory_order_relaxed);
  fast_pivots.store(0, std::memory_order_relaxed);
  warm_start_hits.store(0, std::memory_order_relaxed);
  warm_start_misses.store(0, std::memory_order_relaxed);
  dual_pivots.store(0, std::memory_order_relaxed);
  incremental_hits.store(0, std::memory_order_relaxed);
  incremental_fallbacks.store(0, std::memory_order_relaxed);
}

SimplexStats& GetSimplexStats() {
  static SimplexStats stats;
  return stats;
}

const WarmStartBasis* WarmStartBasisCache::Lookup(int num_variables,
                                                  int num_constraints) {
  for (size_t i = entries_.size(); i > 0; --i) {
    Entry& entry = entries_[i - 1];
    if (entry.num_variables == num_variables &&
        entry.num_constraints == num_constraints) {
      // Move to the back (most recently used) so eviction hits stale
      // shapes first.
      std::rotate(entries_.begin() + (i - 1), entries_.begin() + i,
                  entries_.end());
      return &entries_.back().basis;
    }
  }
  return nullptr;
}

void WarmStartBasisCache::Store(int num_variables, int num_constraints,
                                WarmStartBasis basis) {
  if (basis.empty()) {
    return;
  }
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].num_variables == num_variables &&
        entries_[i].num_constraints == num_constraints) {
      entries_[i].basis = std::move(basis);
      std::rotate(entries_.begin() + i, entries_.begin() + i + 1,
                  entries_.end());
      return;
    }
  }
  if (entries_.size() >= kMaxEntries) {
    entries_.erase(entries_.begin());  // Least recently used.
  }
  entries_.push_back(Entry{num_variables, num_constraints, std::move(basis)});
}

namespace {

void BumpStat(std::atomic<std::uint64_t>& counter, std::uint64_t amount = 1) {
  counter.fetch_add(amount, std::memory_order_relaxed);
}

// Arithmetic-tier glue. Both scalars are exact rationals; the small one
// abstains (via a sticky thread-local flag) instead of losing precision.
template <typename Scalar>
struct ScalarOps;

template <>
struct ScalarOps<Rational> {
  static bool FromRational(const Rational& value, Rational* out) {
    *out = value;
    return true;
  }
  static Rational ToRational(const Rational& value) { return value; }
  static bool Overflowed() { return false; }
  static void ClearOverflow() {}
};

template <>
struct ScalarOps<SmallRational> {
  static bool FromRational(const Rational& value, SmallRational* out) {
    Result<std::int64_t> num = value.numerator().ToInt64();
    Result<std::int64_t> den = value.denominator().ToInt64();
    if (!num.ok() || !den.ok()) {
      return false;
    }
    // Rational keeps fractions reduced with a positive denominator, so the
    // parts can be adopted verbatim.
    *out = SmallRational::FromReduced(*num, *den);
    return true;
  }
  static Rational ToRational(const SmallRational& value) {
    return Rational(BigInt(value.numerator()), BigInt(value.denominator()));
  }
  static bool Overflowed() { return SmallRational::OverflowSeen(); }
  static void ClearOverflow() { SmallRational::ClearOverflow(); }
};

// Tier-independent tableau shape: column layout and sign-normalized rows,
// still in exact `Rational` form. Computed once per solve and shared by
// both tiers (the exact fallback must see exactly the system the fast
// attempt saw).
//
// Column layout: [structural columns][slack/surplus columns][artificial
// columns], plus the right-hand side kept separately. Structural columns
// encode user variables: a nonnegative variable occupies one column; a
// free variable is split into two columns (x = pos - neg). A row keeps
// only its nonzero structural terms: Psi_S rows touch a handful of the
// hundreds of structural columns.
struct TableauLayout {
  struct Row {
    // (structural column, coefficient), increasing columns, no zeros.
    std::vector<std::pair<int, Rational>> terms;
    Rational rhs;
    ConstraintSense sense = ConstraintSense::kEqual;
    int slack_column = -1;
    Rational slack_sign;
    int artificial_column = -1;
  };

  std::vector<int> column_of_var;
  std::vector<int> neg_column_of_var;
  int num_columns = 0;
  int num_structural = 0;
  int num_with_slacks = 0;
  std::vector<Row> rows;

  explicit TableauLayout(const LinearSystem& system) {
    // Assign structural columns.
    column_of_var.resize(system.num_variables());
    neg_column_of_var.assign(system.num_variables(), -1);
    for (VarId v = 0; v < system.num_variables(); ++v) {
      column_of_var[v] = num_columns++;
      if (!system.IsNonnegative(v)) {
        neg_column_of_var[v] = num_columns++;
      }
    }
    num_structural = num_columns;

    // One row per constraint, with b >= 0 after sign normalization. The
    // expression's terms are sorted by variable with no zeros, and column
    // numbers grow with the variable, so the terms come out sorted.
    for (const Constraint& constraint : system.constraints()) {
      Row row;
      row.rhs = -constraint.expr.constant();
      ConstraintSense sense = constraint.sense;
      // Normalize to b >= 0; additionally flip zero-RHS `>=` rows into
      // `<=` form so their slack can start basic — homogeneous systems
      // then need (almost) no artificials and phase 1 is trivial.
      const bool flip =
          row.rhs.IsNegative() ||
          (row.rhs.IsZero() && sense == ConstraintSense::kGreaterEqual);
      row.terms.reserve(constraint.expr.terms().size());
      for (const auto& [var, coeff] : constraint.expr.terms()) {
        Rational c = flip ? -coeff : coeff;
        if (neg_column_of_var[var] >= 0) {
          row.terms.emplace_back(column_of_var[var], c);
          row.terms.emplace_back(neg_column_of_var[var], -c);
        } else {
          row.terms.emplace_back(column_of_var[var], std::move(c));
        }
      }
      if (flip) {
        row.rhs = -row.rhs;
        if (sense == ConstraintSense::kLessEqual) {
          sense = ConstraintSense::kGreaterEqual;
        } else if (sense == ConstraintSense::kGreaterEqual) {
          sense = ConstraintSense::kLessEqual;
        }
      }
      row.sense = sense;
      rows.push_back(std::move(row));
    }

    // Slack / surplus columns.
    for (Row& row : rows) {
      if (row.sense == ConstraintSense::kLessEqual) {
        row.slack_column = num_columns++;
        row.slack_sign = Rational(1);
      } else if (row.sense == ConstraintSense::kGreaterEqual) {
        row.slack_column = num_columns++;
        row.slack_sign = Rational(-1);
      }
    }
    num_with_slacks = num_columns;

    // Artificial columns: needed for == rows and >= rows (whose surplus
    // enters with -1 and cannot start basic). A <= row's slack starts basic.
    for (Row& row : rows) {
      bool needs_artificial = row.sense != ConstraintSense::kLessEqual;
      if (needs_artificial) {
        row.artificial_column = num_columns++;
      }
    }
  }
};

enum class RunOutcome {
  kOptimal,
  kUnbounded,
  // A fast-tier value left the representable range; results are unusable
  // and the caller restarts the solve on the exact tier.
  kOverflow,
  // The resource guard tripped mid-run; the solve is abandoned for good
  // (no tier fallback — the trip is sticky).
  kTripped,
};

enum class Phase1Outcome { kFeasible, kInfeasible, kOverflow, kTripped };

// Result of pivoting into a carried basis (see Tableau::TryWarmStart).
enum class WarmStartOutcome {
  // The basis pivoted in and is primal-feasible; skip phase 1.
  kFeasible,
  // The basis pivoted in infeasible and dual pivots repaired it; skip
  // phase 1.
  kRepaired,
  // Dual repair exposed an infeasibility certificate: the system has no
  // solution (a proof, not a heuristic — see RepairPrimalFeasibility).
  kInfeasibleProof,
  // The adopted basis is primal-feasible (rhs >= 0) but an artificial is
  // still basic: continue phase 1 from this tableau instead of rebuilding.
  kPartial,
  // Layout mismatch, overflow, or repair pivot cap; the caller discards
  // the tableau and runs cold.
  kRejected,
  // The resource guard tripped mid-repair.
  kTripped,
};

// Two-phase primal simplex over an exact scalar type, materialized from a
// shared `TableauLayout`. Cells are stored densely in one row-major block,
// but the arithmetic of a pivot follows the nonzeros: a per-column bitset
// of the rows holding a nonzero drives the pivot-column scan, the ratio
// test and the warm-start row search, and each row with a nonzero in the
// pivot column is updated at the pivot row's nonzero columns only. Rows
// are visited in increasing order, so every pricing, ratio-test and
// tie-break decision — and hence the pivot sequence — is the one a sweep
// over every cell makes.
template <typename Scalar>
class Tableau {
 public:
  Tableau(const LinearSystem& system, const TableauLayout& layout,
          ResourceGuard* guard = nullptr)
      : system_(&system), layout_(&layout), guard_(guard),
        live_columns_(layout.num_columns),
        row_words_(OccupancyWords(layout)) {
    const size_t m = layout.rows.size();
    cells_.assign(m * layout.num_columns, Scalar());
    rhs_.assign(m, Scalar());
    basis_.assign(m, -1);
    occupancy_.assign(static_cast<size_t>(layout.num_columns) * row_words_,
                      0);
    basic_row_.assign(layout.num_columns, -1);
    for (size_t i = 0; i < m; ++i) {
      const int row = static_cast<int>(i);
      const TableauLayout::Row& layout_row = layout.rows[i];
      for (const auto& [column, coeff] : layout_row.terms) {
        if (!ScalarOps<Scalar>::FromRational(coeff, &Cell(i, column))) {
          ok_ = false;
          return;
        }
        SetOccupied(row, column, true);
      }
      if (layout_row.slack_column >= 0) {
        if (!ScalarOps<Scalar>::FromRational(
                layout_row.slack_sign, &Cell(i, layout_row.slack_column))) {
          ok_ = false;
          return;
        }
        SetOccupied(row, layout_row.slack_column, true);
      }
      if (layout_row.artificial_column >= 0) {
        Cell(i, layout_row.artificial_column) = Scalar(1);
        SetOccupied(row, layout_row.artificial_column, true);
        basis_[i] = layout_row.artificial_column;
      } else {
        basis_[i] = layout_row.slack_column;
      }
      basic_row_[basis_[i]] = row;
      if (!ScalarOps<Scalar>::FromRational(layout_row.rhs, &rhs_[i])) {
        ok_ = false;
        return;
      }
    }
  }

  // Bytes a tableau for `layout` holds: the cells, the maintained rows
  // and the row-occupancy bitsets.
  static std::uint64_t StorageBytes(const TableauLayout& layout) {
    const std::uint64_t columns = layout.num_columns;
    return layout.rows.size() * (columns + 2) * sizeof(Scalar) +
           columns * OccupancyWords(layout) * sizeof(std::uint64_t);
  }

  // False when some input coefficient was not representable in `Scalar`.
  bool ok() const { return ok_; }

  // Attempts to adopt a carried basis and skip (or at least warm) phase 1.
  // The carried columns are treated as a *candidate set*, not a row
  // assignment: each is pivoted into whichever not-yet-claimed row has a
  // nonzero entry for it (preferring rows whose current basic variable is
  // an artificial, since evicting those is the whole point), and columns
  // that have gone linearly dependent under the changed system are simply
  // skipped. This makes pivot-in total: row counts may differ (redundant
  // rows get dropped from exported bases), bases may be degenerate, and
  // the order the previous solve happened to leave them in never matters.
  //
  // A landing with negative rhs entries is handed to the dual-simplex
  // repair when `allow_dual_repair` is set (`*attempted_repair` reports
  // whether that happened, for fallback accounting). If any artificial is
  // still basic afterwards the result is kPartial: the tableau is a valid
  // primal-feasible phase-1 start (rhs >= 0), so the caller continues
  // phase 1 from it instead of from scratch — phase 2 must never see a
  // basic artificial, even a degenerate one (a pivot elsewhere in its row
  // could push it positive again). On kRejected the tableau may be left
  // mid-elimination — the caller must discard it and rebuild.
  WarmStartOutcome TryWarmStart(const WarmStartBasis& warm,
                                bool allow_dual_repair,
                                bool* attempted_repair) {
    *attempted_repair = false;
    if (warm.num_columns != layout_->num_columns) {
      return WarmStartOutcome::kRejected;  // Differently-shaped system.
    }
    if (CRSAT_FAILPOINT("lp/warm_start_reject")) {
      return WarmStartOutcome::kRejected;  // Injected shape mismatch.
    }
    std::vector<bool> row_claimed(basis_.size(), false);
    for (int column : warm.basis) {
      if (column < 0 || column >= layout_->num_with_slacks) {
        continue;  // Artificials are never adopted from a carry.
      }
      // Already basic (a slack that starts basic, or a duplicate): claim
      // its row so a later column does not evict it.
      if (basic_row_[column] >= 0) {
        row_claimed[basic_row_[column]] = true;
        continue;
      }
      int row = -1;
      for (int prefer_artificial = 1; prefer_artificial >= 0 && row < 0;
           --prefer_artificial) {
        ForEachRowOf(column, [&](int i) {
          if (row_claimed[i] ||
              (prefer_artificial == 1 && !IsArtificial(basis_[i]))) {
            return true;
          }
          row = i;
          return false;
        });
      }
      if (row < 0) {
        continue;  // Dependent on the columns already placed; skip it.
      }
      ++basis_pivots_;
      Pivot(row, column);
      if (ScalarOps<Scalar>::Overflowed()) {
        return WarmStartOutcome::kRejected;
      }
      row_claimed[row] = true;
    }
    bool any_negative = false;
    for (const Scalar& rhs : rhs_) {
      if (rhs.IsNegative()) {
        any_negative = true;
        break;
      }
    }
    if (any_negative) {
      if (!allow_dual_repair) {
        return WarmStartOutcome::kRejected;
      }
      *attempted_repair = true;
      WarmStartOutcome repaired = RepairPrimalFeasibility();
      if (repaired != WarmStartOutcome::kRepaired) {
        return repaired;
      }
      return AnyArtificialBasic() ? WarmStartOutcome::kPartial
                                  : WarmStartOutcome::kRepaired;
    }
    return AnyArtificialBasic() ? WarmStartOutcome::kPartial
                                : WarmStartOutcome::kFeasible;
  }

  bool AnyArtificialBasic() const {
    for (int column : basis_) {
      if (IsArtificial(column)) {
        return true;
      }
    }
    return false;
  }

  // Dual-simplex repair against the zero objective. Every reduced cost is
  // zero, so the current basis is trivially dual-feasible and *stays* so
  // under any pivot; Bland-ordered dual pivots (leaving: smallest basic
  // index among negative-rhs rows; entering: smallest eligible column)
  // either restore rhs >= 0 or expose an infeasibility certificate: a row
  // with negative rhs and no negative coefficient in any real column.
  // That certificate is sound — the row reads `sum a_j x_j = b < 0` with
  // every real `a_j >= 0` over nonnegative columns, and artificial
  // columns (excluded from entering) are zero in any solution of the real
  // system. A pivot cap bounds pathological cases; the caller then falls
  // back to a cold phase 1, so the cap affects cost only, never verdicts.
  WarmStartOutcome RepairPrimalFeasibility() {
    const std::uint64_t max_pivots =
        64 + 4 * static_cast<std::uint64_t>(basis_.size());
    while (true) {
      if (ScalarOps<Scalar>::Overflowed()) {
        return WarmStartOutcome::kRejected;
      }
      if (guard_ != nullptr && !guard_->Check("simplex/dual_pivot").ok()) {
        return WarmStartOutcome::kTripped;
      }
      if (CRSAT_FAILPOINT("lp/dual_repair_abort")) {
        return WarmStartOutcome::kRejected;  // Injected mid-repair abort.
      }
      int leaving_row = -1;
      for (size_t i = 0; i < basis_.size(); ++i) {
        if (rhs_[i].IsNegative() &&
            (leaving_row < 0 || basis_[i] < basis_[leaving_row])) {
          leaving_row = static_cast<int>(i);
        }
      }
      if (leaving_row < 0) {
        return WarmStartOutcome::kRepaired;
      }
      int entering = -1;
      for (int j = 0; j < layout_->num_with_slacks; ++j) {
        if (Cell(leaving_row, j).IsNegative()) {
          entering = j;
          break;
        }
      }
      if (ScalarOps<Scalar>::Overflowed()) {
        return WarmStartOutcome::kRejected;
      }
      if (entering < 0) {
        return WarmStartOutcome::kInfeasibleProof;
      }
      if (dual_pivots_ >= max_pivots) {
        return WarmStartOutcome::kRejected;
      }
      ++pivots_;
      ++dual_pivots_;
      Pivot(leaving_row, entering);
    }
  }

  // Runs phase 1 (minimize the sum of artificials).
  Phase1Outcome SolvePhase1() {
    std::vector<Scalar> costs(layout_->num_columns, Scalar());
    for (int j = first_artificial(); j < layout_->num_columns; ++j) {
      costs[j] = Scalar(1);
    }
    RunOutcome outcome = RunSimplex(costs, /*allow_artificials=*/true);
    if (outcome == RunOutcome::kOverflow) {
      return Phase1Outcome::kOverflow;
    }
    if (outcome == RunOutcome::kTripped) {
      return Phase1Outcome::kTripped;
    }
    // Phase 1 is bounded below by 0, so kUnbounded cannot happen.
    Scalar value = ObjectiveValue(costs);
    if (ScalarOps<Scalar>::Overflowed()) {
      return Phase1Outcome::kOverflow;
    }
    if (value.IsPositive()) {
      return Phase1Outcome::kInfeasible;
    }
    EliminateArtificialsFromBasis();
    if (ScalarOps<Scalar>::Overflowed()) {
      return Phase1Outcome::kOverflow;
    }
    return Phase1Outcome::kFeasible;
  }

  // Runs phase 2 minimizing `costs` over the structural columns; `costs`
  // has one entry per structural column.
  RunOutcome SolvePhase2(const std::vector<Scalar>& structural_costs) {
    // Once no artificial is basic, none can ever become basic again
    // (phase 2 bars them from entering), so their columns are dead
    // weight: shrink every per-column sweep — pricing, the pivot row
    // eliminations, the maintained reduced-cost row — to the structural
    // and slack range. On big phase-2-heavy solves (the maximal-support
    // cover LP) artificials are a fifth of the tableau width.
    if (!AnyArtificialBasic()) {
      live_columns_ = layout_->num_with_slacks;
    }
    return MinimizeStructural(structural_costs);
  }

  // The lexicographic second stage, run after phase 2 ended optimal. With
  // the primary's reduced costs d >= 0 the primary objective reads
  // z* + sum d_j x_j over the nonbasic columns, so its optimal face is
  // x_j = 0 wherever d_j > 0: those columns are barred, and a pivot on a
  // column with d_j = 0 leaves d unchanged, so the face stays exactly
  // that. `structural_costs` is then minimized over it.
  RunOutcome SolveSecondStage(const std::vector<Scalar>& structural_costs) {
    barred_.assign(reduced_.size(), false);
    for (size_t j = 0; j < reduced_.size(); ++j) {
      barred_[j] = reduced_[j].IsPositive();
    }
    return MinimizeStructural(structural_costs);
  }

  // Extracts per-user-variable values from the current basic solution.
  std::vector<Rational> ExtractValues() const {
    std::vector<Scalar> column_values(layout_->num_columns, Scalar());
    for (size_t i = 0; i < basis_.size(); ++i) {
      column_values[basis_[i]] = rhs_[i];
    }
    std::vector<Rational> values(system_->num_variables(), Rational());
    for (VarId v = 0; v < system_->num_variables(); ++v) {
      values[v] = ScalarOps<Scalar>::ToRational(
          column_values[layout_->column_of_var[v]]);
      if (layout_->neg_column_of_var[v] >= 0) {
        values[v] -= ScalarOps<Scalar>::ToRational(
            column_values[layout_->neg_column_of_var[v]]);
      }
    }
    return values;
  }

  void ExportBasis(WarmStartBasis* out) const {
    out->basis = basis_;
    out->num_columns = layout_->num_columns;
  }

  std::uint64_t pivots() const { return pivots_; }
  std::uint64_t phase1_pivots() const { return phase1_pivots_; }
  std::uint64_t dual_pivots() const { return dual_pivots_; }
  std::uint64_t basis_pivots() const { return basis_pivots_; }

 private:
  static size_t OccupancyWords(const TableauLayout& layout) {
    return (layout.rows.size() + 63) / 64;
  }

  Scalar* Row(size_t i) { return &cells_[i * layout_->num_columns]; }
  Scalar& Cell(size_t i, int j) { return Row(i)[j]; }

  int first_artificial() const { return layout_->num_with_slacks; }

  bool IsArtificial(int column) const {
    return column >= layout_->num_with_slacks;
  }

  // Keeps `column`'s row bitset equal to "the cell is nonzero". Called on
  // every cell write, so the bitsets never disagree with the values (an
  // overflowed fast-tier cell reads as zero in both).
  void SetOccupied(int row, int column, bool nonzero) {
    std::uint64_t& word =
        occupancy_[static_cast<size_t>(column) * row_words_ + row / 64];
    const std::uint64_t bit = std::uint64_t{1} << (row % 64);
    word = nonzero ? (word | bit) : (word & ~bit);
  }

  // Calls `visit(row)` for each row with a nonzero in `column`, in
  // increasing row order, until `visit` returns false. `visit` may change
  // the occupancy of the row it is given.
  template <typename Visit>
  void ForEachRowOf(int column, Visit visit) const {
    const std::uint64_t* words =
        &occupancy_[static_cast<size_t>(column) * row_words_];
    for (size_t w = 0; w < row_words_; ++w) {
      std::uint64_t bits = words[w];
      while (bits != 0) {
        const int row = static_cast<int>(w * 64) + std::countr_zero(bits);
        bits &= bits - 1;
        if (!visit(row)) {
          return;
        }
      }
    }
  }

  RunOutcome MinimizeStructural(const std::vector<Scalar>& structural_costs) {
    std::vector<Scalar> costs(layout_->num_columns, Scalar());
    for (int j = 0; j < layout_->num_structural; ++j) {
      costs[j] = structural_costs[j];
    }
    return RunSimplex(costs, /*allow_artificials=*/false);
  }

  Scalar ObjectiveValue(const std::vector<Scalar>& costs) const {
    Scalar total;
    for (size_t i = 0; i < basis_.size(); ++i) {
      total += costs[basis_[i]] * rhs_[i];
    }
    return total;
  }

  // Primal simplex minimizing `costs`. Pricing: Dantzig's rule (most
  // negative maintained reduced cost) for speed, with a
  // permanent-within-the-run switch to Bland's rule after a long
  // degenerate streak to guarantee termination (cycling can only happen
  // inside a degenerate sequence; any strict objective improvement resets
  // the streak). Artificial columns are barred from re-entering the basis
  // in phase 2, and `barred_` columns in the second stage. On the fast
  // tier the sticky overflow flag is checked once per iteration: every
  // in-range intermediate is exact, so a run that finishes unflagged is
  // bit-for-bit the exact tier's result.
  RunOutcome RunSimplex(const std::vector<Scalar>& costs,
                        bool allow_artificials) {
    const int num_columns = live_columns_;
    // Initialize the maintained reduced-cost row:
    //   z_j = c_j - sum_i c_B(i) * T[i][j],
    // summed over each column's nonzero rows in increasing order (the
    // order a row-by-row sweep accumulates in); Pivot then updates it
    // like any other row.
    reduced_.assign(num_columns, Scalar());
    for (int j = 0; j < num_columns; ++j) {
      reduced_[j] = costs[j];
      ForEachRowOf(j, [&](int i) {
        const Scalar& basis_cost = costs[basis_[i]];
        if (!basis_cost.IsZero()) {
          reduced_[j] -= basis_cost * Cell(i, j);
        }
        return true;
      });
    }

    constexpr int kBlandStreak = 30;
    int degenerate_streak = 0;
    while (true) {
      if (ScalarOps<Scalar>::Overflowed()) {
        return RunOutcome::kOverflow;
      }
      if (guard_ != nullptr && !guard_->Check("simplex/pivot").ok()) {
        return RunOutcome::kTripped;
      }
      const bool use_bland = degenerate_streak >= kBlandStreak;
      int entering = -1;
      for (int j = 0; j < num_columns; ++j) {
        if (!allow_artificials && IsArtificial(j)) {
          continue;
        }
        if (!reduced_[j].IsNegative() || (!barred_.empty() && barred_[j])) {
          continue;
        }
        if (use_bland) {
          entering = j;  // First improving index.
          break;
        }
        if (entering < 0 || reduced_[j] < reduced_[entering]) {
          entering = j;  // Most negative reduced cost.
        }
      }
      if (entering < 0) {
        return RunOutcome::kOptimal;
      }
      int leaving_row = -1;
      Scalar best_ratio;
      ForEachRowOf(entering, [&](int i) {
        if (!Cell(i, entering).IsPositive()) {
          return true;
        }
        Scalar ratio = rhs_[i] / Cell(i, entering);
        if (leaving_row < 0 || ratio < best_ratio ||
            (ratio == best_ratio && basis_[i] < basis_[leaving_row])) {
          leaving_row = i;
          best_ratio = ratio;
        }
        return true;
      });
      if (ScalarOps<Scalar>::Overflowed()) {
        return RunOutcome::kOverflow;
      }
      if (leaving_row < 0) {
        return RunOutcome::kUnbounded;
      }
      degenerate_streak = best_ratio.IsZero() ? degenerate_streak + 1 : 0;
      ++pivots_;
      if (allow_artificials) {
        ++phase1_pivots_;
      }
      Pivot(leaving_row, entering);
    }
  }

  // Eliminates `pivot_column` from every other row. Only the pivot row's
  // nonzero live columns can change anywhere, and only rows with a
  // nonzero in the pivot column are touched.
  void Pivot(int pivot_row, int pivot_column) {
    Scalar* row = Row(pivot_row);
    pivot_columns_.clear();
    for (int j = 0; j < live_columns_; ++j) {
      if (!row[j].IsZero()) {
        pivot_columns_.push_back(j);
      }
    }
    const Scalar pivot = row[pivot_column];
    if (pivot != Scalar(1)) {
      for (int j : pivot_columns_) {
        row[j] /= pivot;
        SetOccupied(pivot_row, j, !row[j].IsZero());
      }
      rhs_[pivot_row] /= pivot;
    }
    ForEachRowOf(pivot_column, [&](int i) {
      if (i == pivot_row) {
        return true;
      }
      Scalar* target = Row(i);
      const Scalar factor = target[pivot_column];
      for (int j : pivot_columns_) {
        target[j] -= factor * row[j];
        SetOccupied(i, j, !target[j].IsZero());
      }
      rhs_[i] -= factor * rhs_[pivot_row];
      return true;
    });
    // The maintained reduced-cost row is eliminated like any other row
    // (only meaningful while RunSimplex is active; stale otherwise).
    if (reduced_.size() == static_cast<size_t>(live_columns_)) {
      const Scalar factor = reduced_[pivot_column];
      if (!factor.IsZero()) {
        for (int j : pivot_columns_) {
          reduced_[j] -= factor * row[j];
        }
      }
    }
    basic_row_[basis_[pivot_row]] = -1;
    basic_row_[pivot_column] = pivot_row;
    basis_[pivot_row] = pivot_column;
  }

  // After a successful phase 1, pivots any (necessarily degenerate)
  // artificial variables out of the basis; rows that cannot be pivoted are
  // redundant and are dropped. A redundant row is zero in every real
  // column, so the later pivots of this pass leave it untouched, and the
  // drops can wait until the pass ends.
  void EliminateArtificialsFromBasis() {
    std::vector<bool> redundant(basis_.size(), false);
    bool any_redundant = false;
    for (size_t i = 0; i < basis_.size(); ++i) {
      if (!IsArtificial(basis_[i])) {
        continue;
      }
      int pivot_column = -1;
      for (int j = 0; j < layout_->num_with_slacks; ++j) {
        if (!Cell(i, j).IsZero() && basic_row_[j] < 0) {
          pivot_column = j;
          break;
        }
      }
      if (pivot_column >= 0) {
        ++basis_pivots_;
        Pivot(static_cast<int>(i), pivot_column);
      } else {
        redundant[i] = true;
        any_redundant = true;
      }
    }
    if (any_redundant) {
      DropRows(redundant);
    }
  }

  // Removes the marked rows, keeping the others in order, and rebuilds
  // the row indices.
  void DropRows(const std::vector<bool>& drop) {
    size_t kept = 0;
    for (size_t i = 0; i < basis_.size(); ++i) {
      if (drop[i]) {
        continue;
      }
      if (kept != i) {
        std::move(Row(i), Row(i) + layout_->num_columns, Row(kept));
        rhs_[kept] = std::move(rhs_[i]);
        basis_[kept] = basis_[i];
      }
      ++kept;
    }
    cells_.resize(kept * layout_->num_columns);
    rhs_.resize(kept);
    basis_.resize(kept);
    std::fill(occupancy_.begin(), occupancy_.end(), 0);
    std::fill(basic_row_.begin(), basic_row_.end(), -1);
    for (size_t i = 0; i < kept; ++i) {
      const int row = static_cast<int>(i);
      for (int j = 0; j < layout_->num_columns; ++j) {
        if (!Cell(i, j).IsZero()) {
          SetOccupied(row, j, true);
        }
      }
      basic_row_[basis_[i]] = row;
    }
  }

  const LinearSystem* system_;
  const TableauLayout* layout_;
  ResourceGuard* guard_ = nullptr;
  // Upper bound of every per-column sweep; shrunk to num_with_slacks by
  // SolvePhase2 once artificial columns can never be touched again.
  int live_columns_ = 0;
  bool ok_ = true;
  std::uint64_t pivots_ = 0;
  std::uint64_t phase1_pivots_ = 0;
  std::uint64_t dual_pivots_ = 0;
  std::uint64_t basis_pivots_ = 0;
  // The m x num_columns cells, row-major in one block.
  std::vector<Scalar> cells_;
  std::vector<Scalar> rhs_;
  std::vector<int> basis_;
  std::vector<Scalar> reduced_;
  // Columns the second stage may not enter (off the primary's optimal
  // face); empty before it starts.
  std::vector<bool> barred_;
  // Row bitsets, `row_words_` words per column: bit i of column j is set
  // iff Cell(i, j) is nonzero. Columns at or past `live_columns_` go
  // stale once phase 2 shrinks the sweep, like their cells.
  size_t row_words_ = 0;
  std::vector<std::uint64_t> occupancy_;
  // The row a column is basic in, or -1.
  std::vector<int> basic_row_;
  // The pivot row's nonzero live columns, refilled by every Pivot.
  std::vector<int> pivot_columns_;
};

enum class TierOutcome { kCompleted, kOverflow, kTripped };

// One tier attempt's pivot counts, in the units of `SimplexStats`.
struct TierPivots {
  std::uint64_t pivots = 0;
  std::uint64_t phase1 = 0;
  std::uint64_t dual = 0;
  std::uint64_t basis = 0;

  // Adds a tableau's counts (phase 1 is never discarded, so it is taken
  // from the tableau that finishes).
  template <typename Scalar>
  void Add(const Tableau<Scalar>& tableau) {
    pivots += tableau.pivots();
    dual += tableau.dual_pivots();
    basis += tableau.basis_pivots();
  }
};

// What happened to the caller-provided basis during one tier's attempt.
// The completing tier's disposition drives the warm-start accounting in
// `SolveWith`: exactly one of hits/misses per attempted solve, plus the
// incremental (dual-repair) sub-counters.
struct WarmDisposition {
  bool attempted = false;        // A non-empty basis was handed in.
  bool used = false;             // It replaced phase 1 (as-is or repaired).
  bool repaired = false;         // Dual pivots were needed (subset of used;
                                 // includes infeasibility proofs).
  bool repair_fallback = false;  // Repair was attempted but abandoned and
                                 // this tier ran a cold phase 1 instead.
};

template <typename Scalar>
bool NarrowCosts(const std::vector<Rational>& costs, std::vector<Scalar>* out) {
  out->assign(costs.size(), Scalar());
  for (size_t j = 0; j < costs.size(); ++j) {
    if (!ScalarOps<Scalar>::FromRational(costs[j], &(*out)[j])) {
      return false;
    }
  }
  return true;
}

// Runs a full two-phase solve on one arithmetic tier, then the second
// stage when `then_costs` is non-empty. On kCompleted, `*out` holds the
// verdict (values filled for kOptimal); on every outcome `*counts` holds
// the attempt's pivots, which the caller flushes to the global counters.
template <typename Scalar>
TierOutcome SolveOnTier(const LinearSystem& system, const TableauLayout& layout,
                        const std::vector<Rational>& structural_costs,
                        const std::vector<Rational>& then_costs,
                        const SimplexOptions& options, LpResult* out,
                        TierPivots* counts, WarmDisposition* warm) {
  ScalarOps<Scalar>::ClearOverflow();
  *counts = TierPivots();
  *warm = WarmDisposition();

  std::vector<Scalar> costs;
  std::vector<Scalar> second_costs;
  if (!NarrowCosts(structural_costs, &costs) ||
      !NarrowCosts(then_costs, &second_costs)) {
    return TierOutcome::kOverflow;
  }

  // Charge the dominant allocation (the tableau cells, the maintained rows
  // and the row bitsets) against the guard's memory budget for the
  // duration of this tier's attempt.
  ScopedMemoryCharge tableau_charge(options.guard,
                                    Tableau<Scalar>::StorageBytes(layout));
  Tableau<Scalar> tableau(system, layout, options.guard);
  if (!tableau.ok()) {
    return TierOutcome::kOverflow;
  }

  // Pivots spent on a warm-start attempt whose tableau was then discarded
  // (repair cap / overflow); still real work, still reported.
  TierPivots discarded;
  // The attempt's counts so far: the discarded tableaux plus the live one.
  auto count = [&] {
    *counts = discarded;
    counts->Add(tableau);
    counts->phase1 = tableau.phase1_pivots();
  };

  bool skip_phase1 = false;
  bool tableau_adopted = false;  // Carried-basis pivots applied (not fresh).
  if (options.warm_start != nullptr && !options.warm_start->empty()) {
    warm->attempted = true;
    bool attempted_repair = false;
    WarmStartOutcome pivot_in = tableau.TryWarmStart(
        *options.warm_start, /*allow_dual_repair=*/true, &attempted_repair);
    count();
    switch (pivot_in) {
      case WarmStartOutcome::kFeasible:
        skip_phase1 = true;
        warm->used = true;
        break;
      case WarmStartOutcome::kRepaired:
        skip_phase1 = true;
        warm->used = true;
        warm->repaired = true;
        break;
      case WarmStartOutcome::kPartial:
        // Primal-feasible but an artificial survived: run phase 1 from
        // the adopted tableau (it converges in a handful of pivots from
        // here — the whole point of carrying the basis).
        warm->used = true;
        warm->repaired = attempted_repair;
        tableau_adopted = true;
        break;
      case WarmStartOutcome::kInfeasibleProof:
        warm->used = true;
        warm->repaired = true;
        out->outcome = LpOutcome::kInfeasible;
        return TierOutcome::kCompleted;
      case WarmStartOutcome::kTripped:
        return TierOutcome::kTripped;
      case WarmStartOutcome::kRejected:
        // The failed attempt may have left the tableau mid-elimination
        // (and possibly overflowed); rebuild and run cold on this tier.
        // Rung 0 -> 1 of the degradation ladder (DESIGN.md §14).
        BumpStat(GetRecoveryStats().warm_start_fallbacks);
        warm->repair_fallback = attempted_repair;
        discarded.Add(tableau);
        ScalarOps<Scalar>::ClearOverflow();
        tableau = Tableau<Scalar>(system, layout, options.guard);
        if (!tableau.ok()) {
          return TierOutcome::kOverflow;
        }
        break;
    }
  }

  // Crash basis: only on a fresh tableau (a partially-adopted carry is
  // already a better phase-1 start than any crash). Outcomes that are not
  // immediately primal-feasible just fall through to the cold phase 1;
  // kRejected means the greedy pivot-in left the tableau mid-elimination,
  // so rebuild first. Never touches the warm-start disposition — a crash
  // is a structural hint from the caller, not a carried basis.
  if (!skip_phase1 && !tableau_adopted && options.crash_vars != nullptr &&
      !options.crash_vars->empty()) {
    WarmStartBasis crash;
    crash.num_columns = layout.num_columns;
    crash.basis.reserve(options.crash_vars->size());
    for (VarId v : *options.crash_vars) {
      crash.basis.push_back(layout.column_of_var[v]);
    }
    bool crash_repair = false;
    const WarmStartOutcome crashed =
        tableau.TryWarmStart(crash, /*allow_dual_repair=*/false,
                             &crash_repair);
    count();
    if (crashed == WarmStartOutcome::kFeasible) {
      skip_phase1 = true;
    } else if (crashed == WarmStartOutcome::kTripped) {
      return TierOutcome::kTripped;
    } else if (crashed == WarmStartOutcome::kRejected) {
      discarded.Add(tableau);
      ScalarOps<Scalar>::ClearOverflow();
      tableau = Tableau<Scalar>(system, layout, options.guard);
      if (!tableau.ok()) {
        return TierOutcome::kOverflow;
      }
    }
    // kPartial: rhs >= 0 with some artificial still basic — a valid (and
    // cheaper) phase-1 start; keep the tableau.
  }

  if (!skip_phase1) {
    Phase1Outcome phase1 = tableau.SolvePhase1();
    count();
    if (phase1 == Phase1Outcome::kOverflow) {
      return TierOutcome::kOverflow;
    }
    if (phase1 == Phase1Outcome::kTripped) {
      return TierOutcome::kTripped;
    }
    if (phase1 == Phase1Outcome::kInfeasible) {
      out->outcome = LpOutcome::kInfeasible;
      return TierOutcome::kCompleted;
    }
  }

  RunOutcome phase2 = tableau.SolvePhase2(costs);
  if (phase2 == RunOutcome::kOptimal && !second_costs.empty()) {
    phase2 = tableau.SolveSecondStage(second_costs);
  }
  count();
  if (phase2 == RunOutcome::kOverflow) {
    return TierOutcome::kOverflow;
  }
  if (phase2 == RunOutcome::kTripped) {
    return TierOutcome::kTripped;
  }
  if (phase2 == RunOutcome::kUnbounded) {
    out->outcome = LpOutcome::kUnbounded;
    return TierOutcome::kCompleted;
  }
  out->outcome = LpOutcome::kOptimal;
  out->values = tableau.ExtractValues();
  if (ScalarOps<Scalar>::Overflowed()) {
    return TierOutcome::kOverflow;
  }
  if (options.export_basis != nullptr) {
    tableau.ExportBasis(options.export_basis);
  }
  return TierOutcome::kCompleted;
}

// Records the completing tier's warm-start disposition: one hit or miss
// per solve that attempted reuse, plus the dual-repair sub-counters.
void RecordWarmDisposition(SimplexStats& stats, const WarmDisposition& warm) {
  if (!warm.attempted) {
    return;
  }
  if (warm.used) {
    BumpStat(stats.warm_start_hits);
    if (warm.repaired) {
      BumpStat(stats.incremental_hits);
    }
  } else {
    BumpStat(stats.warm_start_misses);
    if (warm.repair_fallback) {
      BumpStat(stats.incremental_fallbacks);
    }
  }
}

// Structural-column costs whose minimization is that of +/- `objective`.
std::vector<Rational> StructuralCosts(const TableauLayout& layout,
                                      const LinearExpr& objective,
                                      bool maximize) {
  std::vector<Rational> costs(layout.num_structural, Rational());
  for (const auto& [var, coeff] : objective.terms()) {
    Rational c = maximize ? -coeff : coeff;
    costs[layout.column_of_var[var]] += c;
    if (layout.neg_column_of_var[var] >= 0) {
      costs[layout.neg_column_of_var[var]] -= c;
    }
  }
  return costs;
}

// The body of SolveWith. Kept separate so the public entry point can
// wrap it in the std::bad_alloc -> kResourceExhausted boundary: callers
// fan solves out over ThreadPool workers, and an exception escaping a
// worker would std::terminate the process, so the conversion must happen
// here inside the subsystem, not at the CLI.
Result<LpResult> SolveWithImpl(const LinearSystem& system,
                               const LinearExpr& objective, bool maximize,
                               const SimplexOptions& options) {
  if (system.HasStrictConstraints()) {
    return InvalidArgumentError(
        "SimplexSolver does not accept strict constraints; reduce them via "
        "the homogeneous layer first");
  }
  if (options.guard != nullptr) {
    CRSAT_RETURN_IF_ERROR(options.guard->Check("simplex/solve"));
  }
  SimplexStats& stats = GetSimplexStats();
  BumpStat(stats.solves);

  // The forced-cold reference path (CRSAT_NO_INCREMENTAL /
  // ScopedIncrementalOverride) ignores carried bases entirely so every
  // solve runs the exact code path the differential tests compare against.
  SimplexOptions effective = options;
  if (effective.warm_start != nullptr && !IncrementalReasoningEnabled()) {
    effective.warm_start = nullptr;
  }

  TableauLayout layout(system);
  const std::vector<Rational> costs =
      StructuralCosts(layout, objective, maximize);
  std::vector<Rational> then_costs;
  if (options.then_minimize != nullptr) {
    then_costs = StructuralCosts(layout, *options.then_minimize,
                                 /*maximize=*/false);
  }

  TierPivots tier;
  WarmDisposition warm;
  auto flush = [&stats, &tier] {
    BumpStat(stats.pivots, tier.pivots);
    BumpStat(stats.phase1_pivots, tier.phase1);
    BumpStat(stats.dual_pivots, tier.dual);
    BumpStat(stats.basis_pivots, tier.basis);
  };

  bool try_fast_tier = effective.tier == SimplexOptions::Tier::kTwoTier;
  if (try_fast_tier && CRSAT_FAILPOINT("lp/fast_tier_overflow")) {
    // Rung 1 -> 2 without attempting the int64 tier: an injected overflow
    // simulates the fast tier failing at the earliest possible point. The
    // exact re-solve below is the same code the genuine overflow path runs.
    try_fast_tier = false;
    BumpStat(GetRecoveryStats().tier_fallbacks);
  }
  if (try_fast_tier) {
    LpResult fast;
    TierOutcome outcome = SolveOnTier<SmallRational>(
        system, layout, costs, then_costs, effective, &fast, &tier, &warm);
    flush();
    if (outcome == TierOutcome::kTripped) {
      // The trip is sticky; an exact-tier restart would trip immediately.
      return effective.guard->TripStatus();
    }
    if (outcome == TierOutcome::kCompleted) {
      BumpStat(stats.fast_solves);
      BumpStat(stats.fast_pivots, tier.pivots);
      RecordWarmDisposition(stats, warm);
      if (fast.outcome == LpOutcome::kOptimal) {
        fast.objective = objective.Evaluate(fast.values);
      }
      return fast;
    }
    BumpStat(GetRecoveryStats().tier_fallbacks);
  }

  LpResult exact;
  TierOutcome outcome = SolveOnTier<Rational>(
      system, layout, costs, then_costs, effective, &exact, &tier, &warm);
  flush();
  if (outcome == TierOutcome::kTripped) {
    return effective.guard->TripStatus();
  }
  (void)outcome;  // The exact tier cannot overflow.
  RecordWarmDisposition(stats, warm);
  if (exact.outcome == LpOutcome::kOptimal) {
    exact.objective = objective.Evaluate(exact.values);
  }
  return exact;
}

}  // namespace

Result<LpResult> SimplexSolver::SolveWith(const LinearSystem& system,
                                          const LinearExpr& objective,
                                          bool maximize,
                                          const SimplexOptions& options) {
  // Allocation-failure boundary (rung 3 of the degradation ladder): a
  // genuine std::bad_alloc anywhere in the solve — or the injected
  // `alloc/simplex` fault standing in for one — becomes an honest
  // kResourceExhausted refusal instead of a crash.
  try {
    if (CRSAT_FAILPOINT("alloc/simplex")) {
      throw std::bad_alloc();
    }
    return SolveWithImpl(system, objective, maximize, options);
  } catch (const std::bad_alloc&) {
    BumpStat(GetRecoveryStats().bad_alloc_conversions);
    return ResourceExhaustedError(
        "simplex: allocation failed; returning UNKNOWN instead of "
        "crashing");
  }
}

Result<LpResult> SimplexSolver::Solve(const LinearSystem& system,
                                      const LinearExpr& objective,
                                      bool maximize) {
  return SolveWith(system, objective, maximize, SimplexOptions());
}

Result<LpResult> SimplexSolver::CheckFeasibility(const LinearSystem& system) {
  return Solve(system, LinearExpr(), /*maximize=*/false);
}

}  // namespace crsat
