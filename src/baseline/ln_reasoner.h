#ifndef CRSAT_BASELINE_LN_REASONER_H_
#define CRSAT_BASELINE_LN_REASONER_H_

#include <vector>

#include "src/base/result.h"
#include "src/cr/schema.h"
#include "src/lp/linear_system.h"
#include "src/math/bigint.h"

namespace crsat {

/// The Lenzerini–Nobili 1990 decision procedure (reference [15] of the
/// paper): satisfiability of cardinality constraints in ER schemas
/// *without* ISA.
///
/// With no ISA (and hence no class overlap forced by the schema), one
/// unknown per class and one per relationship suffices: each tuple of `R`
/// contributes exactly one filler at role `U`, so
/// `minc * x_C <= x_R <= maxc * x_C` for the role's primary class `C`.
/// Acceptability is the same dependency condition as in the full method.
/// This is the baseline the paper builds on — and the one its Figure 1
/// shows to be insufficient once ISA enters (the baseline checker refuses
/// schemas with ISA, disjointness, covering or refinements).
class LnReasoner {
 public:
  /// Fails with `InvalidArgument` if the schema uses any feature outside
  /// the Lenzerini-Nobili fragment (ISA statements, subclass refinements,
  /// Section 5 extensions).
  static Result<LnReasoner> Create(const Schema& schema);

  /// True iff `cls` can be populated in some finite model.
  Result<bool> IsClassSatisfiable(ClassId cls) const;

  /// One flag per class, from a single support computation.
  Result<std::vector<bool>> SatisfiableClasses() const;

  /// The per-class / per-relationship instance counts of the minimal
  /// acceptable integer solution with maximal support: one support
  /// computation, whose cover LP yields the minimal witness in its second
  /// stage (`SatisfiableClasses` skips that stage).
  struct Solution {
    std::vector<BigInt> class_counts;
    std::vector<BigInt> rel_counts;
  };
  Result<Solution> AcceptableIntegerSolution() const;

  /// The underlying (small) linear system: one variable per class followed
  /// by one per relationship.
  const LinearSystem& system() const { return system_; }

 private:
  explicit LnReasoner(const Schema& schema);

  const Schema* schema_;
  LinearSystem system_;
  std::vector<VarId> class_vars_;
  std::vector<VarId> rel_vars_;
};

}  // namespace crsat

#endif  // CRSAT_BASELINE_LN_REASONER_H_
