#ifndef CRSAT_PERFBENCH_REFERENCE_H_
#define CRSAT_PERFBENCH_REFERENCE_H_

// Correctness references that do not come from the reasoner under test.
// They are computed outside every timed region.

#include <string>
#include <string_view>
#include <vector>

#include "src/base/result.h"
#include "src/cr/interpretation.h"
#include "src/cr/schema.h"

namespace perfbench {

// What the independent voters established about one class.
enum class Expect { kUnknown, kSat, kUnsat };

// Classes sent to the voters and what they settled.
struct ReferenceTally {
  int classes = 0;
  int sat = 0;      // A voter produced a ModelChecker-certified model.
  int unsat = 0;    // Saturation refuted it, or Figure-1 construction.
  int unknown = 0;  // Neither voter settled it.
  // Unsettled classes whose saturation graph (a cyclic certificate of
  // classical satisfiability) passed ValidateSaturationGraph: the
  // finite-versus-classical contrast of the paper's Figure 1.
  int cyclic = 0;

  // "UNSAT verdicts checked: N, confirmed U, refuted S, unsettled K (...)".
  std::string Summary() const;
};

// Per-class references for the classes flagged in `open` (the ones a
// reasoner called unsatisfiable; a satisfiable verdict is checked through
// its witness instead): the classes the generator made finitely
// unsatisfiable (`forced_unsat`), the SaturationEngine, and, for classes
// still open, the bounded BruteForceOracle. Every model a voter offers is
// re-judged with ModelChecker here, and every cyclic saturation graph with
// ValidateSaturationGraph. Fails when a voter errors or offers a
// certificate that does not check.
crsat::Result<std::vector<Expect>> ReferenceVerdicts(
    const crsat::Schema& schema, const std::vector<std::string>& forced_unsat,
    const std::vector<bool>& open, ReferenceTally* tally);

// Empty when the reasoner's per-class verdicts agree with `reference`;
// otherwise a description of the first disagreement.
std::string JudgeVerdicts(const crsat::Schema& schema,
                          const std::vector<bool>& verdicts,
                          const std::vector<Expect>& reference);

// Empty when `witness` passes ModelChecker and populates exactly the
// classes `verdicts` calls satisfiable; otherwise the first problem.
std::string JudgeWitness(const crsat::Schema& schema,
                         const crsat::Interpretation& witness,
                         const std::vector<bool>& verdicts);

// Rebuilds an interpretation from `Interpretation::ToString` text (the
// body of a crsatd `witness text` reply), so a witness that crossed the
// wire can be re-judged.
crsat::Result<crsat::Interpretation> ParseWitnessText(
    const crsat::Schema& schema, std::string_view text);

// Per-class verdicts from a crsatd `check` reply ("  satisfiable    C" /
// "  UNSATISFIABLE  C" lines).
crsat::Result<std::vector<bool>> ParseCheckReply(const crsat::Schema& schema,
                                                 std::string_view text);

}  // namespace perfbench

#endif  // CRSAT_PERFBENCH_REFERENCE_H_
