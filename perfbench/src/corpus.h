#ifndef CRSAT_PERFBENCH_CORPUS_H_
#define CRSAT_PERFBENCH_CORPUS_H_

// Seeded benchmark inputs. The same seed gives the same inputs; the
// program under test only ever sees the generated schemas (as DSL text,
// or as built `Schema`s for the implication workload).

#include <cstdint>
#include <string>
#include <vector>

#include "src/cr/schema.h"

namespace perfbench {

// How a corpus schema was made. Strata are assigned by index (see
// `MakeSchemaCorpus`), so every seed has the same shares.
enum class InputKind {
  kIsaFree,  // No ISA: the Lenzerini-Nobili fast path answers it.
  kIsa,      // Random ISA hierarchy.
  kFigure1,  // Random ISA hierarchy plus the paper's Figure-1 pattern.
};

const char* InputKindName(InputKind kind);

struct SchemaInput {
  std::string name;  // Display name, e.g. "s17".
  std::string text;  // DSL text handed to the program.
  InputKind kind = InputKind::kIsa;
  // Classes that are finitely unsatisfiable by construction (the
  // Figure-1 gadget and the class placed under it).
  std::vector<std::string> forced_unsat;
  // Two classes of the random part, for `implications isa` requests.
  std::string isa_sub;
  std::string isa_super;
};

// `count` random CR schemas with three binary relationships. Index i gets
// stratum i % 4: 0 is ISA-free, 1 and 2 carry a random ISA hierarchy over
// `classes` classes, 3 carries a random ISA hierarchy over `classes - 2`
// classes plus the Figure-1 gadget (two classes and a relationship that
// admit only the empty finite model, with one random class placed under
// them). So every corpus is 25% ISA-free and 25% finitely unsatisfiable
// by construction. `stream` separates corpora drawn from one seed.
std::vector<SchemaInput> MakeSchemaCorpus(std::uint32_t seed,
                                          std::uint32_t stream, int count,
                                          int classes);

// One ISA-chain schema of the implication workload, as DSL text: C0 < C1
// < ... < C(depth-1), a relationship R(U: C(depth-1), V: T) with T in R.V
// = (1, 1), seeded bounds on C(depth-1) and C0 for role U, and sometimes a
// refinement on a middle class. The bounds are drawn so that C0's
// inherited range is [implied_min, implied_max], which is exactly what the
// schema implies for (C0, R, U): a model exists with any participation in
// that range, and none outside it.
struct ChainInput {
  std::string text;
  std::uint64_t implied_min = 0;
  std::uint64_t implied_max = 0;
};

std::vector<ChainInput> MakeChainCorpus(std::uint32_t seed, int count,
                                        int depth);

}  // namespace perfbench

#endif  // CRSAT_PERFBENCH_CORPUS_H_
