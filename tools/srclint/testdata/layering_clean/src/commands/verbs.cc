// Fixture: the shared verb layer including the production stack below it.
#include "src/analysis/lint_engine.h"
#include "src/baseline/fast_path.h"
#include "src/reasoner/implication.h"
#include "src/witness/witness.h"

int RunAVerb() { return 0; }
