#ifndef CRSAT_CRSAT_H_
#define CRSAT_CRSAT_H_

/// crsat — reasoning about the interaction between ISA and cardinality
/// constraints in the CR data model, after:
///
///   D. Calvanese, M. Lenzerini. "On the Interaction Between ISA and
///   Cardinality Constraints". Proc. ICDE 1994, pp. 205-213.
///
/// Typical pipeline:
///
///   #include "src/crsat.h"
///
///   crsat::Result<crsat::NamedSchema> parsed = crsat::ParseSchema(text);
///   crsat::Result<crsat::Expansion> expansion =
///       crsat::Expansion::Build(parsed->schema);
///   crsat::SatisfiabilityChecker checker(*expansion);
///   crsat::Result<bool> ok = checker.IsClassSatisfiable(cls);
///   crsat::Result<crsat::CertifiedWitness> witness =
///       crsat::WitnessSynthesizer(checker).Synthesize();
///   // witness->interpretation(): a ModelChecker-certified finite model
///   // populating every satisfiable class.
///
/// Implication queries live in `ImplicationChecker`, schema debugging in
/// `MinimizeUnsatCore`, and the ISA-free Lenzerini-Nobili baseline in
/// `LnReasoner`. Cheap pre-LP structural diagnostics (the lint engine)
/// live in `RunLint` / `LintRuleRegistry` (src/analysis/). The
/// independent brute-force ground truth and the differential conformance
/// harness live in `BruteForceOracle` / `RunConformance` (src/oracle/),
/// and the graph-saturation witness engine — the harness's third voice,
/// with classical (unrestricted-model) semantics — in `SaturationEngine`
/// (src/saturation/). The verbs `crsat_cli` and crsatd share (check,
/// lint, implies) live in `crsat::commands` (src/commands/).

#include "src/analysis/diagnostics.h"
#include "src/analysis/empty_classes.h"
#include "src/analysis/lint_engine.h"
#include "src/analysis/lint_rule.h"
#include "src/analysis/rules.h"
#include "src/base/degradation.h"
#include "src/base/failpoint.h"
#include "src/base/resource_guard.h"
#include "src/base/result.h"
#include "src/base/status.h"
#include "src/base/thread_pool.h"
#include "src/base/incremental.h"
#include "src/base/json.h"
#include "src/baseline/fast_path.h"
#include "src/baseline/ln_reasoner.h"
#include "src/commands/analysis.h"
#include "src/commands/commands.h"
#include "src/cr/interpretation.h"
#include "src/cr/model_checker.h"
#include "src/cr/schema.h"
#include "src/cr/schema_text.h"
#include "src/cr/state_text.h"
#include "src/expansion/compound.h"
#include "src/expansion/expansion.h"
#include "src/generator/random_schema.h"
#include "src/lp/fourier_motzkin.h"
#include "src/lp/homogeneous.h"
#include "src/lp/linear_system.h"
#include "src/lp/simplex.h"
#include "src/math/bigint.h"
#include "src/math/rational.h"
#include "src/oracle/brute_force.h"
#include "src/oracle/conformance.h"
#include "src/oracle/metamorphic.h"
#include "src/reasoner/implication.h"
#include "src/reasoner/implication_engine.h"
#include "src/reasoner/repair.h"
#include "src/reasoner/satisfiability.h"
#include "src/reasoner/system_builder.h"
#include "src/reasoner/unsat_core.h"
#include "src/saturation/graph.h"
#include "src/saturation/saturation.h"
#include "src/witness/witness.h"
#include "src/witness/witness_text.h"

#endif  // CRSAT_CRSAT_H_
