#ifndef CRSAT_ORACLE_CONFORMANCE_H_
#define CRSAT_ORACLE_CONFORMANCE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/base/result.h"
#include "src/oracle/brute_force.h"
#include "src/saturation/saturation.h"

namespace crsat {

/// Knobs for one conformance sweep (see RunConformance below).
struct ConformanceOptions {
  /// How many generator seeds to sweep, starting at `first_seed`.
  int num_seeds = 100;
  std::uint32_t first_seed = 1;

  /// Engine selection for the vote (the reasoner always runs — it is the
  /// system under test). `check_oracle` gates the brute-force oracle,
  /// `check_saturation` the graph-saturation engine; with both on, every
  /// class verdict is a three-way vote.
  bool check_oracle = true;
  bool check_saturation = true;

  /// Bounds for the brute-force ground-truth oracle.
  OracleOptions oracle;

  /// Knobs for the saturation engine. Leave `saturation.guard` null in
  /// sweeps: the step/node budgets are deterministic, wall-clock
  /// timeouts are not, and sweep verdicts must be reproducible.
  SaturationOptions saturation;

  /// Curated schema texts (ParseSchema grammar) checked before the
  /// generated sweep, through the same comparison pipeline; their
  /// disagreements are reported with seed 0. The baseline cross-check is
  /// generator-derived and skips them.
  std::vector<std::string> extra_schema_texts;

  /// Shape of the generated schemas. Small on purpose: the oracle is
  /// exponential in these, and small schemas are where reasoner bugs
  /// minimize to anyway.
  int num_classes = 4;
  int num_relationships = 3;
  double isa_density = 0.25;

  /// Cross-check against the Lenzerini–Nobili baseline on an ISA-free
  /// sibling schema (same seed, ISA/refinements/extensions disabled).
  bool check_baseline = true;

  /// Re-run the reasoner on every metamorphic mutant and check the rule's
  /// verdict relation.
  bool check_metamorphic = true;

  /// Synthesize a certified witness for SAT schemas; a certified witness
  /// that fits inside the oracle bounds while the oracle said
  /// UNSAT-up-to-bound convicts the *oracle* (completeness bug).
  bool check_witnesses = true;

  /// Greedily shrink disagreeing schemas before reporting.
  bool minimize = true;
  /// Cap on predicate evaluations per minimization (each one is a full
  /// reasoner + oracle run).
  int minimize_budget = 200;

  /// Test hook: flip the reasoner's verdict for this class id on the
  /// original schema of every seed (-1 = off). Simulates a reasoner
  /// soundness/completeness bug so tests can prove the harness catches
  /// one without committing a broken reasoner.
  int inject_flip_class = -1;
};

/// One reasoner-vs-ground-truth (or reasoner-vs-contract) conflict.
struct ConformanceDisagreement {
  std::uint32_t seed = 0;
  /// Machine-readable taxonomy:
  ///   "reasoner-unsat-oracle-sat"  — oracle holds a certified model the
  ///                                  reasoner claims cannot exist
  ///                                  (reasoner soundness bug);
  ///   "oracle-missed-witness"      — certified witness fits the oracle
  ///                                  bounds yet the oracle said UNSAT
  ///                                  (oracle completeness bug);
  ///   "reasoner-vs-baseline"       — LN fragment, two solvers disagree;
  ///   "target-query-vs-support"    — a class query on a fresh checker
  ///                                  (the target LP, Theorem 3.3) and
  ///                                  the maximal support disagree;
  ///   "metamorphic:<rule>"         — a verdict-relation theorem violated.
  /// Saturation-engine taxonomy (three-way vote):
  ///   "saturation-missed-violation"      — a saturation finite model
  ///                                        fails the harness's own
  ///                                        ModelChecker re-judging
  ///                                        (saturation soundness bug,
  ///                                        e.g. a weakened merge rule);
  ///   "saturation-claims-sat-oracle-unsat" — saturation claims classical
  ///                                        SAT but its graph fails
  ///                                        ValidateSaturationGraph while
  ///                                        the oracle found no model
  ///                                        (e.g. over-eager blocking);
  ///   "saturation-graph-invalid"         — invalid graph, no oracle
  ///                                        verdict to corroborate;
  ///   "saturation-unsat-reasoner-sat"    — saturation proves classical
  ///                                        UNSAT where the reasoner
  ///                                        reports finitely SAT;
  ///   "saturation-unsat-oracle-sat"      — saturation proves classical
  ///                                        UNSAT where the oracle holds
  ///                                        a certified finite model;
  ///   "reasoner-unsat-saturation-model"  — a harness-certified finite
  ///                                        saturation model for a class
  ///                                        the reasoner calls UNSAT;
  ///   "oracle-missed-saturation-model"   — a certified saturation model
  ///                                        fits the oracle bounds yet
  ///                                        the oracle said UNSAT.
  /// NOT a disagreement: saturation sat-with-reuse vs reasoner UNSAT with
  /// a *valid* graph — that is the finitely-unsat/classically-sat
  /// contrast the engine exists to exhibit (`infinite_model_contrasts`).
  std::string kind;
  std::string class_name;
  std::string detail;
  /// Schema text (`ParseSchema`-compatible) reproducing the disagreement.
  std::string schema_text;
  /// Greedily shrunk variant that still disagrees (empty when minimization
  /// is off or nothing could be removed).
  std::string minimized_schema_text;
};

/// Counters + disagreements from a sweep. A clean run is
/// `disagreements.empty()` with the positive-evidence counters nonzero —
/// zero disagreements over zero comparisons proves nothing, so the tests
/// assert on the counters too.
struct ConformanceReport {
  int schemas_checked = 0;
  int class_verdicts_compared = 0;
  int sat_confirmed_by_oracle = 0;
  int unsat_consistent_up_to_bound = 0;
  /// Reasoner said SAT, oracle hit its bound, and the certified witness
  /// (when available) was genuinely larger than the bound — consistent.
  int sat_beyond_bound = 0;
  int oracle_exhausted = 0;
  int baseline_schemas = 0;
  int metamorphic_mutants = 0;
  int witnesses_certified = 0;
  /// Three-way-vote counters (all zero when `check_saturation` is off).
  /// Saturation finite models that passed the harness's ModelChecker.
  int saturation_models_certified = 0;
  /// Classes where reasoner SAT was corroborated by a certified
  /// saturation model / where reasoner UNSAT was corroborated by a
  /// saturation classical-UNSAT proof (strictly stronger than finite).
  int sat_confirmed_by_saturation = 0;
  int unsat_confirmed_by_saturation = 0;
  /// Benign: classically satisfiable per a valid saturation graph, but
  /// no finite model found within phase B budgets while the reasoner
  /// says finitely SAT.
  int sat_without_finite_witness = 0;
  /// The contrast class: reasoner finitely-UNSAT, saturation classically
  /// SAT with a validated cyclic graph. The schemas the two-engine
  /// harness could never exhibit.
  int infinite_model_contrasts = 0;
  /// Saturation gave up (guard trip, injected fault, step budget).
  int saturation_unknown = 0;
  std::vector<ConformanceDisagreement> disagreements;

  std::string ToJson() const;
  /// One-paragraph human summary.
  std::string Summary() const;
};

/// The differential driver: for each seed, generates a schema, runs the
/// production reasoner (expansion -> satisfiability, the same path as
/// `crsat_cli check`), and cross-checks it five ways — against the
/// brute-force oracle, against the graph-saturation engine (per-class
/// three-way vote, saturation models re-judged by ModelChecker and
/// saturation graphs re-judged by ValidateSaturationGraph, both at
/// harness level), against the LN baseline on the ISA-free fragment,
/// against itself under metamorphic rewrites, and against its own
/// certified witnesses. Any conflict is recorded (and minimized); a
/// harness-level failure (e.g. the generator itself erroring) aborts with
/// a non-ok status instead of being swallowed.
Result<ConformanceReport> RunConformance(const ConformanceOptions& options);

/// Knobs for one chaos sweep (see RunChaosConformance below).
struct ChaosConformanceOptions {
  /// How many generator seeds to sweep, starting at `first_seed`. Each
  /// seed determines both the schema AND the fault schedule, so a sweep
  /// is reproducible fault-for-fault from `(first_seed, num_seeds)`.
  int num_seeds = 200;
  std::uint32_t first_seed = 1;

  /// Shape of the generated schemas (same knobs as ConformanceOptions).
  int num_classes = 4;
  int num_relationships = 3;
  double isa_density = 0.25;

  /// Upper bound on how many distinct failpoints are armed per seed (at
  /// least one is always armed — an unfaulted rerun proves nothing).
  int max_faults_per_seed = 3;

  /// Also re-run witness synthesis under faults whenever the fault-free
  /// verdicts contain a satisfiable class, asserting the faulted pipeline
  /// either certifies a model or fails benignly.
  bool check_witnesses = true;

  /// Test hook: flip the *faulted* run's verdict for this class id on
  /// every seed (-1 = off). Simulates a degradation path that silently
  /// corrupts a verdict, so tests can prove the chaos harness detects
  /// verdict flips without committing a broken ladder.
  int inject_flip_class = -1;
};

/// One soundness violation of the degradation ladder: a run with faults
/// injected produced a *different answer* instead of the same answer or a
/// resource-status UNKNOWN.
struct ChaosVerdictFlip {
  std::uint32_t seed = 0;
  /// "verdict-flip"            — a class verdict differs from fault-free;
  /// "non-benign-status"       — faulted run failed with a status outside
  ///                             the resource family (kInternal etc.);
  /// "witness-flip"            — faulted witness stage produced a
  ///                             non-model or a non-benign failure.
  std::string kind;
  std::string class_name;
  /// The fault schedule active during the run, in CRSAT_FAILPOINTS
  /// grammar, so the flip replays from the command line.
  std::string fault_schedule;
  std::string detail;
  std::string schema_text;
};

/// Counters + flips from a chaos sweep. Soundness holds iff `flips` is
/// empty; the positive-evidence counters (`faults_fired`,
/// `faulted_runs_agreeing`) must be nonzero for the run to prove
/// anything, and the tests assert that too.
struct ChaosReport {
  int seeds_swept = 0;
  /// Faulted runs that completed with verdicts identical to fault-free.
  int faulted_runs_agreeing = 0;
  /// Faulted runs that degraded to a resource-status UNKNOWN (the
  /// bottom rung of the ladder) instead of answering.
  int degraded_to_unknown = 0;
  /// Faulted witness stages that still certified a model / that failed
  /// benignly.
  int witnesses_survived = 0;
  int witness_benign_failures = 0;
  /// Total failpoint activations and fires across the sweep.
  int failpoints_armed = 0;
  std::uint64_t faults_fired = 0;
  /// Per-failpoint fire counts (sorted by id), for coverage reporting.
  std::vector<std::pair<std::string, std::uint64_t>> fires_by_failpoint;
  std::vector<ChaosVerdictFlip> flips;

  std::string ToJson() const;
  /// One-paragraph human summary.
  std::string Summary() const;
};

/// The chaos driver proving the degradation ladder sound: for each seed,
/// runs the production verdict pipeline fault-free, then re-runs it under
/// a seed-derived randomized fault schedule (failpoints armed through the
/// registry API with nth/every-K/probability modes) and a resource guard,
/// and asserts the faulted outcome is either (a) verdicts identical to
/// the fault-free run, or (b) a resource-family UNKNOWN — never a
/// different answer. Witness synthesis is additionally allowed its
/// documented benign failures (`kUnavailable` rescale exhaustion,
/// cancellation). All failpoints are deactivated before returning, even
/// on error paths.
Result<ChaosReport> RunChaosConformance(const ChaosConformanceOptions& options);

}  // namespace crsat

#endif  // CRSAT_ORACLE_CONFORMANCE_H_
