// check_batch: the schema designer's loop. Every schema of a seeded
// corpus goes through the CLI `check` pipeline (Lenzerini-Nobili fast
// path, provably-empty analysis, expansion, SatisfiableClasses), then a
// certified witness when some class is satisfiable and `debug`
// (MinimizeUnsatCore on the first unsatisfiable class) when some class is
// not. One timed operation checks a batch of sixteen consecutive corpus
// schemas, four from each stratum, so every batch has the same mix and
// the run's ten slowest batches (tail_ms) sit close to the bulk.

#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>

#include "src/analysis/empty_classes.h"
#include "src/base/thread_pool.h"
#include "src/baseline/fast_path.h"
#include "src/corpus.h"
#include "src/cr/schema_text.h"
#include "src/expansion/expansion.h"
#include "src/reasoner/satisfiability.h"
#include "src/reasoner/unsat_core.h"
#include "src/reference.h"
#include "src/witness/witness.h"
#include "src/workloads.h"

namespace perfbench {
namespace {

constexpr int kPoolThreads = 1;
constexpr int kClasses = 3;
// Large enough that a run never checks a schema twice; only the schemas a
// run reaches get a reference.
constexpr int kCorpusSize = 8000;
constexpr int kBatch = 16;
// The repeatability unit: solver work of the first kWorkOps batches.
constexpr std::uint64_t kWorkOps = 16;
constexpr std::uint64_t kMinOps = 20;

// One schema's trip through the pipeline. The parsed schema is heap-held
// because the expansion and the witness point into it.
struct Checked {
  std::unique_ptr<crsat::NamedSchema> parsed;
  std::string error;
  std::vector<bool> verdicts;
  std::optional<crsat::CertifiedWitness> witness;
  std::size_t core_size = 0;
  std::uint64_t compounds = 0;
  double ms = 0;
};

Checked CheckOne(Probe& probe, const SchemaInput& input) {
  Checked out;
  const Clock::time_point start = Clock::now();
  crsat::Result<crsat::NamedSchema> parsed =
      probe.Call(Layer::kParse, [&] { return crsat::ParseSchema(input.text); });
  if (!parsed.ok()) {
    out.error = parsed.status().ToString();
    return out;
  }
  out.parsed = std::make_unique<crsat::NamedSchema>(std::move(*parsed));
  const crsat::Schema& schema = out.parsed->schema;

  crsat::Result<std::optional<std::vector<bool>>> fast = probe.Call(
      Layer::kLn, [&] { return crsat::TryLnSatisfiableClasses(schema); });
  if (!fast.ok()) {
    out.error = fast.status().ToString();
    return out;
  }
  std::vector<bool> known_empty;
  std::optional<crsat::Expansion> expansion;
  std::optional<crsat::SatisfiabilityChecker> checker;
  auto support = [&]() -> crsat::Result<std::vector<bool>> {
    known_empty = probe.Call(Layer::kEmpty, [&] {
      return crsat::ComputeProvablyEmpty(schema).class_empty;
    });
    crsat::ExpansionOptions options;
    options.known_empty_classes = &known_empty;
    crsat::Result<crsat::Expansion> built = probe.Call(
        Layer::kExpansion, [&] { return crsat::Expansion::Build(schema, options); });
    if (!built.ok()) {
      return built.status();
    }
    expansion.emplace(std::move(*built));
    out.compounds += expansion->classes().size() +
                     expansion->relationships().size();
    checker.emplace(*expansion);
    checker->SetKnownEmptyClasses(known_empty);
    return probe.Call(Layer::kSupport,
                      [&] { return checker->SatisfiableClasses(); });
  };

  if (fast->has_value()) {
    out.verdicts = std::move(**fast);
  } else {
    crsat::Result<std::vector<bool>> verdicts = support();
    if (!verdicts.ok()) {
      out.error = verdicts.status().ToString();
      return out;
    }
    out.verdicts = std::move(*verdicts);
  }
  const auto first_unsat =
      std::find(out.verdicts.begin(), out.verdicts.end(), false);
  const bool any_sat = std::find(out.verdicts.begin(), out.verdicts.end(),
                                 true) != out.verdicts.end();

  if (any_sat) {
    // The fast path answers verdicts only; a witness needs the expansion.
    if (!checker.has_value()) {
      crsat::Result<std::vector<bool>> verdicts = support();
      if (!verdicts.ok()) {
        out.error = verdicts.status().ToString();
        return out;
      }
      if (*verdicts != out.verdicts) {
        out.error = "fast path and full checker disagree";
        return out;
      }
    }
    crsat::Result<crsat::CertifiedWitness> witness =
        probe.Call(Layer::kWitness, [&] {
          crsat::WitnessSynthesizer synthesizer(*checker);
          crsat::WitnessOptions options;
          options.source_map = &out.parsed->source_map;
          return synthesizer.Synthesize(options);
        });
    if (!witness.ok()) {
      out.error = witness.status().ToString();
      return out;
    }
    out.witness.emplace(std::move(*witness));
  }
  if (first_unsat != out.verdicts.end()) {
    const crsat::ClassId cls(
        static_cast<int>(first_unsat - out.verdicts.begin()));
    crsat::Result<crsat::UnsatCore> core = probe.Call(
        Layer::kUnsatCore, [&] { return crsat::MinimizeUnsatCore(schema, cls); });
    if (!core.ok()) {
      out.error = core.status().ToString();
      return out;
    }
    out.core_size = core->constraints.size();
  }
  out.ms = MsBetween(start, Clock::now());
  return out;
}

// What the first check of a corpus schema produced; later checks of the
// same schema must reproduce it exactly.
struct FirstResult {
  std::vector<bool> verdicts;
  std::uint64_t witness_size = 0;
  std::size_t core_size = 0;
  double ms = 0;
  std::uint64_t checks = 0;
};

struct Pass {
  std::uint64_t ops = 0;
  double busy_s = 0;
  std::vector<double> latencies_ms;
  ProcUsage usage_delta;
  std::uint64_t compounds = 0;
  std::uint64_t expansions = 0;
  std::uint64_t model_size = 0;
  std::uint64_t witnesses = 0;
};

class CheckBatch {
 public:
  CheckBatch(const RunOptions& options, WorkloadResult* result)
      : options_(options), result_(result) {}

  // Everything before the first timed operation: the pool, sized before
  // any parallel step, and the corpus. References are computed later.
  void Setup() {
    crsat::SetGlobalThreadCount(kPoolThreads);
    corpus_ = MakeSchemaCorpus(options_.seed, 0, kCorpusSize, kClasses);
    first_.assign(corpus_.size(), FirstResult());
    result_->setup_s = SecondsSinceLaunch(options_);
    result_->pool_threads = crsat::GlobalThreadCount();
  }

  // Runs timed operations until `deadline` and at least kMinOps, or
  // exactly `max_ops` when nonzero. Batch k of every pass is corpus
  // batch k, so a traced pass replays the untraced one.
  Pass Run(Probe& probe, Clock::time_point deadline, std::uint64_t max_ops) {
    Pass pass;
    const ProcUsage usage_before = ProcUsage::Read();
    for (std::uint64_t op = 0;; ++op) {
      if (max_ops != 0 ? op >= max_ops
                       : (op >= kMinOps && Clock::now() >= deadline)) {
        break;
      }
      SolverCounters work;
      pass.latencies_ms.push_back(RunBatch(probe, op, &work, &pass));
      pass.busy_s += pass.latencies_ms.back() / 1e3;
      ++pass.ops;
      if (!probe.tracing() && op < kWorkOps && first_work_.size() == op) {
        first_work_.push_back(work);
      }
    }
    pass.usage_delta = ProcUsage::Read().Since(usage_before);
    return pass;
  }

  // Independent references for every checked schema, outside timing.
  void Judge() {
    const Clock::time_point start = Clock::now();
    ReferenceTally tally;
    int schemas = 0;
    int with_unsat = 0;
    std::vector<double> first_ms;
    for (std::size_t i = 0; i < corpus_.size(); ++i) {
      const FirstResult& first = first_[i];
      if (first.checks == 0) {
        continue;
      }
      ++schemas;
      first_ms.push_back(first.ms);
      with_unsat += std::find(first.verdicts.begin(), first.verdicts.end(),
                              false) != first.verdicts.end();
      crsat::Result<crsat::NamedSchema> parsed =
          crsat::ParseSchema(corpus_[i].text);
      if (!parsed.ok()) {
        continue;  // Already counted as failed when checked.
      }
      std::vector<bool> open(first.verdicts.size());
      std::transform(first.verdicts.begin(), first.verdicts.end(),
                     open.begin(), [](bool sat) { return !sat; });
      crsat::Result<std::vector<Expect>> reference = ReferenceVerdicts(
          parsed->schema, corpus_[i].forced_unsat, open, &tally);
      std::string problem =
          reference.ok()
              ? JudgeVerdicts(parsed->schema, first.verdicts, *reference)
              : "reference: " + reference.status().ToString();
      if (!problem.empty()) {
        // Every check of this schema repeated the first verdicts.
        for (std::uint64_t k = 0; k < first.checks; ++k) {
          result_->Fail(corpus_[i].name + ": " + problem);
        }
      }
    }
    std::sort(first_ms.rbegin(), first_ms.rend());
    const std::size_t slowest =
        std::max<std::size_t>(1, (first_ms.size() + 99) / 100);
    double total = 0;
    double top = 0;
    for (std::size_t i = 0; i < first_ms.size(); ++i) {
      total += first_ms[i];
      top += i < slowest ? first_ms[i] : 0;
    }
    result_->unsettled = static_cast<std::uint64_t>(tally.unknown);
    result_->unsettled_cyclic = static_cast<std::uint64_t>(tally.cyclic);
    std::ostringstream note;
    note << "corpus: " << schemas << " distinct schemas checked, "
         << kClasses << " random classes each; shares: isa_free 0.25, "
         << "figure1 0.25 (by construction), with an UNSAT class "
         << static_cast<double>(with_unsat) / std::max(1, schemas)
         << ", time of slowest 1% (" << slowest << " schemas) "
         << (total > 0 ? top / total : 0) << "; " << tally.Summary()
         << "; reference checks took " << MsBetween(start, Clock::now()) / 1e3
         << " s, untimed";
    result_->notes.push_back(note.str());
  }

  // The repeatability unit: solver totals of the first kWorkOps batches,
  // which run.py compares across runs at the seed.
  void ReportWork() {
    SolverCounters total;
    for (const SolverCounters& work : first_work_) {
      total += work;
    }
    result_->work_unit = "first " + std::to_string(first_work_.size()) +
                         " batches";
    result_->work = {{"lp.solves", total.solves},
                     {"lp.pivots", total.pivots},
                     {"reasoner.solves_per_batch", 0}};
  }

 private:
  // Checks corpus batch `op` (wrapping around the corpus) as one timed
  // operation; returns its latency in ms.
  double RunBatch(Probe& probe, std::uint64_t op, SolverCounters* work,
                  Pass* pass) {
    const int first =
        static_cast<int>((op * kBatch) % static_cast<std::uint64_t>(kCorpusSize));
    std::vector<Checked> checked;
    checked.reserve(kBatch);
    const SolverCounters before = SolverCounters::Read();
    const Clock::time_point start = Clock::now();
    {
      Probe::Scope scope(&probe, Layer::kOp);
      for (int j = 0; j < kBatch; ++j) {
        checked.push_back(
            CheckOne(probe, corpus_[static_cast<std::size_t>(first + j)]));
      }
    }
    const double ms = MsBetween(start, Clock::now());
    *work = SolverCounters::Read() - before;
    for (int j = 0; j < kBatch; ++j) {
      Verify(first + j, checked[static_cast<std::size_t>(j)], pass);
    }
    return ms;
  }

  void Verify(int index, const Checked& checked, Pass* pass) {
    ++result_->attempted;
    const SchemaInput& input = corpus_[static_cast<std::size_t>(index)];
    if (!checked.error.empty()) {
      result_->Fail(input.name + ": " + checked.error);
      return;
    }
    const crsat::Schema& schema = checked.parsed->schema;
    std::uint64_t witness_size = 0;
    if (checked.witness.has_value()) {
      const std::string problem = JudgeWitness(
          schema, checked.witness->interpretation(), checked.verdicts);
      if (!problem.empty()) {
        result_->Fail(input.name + ": " + problem);
        return;
      }
      witness_size =
          checked.witness->stats().individuals + checked.witness->stats().tuples;
      pass->model_size += witness_size;
      ++pass->witnesses;
    }
    if (checked.compounds > 0) {
      pass->compounds += checked.compounds;
      ++pass->expansions;
    }
    FirstResult& first = first_[static_cast<std::size_t>(index)];
    if (first.checks == 0) {
      first.verdicts = checked.verdicts;
      first.witness_size = witness_size;
      first.core_size = checked.core_size;
      first.ms = checked.ms;
    } else if (first.verdicts != checked.verdicts ||
               first.witness_size != witness_size ||
               first.core_size != checked.core_size) {
      result_->Fail(input.name + ": result differs from its first check");
      return;
    }
    ++first.checks;
  }

  const RunOptions& options_;
  WorkloadResult* result_;
  std::vector<SchemaInput> corpus_;
  std::vector<FirstResult> first_;
  std::vector<SolverCounters> first_work_;
};

}  // namespace

WorkloadResult RunCheckBatch(const RunOptions& options) {
  WorkloadResult result;
  CheckBatch workload(options, &result);
  workload.Setup();
  if (options.setup_only) {
    return result;
  }

  const Clock::time_point epoch = Clock::now();
  const auto budget = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(options.trace ? options.seconds / 2
                                                  : options.seconds));
  Probe untraced(false, 0, epoch);
  const Pass timed = workload.Run(untraced, Clock::now() + budget, 0);
  result.latencies_ms = timed.latencies_ms;
  result.busy_s = timed.busy_s;
  result.peak_rss_mb = ProcUsage::Read().max_rss_mb;

  if (options.trace) {
    Probe traced(true, 0, epoch);
    const Pass pass = workload.Run(traced, Clock::time_point(), timed.ops);
    std::vector<std::pair<std::string, double>> extra =
        ProcMetrics(timed.usage_delta, timed.ops);
    extra.insert(
        extra.end(),
        {{"expansion.compounds",
          Ratio(static_cast<double>(pass.compounds),
                static_cast<double>(pass.expansions))},
         {"witness.model_size", Ratio(static_cast<double>(pass.model_size),
                                      static_cast<double>(pass.witnesses))},
         {"trace.overhead_share", pass.busy_s / timed.busy_s - 1},
         {"pool.threads", result.pool_threads}});
    const std::vector<LayerTotals> totals = Summarize({&traced});
    FillPerLayer(totals, totals[static_cast<int>(Layer::kOp)].work, pass.ops,
                 extra, &result);
    if (!WriteChromeTrace({&traced}, options.trace_path)) {
      result.Fail("cannot write trace " + options.trace_path);
    }
  }
  workload.ReportWork();
  workload.Judge();
  return result;
}

}  // namespace perfbench
