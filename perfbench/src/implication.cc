// implication: repeated CardinalityImplicationEngine::Create + CheckAll
// over min/max queries for (C0, R, U) on seeded ISA-chain schemas. Nearly
// all of the time is int64-tier simplex pivots. The pool has two threads,
// so CheckAll fans its probes out and the work inflation that comes with
// private warm-start caches is measured (reasoner.solves_per_batch).

#include <map>
#include <sstream>

#include "src/base/thread_pool.h"
#include "src/corpus.h"
#include "src/cr/schema_text.h"
#include "src/reasoner/implication_engine.h"
#include "src/workloads.h"

namespace perfbench {
namespace {

constexpr int kPoolThreads = 2;
constexpr int kDepth = 7;
constexpr int kChains = 1024;
constexpr std::uint64_t kMinOps = 20;
constexpr std::uint64_t kMaxBound = 8;
constexpr std::size_t kWorkChains = 16;

struct Pass {
  std::uint64_t ops = 0;
  double busy_s = 0;
  std::vector<double> latencies_ms;
  ProcUsage usage_delta;
};

class Implication {
 public:
  Implication(const RunOptions& options, WorkloadResult* result)
      : options_(options), result_(result) {
    for (std::uint64_t bound = 0; bound <= kMaxBound; ++bound) {
      queries_.push_back({crsat::ImplicationQuery::Kind::kMin, bound});
      queries_.push_back({crsat::ImplicationQuery::Kind::kMax, bound});
    }
  }

  // Everything before the first timed operation: the pool, sized before
  // any parallel step, the chain texts, and the program parsing them, as
  // a user loads the schemas to be queried.
  void Setup() {
    crsat::SetGlobalThreadCount(kPoolThreads);
    chains_ = MakeChainCorpus(options_.seed, kChains, kDepth);
    for (const ChainInput& chain : chains_) {
      crsat::Result<crsat::NamedSchema> parsed = crsat::ParseSchema(chain.text);
      if (!parsed.ok()) {
        result_->Fail("chain parse: " + parsed.status().ToString());
        return;
      }
      schemas_.push_back(std::move(parsed->schema));
    }
    solves_.assign(chains_.size(), {});
    result_->setup_s = SecondsSinceLaunch(options_);
    result_->pool_threads = crsat::GlobalThreadCount();
  }

  Pass Run(Probe& probe, Clock::time_point deadline, std::uint64_t max_ops) {
    Pass pass;
    const ProcUsage usage_before = ProcUsage::Read();
    for (std::uint64_t op = 0;; ++op) {
      if (max_ops != 0 ? op >= max_ops
                       : (op >= kMinOps && Clock::now() >= deadline)) {
        break;
      }
      const std::size_t index = static_cast<std::size_t>(op % kChains);
      SolverCounters batch_work;
      std::string error;
      std::vector<bool> verdicts;
      const Clock::time_point start = Clock::now();
      {
        Probe::Scope scope(&probe, Layer::kOp);
        error = Batch(probe, schemas_[index], &verdicts, &batch_work);
      }
      const double ms = MsBetween(start, Clock::now());
      pass.latencies_ms.push_back(ms);
      pass.busy_s += ms / 1e3;
      ++pass.ops;
      if (!probe.tracing()) {
        solves_[index].push_back(batch_work);
      }
      Verify(index, error, verdicts);
    }
    pass.usage_delta = ProcUsage::Read().Since(usage_before);
    return pass;
  }

  // Counter totals for the repeatability check: the first batch of each
  // of the first kWorkChains chains at the workload's pool size, then the
  // first chain three times at one thread, where the work must repeat
  // exactly.
  void ReportWork() {
    SolverCounters first;
    std::map<std::uint64_t, int> histogram;
    bool varies = false;
    for (std::size_t chain = 0; chain < solves_.size(); ++chain) {
      const std::vector<SolverCounters>& runs = solves_[chain];
      if (runs.empty()) {
        continue;
      }
      if (chain < kWorkChains) {
        first += runs.front();
      }
      for (const SolverCounters& run : runs) {
        ++histogram[run.solves];
        varies = varies || run.solves != runs.front().solves ||
                 run.pivots != runs.front().pivots;
      }
    }
    std::ostringstream note;
    note << "solves per CheckAll batch at " << result_->pool_threads
         << " threads:";
    for (const auto& [solves, count] : histogram) {
      note << " " << solves << " solves x" << count;
    }
    note << (varies ? " (WORK VARIES across repeats of one chain)"
                    : " (repeats exactly)");
    result_->notes.push_back(note.str());

    crsat::SetGlobalThreadCount(1);
    Probe untraced(false, 0, Clock::now());
    std::vector<SolverCounters> single;
    for (int i = 0; i < 3; ++i) {
      SolverCounters work;
      std::vector<bool> verdicts;
      Verify(0, Batch(untraced, schemas_[0], &verdicts, &work), verdicts);
      single.push_back(work);
    }
    bool single_repeats = true;
    for (const SolverCounters& work : single) {
      single_repeats = single_repeats && work.solves == single[0].solves &&
                       work.pivots == single[0].pivots;
    }
    result_->notes.push_back(
        "one-thread control on chain 0: " + std::to_string(single[0].solves) +
        " solves, " + std::to_string(single[0].pivots) + " pivots per batch" +
        (single_repeats ? ", repeats exactly"
                        : " -- WORK CHANGED between identical batches"));
    result_->work_unit = "first CheckAll of chains 0-" +
                         std::to_string(kWorkChains - 1) + " at " +
                         std::to_string(result_->pool_threads) +
                         " threads; chain 0 at 1 thread";
    result_->work = {{"lp.solves", first.solves},
                     {"lp.pivots", first.pivots},
                     {"reasoner.solves_per_batch",
                      first.solves / kWorkChains},
                     {"one_thread.lp.solves", single[0].solves},
                     {"one_thread.lp.pivots", single[0].pivots}};
  }

 private:
  // One timed operation: build the engine, answer every query.
  std::string Batch(Probe& probe, const crsat::Schema& schema,
                    std::vector<bool>* verdicts, SolverCounters* work) {
    const SolverCounters before = SolverCounters::Read();
    crsat::Result<crsat::CardinalityImplicationEngine> engine =
        probe.Call(Layer::kEngine, [&] {
          return crsat::CardinalityImplicationEngine::Create(
              schema, *schema.FindClass("C0"), *schema.FindRelationship("R"),
              *schema.FindRole("U"));
        });
    if (!engine.ok()) {
      return engine.status().ToString();
    }
    crsat::Result<std::vector<bool>> answers = probe.Call(
        Layer::kCheckAll, [&] { return engine->CheckAll(queries_); });
    *work = SolverCounters::Read() - before;
    if (!answers.ok()) {
      return answers.status().ToString();
    }
    *verdicts = std::move(*answers);
    return "";
  }

  // The chain's bounds are drawn so that exactly minc <= implied_min and
  // maxc >= implied_max are implied (see MakeChainCorpus).
  void Verify(std::size_t index, const std::string& error,
              const std::vector<bool>& verdicts) {
    ++result_->attempted;
    const std::string name = "chain " + std::to_string(index);
    if (!error.empty()) {
      result_->Fail(name + ": " + error);
      return;
    }
    const ChainInput& chain = chains_[index];
    for (std::size_t q = 0; q < queries_.size(); ++q) {
      const crsat::ImplicationQuery& query = queries_[q];
      const bool expected =
          query.kind == crsat::ImplicationQuery::Kind::kMin
              ? query.bound <= chain.implied_min
              : query.bound >= chain.implied_max;
      if (verdicts[q] != expected) {
        result_->Fail(name + ": query " + std::to_string(q) +
                      " answered against the construction");
        return;
      }
    }
  }

  const RunOptions& options_;
  WorkloadResult* result_;
  std::vector<ChainInput> chains_;
  std::vector<crsat::Schema> schemas_;  // chains_, parsed.
  std::vector<crsat::ImplicationQuery> queries_;
  // Untraced per-batch solver work, by chain.
  std::vector<std::vector<SolverCounters>> solves_;
};

}  // namespace

WorkloadResult RunImplication(const RunOptions& options) {
  WorkloadResult result;
  Implication workload(options, &result);
  workload.Setup();
  if (options.setup_only || result.failed > 0) {
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
    extra.insert(extra.end(),
                 {{"trace.overhead_share", pass.busy_s / timed.busy_s - 1},
                  {"pool.threads", result.pool_threads}});
    const std::vector<LayerTotals> totals = Summarize({&traced});
    FillPerLayer(totals, totals[static_cast<int>(Layer::kOp)].work, pass.ops,
                 extra, &result);
    if (!WriteChromeTrace({&traced}, options.trace_path)) {
      result.Fail("cannot write trace " + options.trace_path);
    }
  }
  workload.ReportWork();
  return result;
}

}  // namespace perfbench
