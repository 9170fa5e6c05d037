// serve_mixed: an in-process crsatd on loopback (pool of two threads)
// driven by two request-reply connections, a closed loop. Each
// connection owns a session and works through its pool of schemas like an
// editor re-sending after each edit: one timed operation parses the next
// schema into the session, then runs check, lint, implications and
// witness against it twice.

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include "src/base/thread_pool.h"
#include "src/corpus.h"
#include "src/cr/schema_text.h"
#include "src/reference.h"
#include "src/server/client.h"
#include "src/server/handlers.h"
#include "src/server/server.h"
#include "src/workloads.h"

namespace perfbench {
namespace {

using crsat::server::Client;
using crsat::server::Reply;
using crsat::server::RequestType;

constexpr int kPoolThreads = 2;
constexpr int kClients = 2;
constexpr int kSchemasPerClient = 1200;
constexpr int kClasses = 3;
constexpr int kQueryRepeats = 2;  // Query rounds per parsed schema.
constexpr std::uint64_t kMinCycles = 20;
constexpr std::uint64_t kWorkCycles = 8;

struct Request {
  RequestType type;
  Layer layer;
  std::string payload;
};

// The requests of editor cycle `cycle` on a connection whose pool starts
// at corpus index `base`: parse the next schema, then query it twice.
std::vector<Request> CycleRequests(const std::vector<SchemaInput>& corpus,
                                   int base, std::uint64_t cycle,
                                   int* schema_index) {
  *schema_index = base + static_cast<int>(cycle % kSchemasPerClient);
  const SchemaInput& input = corpus[static_cast<std::size_t>(*schema_index)];
  std::vector<Request> requests = {{RequestType::kParse, Layer::kServerParse,
                                    input.name + "\n" + input.text}};
  for (int repeat = 0; repeat < kQueryRepeats; ++repeat) {
    requests.push_back({RequestType::kCheck, Layer::kServerCheck, ""});
    requests.push_back({RequestType::kLint, Layer::kServerLint, ""});
    requests.push_back({RequestType::kImplications,
                        Layer::kServerImplications,
                        "isa " + input.isa_sub + " " + input.isa_super});
    requests.push_back({RequestType::kWitness, Layer::kServerWitness, "text"});
  }
  return requests;
}

std::string Key(int schema_index, RequestType type) {
  return std::to_string(schema_index) + "/" +
         std::to_string(static_cast<int>(type));
}

// One connection's share of a pass.
struct ClientPass {
  std::uint64_t cycles = 0;
  std::uint64_t requests = 0;
  std::vector<double> latencies_ms;
  // First reply seen per (schema, request type), and how many requests
  // each key covered.
  std::map<std::string, Reply> first;
  std::map<std::string, std::uint64_t> counts;
  std::vector<std::string> failures;
  std::uint64_t failed = 0;
};

void DriveClient(Client& client, Probe& probe,
                 const std::vector<SchemaInput>& corpus, int base,
                 Clock::time_point deadline, std::uint64_t max_cycles,
                 ClientPass* pass) {
  auto fail = [pass](const std::string& what) {
    ++pass->failed;
    if (pass->failures.size() < 5) {
      pass->failures.push_back(what);
    }
  };
  for (std::uint64_t cycle = 0;; ++cycle) {
    if (max_cycles != 0 ? cycle >= max_cycles
                        : (cycle >= kMinCycles && Clock::now() >= deadline)) {
      break;
    }
    int schema_index = 0;
    const std::vector<Request> requests =
        CycleRequests(corpus, base, cycle, &schema_index);
    std::vector<crsat::Result<Reply>> replies;
    replies.reserve(requests.size());
    const Clock::time_point start = Clock::now();
    {
      Probe::Scope scope(&probe, Layer::kOp);
      for (const Request& request : requests) {
        replies.push_back(probe.Call(request.layer, [&] {
          return client.Call(request.type, request.payload);
        }));
      }
    }
    pass->latencies_ms.push_back(MsBetween(start, Clock::now()));
    ++pass->cycles;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      ++pass->requests;
      if (!replies[i].ok()) {
        fail("transport: " + replies[i].status().ToString());
        continue;
      }
      const std::string key = Key(schema_index, requests[i].type);
      ++pass->counts[key];
      auto [slot, inserted] = pass->first.emplace(key, *replies[i]);
      if (!inserted && (slot->second.status != replies[i]->status ||
                        slot->second.payload != replies[i]->payload)) {
        fail(corpus[static_cast<std::size_t>(schema_index)].name +
             ": reply differs from its first occurrence");
      }
    }
  }
}

std::string WitnessBody(const std::string& payload) {
  const std::size_t at = payload.find("witness (certified):");
  if (at == std::string::npos) {
    return "";
  }
  const std::size_t body = payload.find('\n', at);
  return body == std::string::npos ? "" : payload.substr(body + 1);
}

std::uint64_t JsonField(const std::string& json, const std::string& name) {
  const std::size_t at = json.find("\"" + name + "\": ");
  return at == std::string::npos
             ? 0
             : std::stoull(json.substr(at + name.size() + 4));
}

class ServeMixed {
 public:
  ServeMixed(const RunOptions& options, WorkloadResult* result)
      : options_(options), result_(result) {}

  ~ServeMixed() { Stop(); }

  // Set-up: inputs, daemon, connections, and each session's first parse.
  bool Setup() {
    corpus_ = MakeSchemaCorpus(options_.seed, 1, kClients * kSchemasPerClient,
                               kClasses);
    crsat::server::ServerOptions server_options;
    server_options.port = 0;
    server_options.threads = kPoolThreads;
    server_ = std::make_unique<crsat::server::Server>(server_options);
    if (!server_->Start().ok()) {
      return false;
    }
    for (int c = 0; c < kClients; ++c) {
      clients_.push_back(std::make_unique<Client>());
      const SchemaInput& input =
          corpus_[static_cast<std::size_t>(c * kSchemasPerClient)];
      crsat::Result<Reply> parsed =
          clients_.back()->ConnectTcp(server_->port()).ok()
              ? clients_.back()->Parse(input.name, input.text)
              : crsat::Result<Reply>(crsat::UnavailableError("connect"));
      if (!parsed.ok()) {
        return false;
      }
    }
    result_->setup_s = SecondsSinceLaunch(options_);
    result_->pool_threads = crsat::GlobalThreadCount();
    return true;
  }

  // Runs both connections concurrently; returns the wall time.
  double Run(std::vector<Probe>& probes, Clock::time_point deadline,
             const std::vector<std::uint64_t>& max_cycles,
             std::vector<ClientPass>* passes) {
    passes->assign(kClients, ClientPass());
    const Clock::time_point start = Clock::now();
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        DriveClient(*clients_[static_cast<std::size_t>(c)],
                    probes[static_cast<std::size_t>(c)], corpus_,
                    c * kSchemasPerClient, deadline,
                    max_cycles[static_cast<std::size_t>(c)],
                    &(*passes)[static_cast<std::size_t>(c)]);
      });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
    return MsBetween(start, Clock::now()) / 1e3;
  }

  // Folds a pass into the result: counts, first replies, failures.
  void Absorb(const std::vector<ClientPass>& passes) {
    for (const ClientPass& pass : passes) {
      result_->attempted += pass.requests;
      for (const std::string& failure : pass.failures) {
        result_->Fail(failure);
      }
      result_->failed += pass.failed - pass.failures.size();
      for (const auto& [key, reply] : pass.first) {
        first_.emplace(key, reply);
        counts_[key] += pass.counts.at(key);
      }
    }
  }

  // After timing: a single-connection reference pass over every
  // (schema, request) seen, byte-compared, plus independent verdict and
  // witness checks of the reference replies.
  void Judge() {
    const Clock::time_point start = Clock::now();
    Client client;
    if (!client.ConnectTcp(server_->port()).ok()) {
      result_->Fail("reference connection failed");
      return;
    }
    ReferenceTally tally;
    int parsed_for = -1;
    std::unique_ptr<crsat::NamedSchema> schema;
    std::vector<Expect> reference;
    for (const auto& [key, seen] : first_) {
      const int index = std::stoi(key.substr(0, key.find('/')));
      const RequestType type =
          static_cast<RequestType>(std::stoi(key.substr(key.find('/') + 1)));
      const SchemaInput& input = corpus_[static_cast<std::size_t>(index)];
      auto fail_all = [&](const std::string& what) {
        for (std::uint64_t k = 0; k < counts_[key]; ++k) {
          result_->Fail(input.name + ": " + what);
        }
      };
      if (parsed_for != index) {
        parsed_for = index;
        crsat::Result<Reply> parsed = client.Parse(input.name, input.text);
        crsat::Result<crsat::NamedSchema> local =
            crsat::ParseSchema(input.text);
        if (!parsed.ok() || !local.ok()) {
          fail_all("reference parse failed");
          continue;
        }
        schema = std::make_unique<crsat::NamedSchema>(std::move(*local));
        reference.clear();
      }
      int unused = 0;
      std::string payload;
      for (const Request& request : CycleRequests(
               corpus_, index - index % kSchemasPerClient,
               static_cast<std::uint64_t>(index % kSchemasPerClient),
               &unused)) {
        if (request.type == type) {
          payload = request.payload;
        }
      }
      crsat::Result<Reply> reply =
          type == RequestType::kParse ? client.Parse(input.name, input.text)
                                      : client.Call(type, payload);
      if (!reply.ok() || reply->status != seen.status ||
          reply->payload != seen.payload) {
        fail_all("reply differs from the single-connection reference");
        continue;
      }
      std::string problem;
      if (type == RequestType::kCheck || type == RequestType::kWitness) {
        crsat::Result<std::vector<bool>> verdicts =
            ParseCheckReply(schema->schema, reply->payload);
        if (verdicts.ok() && reference.empty()) {
          std::vector<bool> open(verdicts->size());
          std::transform(verdicts->begin(), verdicts->end(), open.begin(),
                         [](bool sat) { return !sat; });
          crsat::Result<std::vector<Expect>> settled = ReferenceVerdicts(
              schema->schema, input.forced_unsat, open, &tally);
          if (settled.ok()) {
            reference = std::move(*settled);
          } else {
            problem = "reference: " + settled.status().ToString();
          }
        }
        if (problem.empty()) {
          problem = !verdicts.ok() ? verdicts.status().ToString()
                                   : JudgeVerdicts(schema->schema, *verdicts,
                                                   reference);
        }
        const bool any_sat =
            verdicts.ok() &&
            std::find(verdicts->begin(), verdicts->end(), true) !=
                verdicts->end();
        if (problem.empty() && type == RequestType::kWitness && any_sat) {
          crsat::Result<crsat::Interpretation> witness =
              ParseWitnessText(schema->schema, WitnessBody(reply->payload));
          problem = !witness.ok() ? witness.status().ToString()
                                  : JudgeWitness(schema->schema, *witness,
                                                 *verdicts);
        }
      }
      if (!problem.empty()) {
        fail_all(problem);
      }
    }
    crsat::Result<Reply> stats = client.Call(RequestType::kStats, "");
    if (stats.ok()) {
      refusals_ = JsonField(stats->payload, "shed") +
                  JsonField(stats->payload, "refused_draining");
    } else {
      result_->Fail("stats request failed");
    }
    result_->unsettled = static_cast<std::uint64_t>(tally.unknown);
    result_->unsettled_cyclic = static_cast<std::uint64_t>(tally.cyclic);
    std::ostringstream note;
    note << "sessions: " << kClients << " connections x " << kSchemasPerClient
         << " schemas, parse share "
         << 1.0 / (4.0 * kQueryRepeats + 1.0)
         << " of requests; " << tally.Summary()
         << "; scheduler refusals " << refusals_
         << "; reference checks took "
         << MsBetween(start, Clock::now()) / 1e3 << " s, untimed";
    result_->notes.push_back(note.str());
  }

  // In-process cost of the same requests (HandleRequest on a local
  // session, no socket, no scheduler) for `cycles` cycles of connection 0.
  // Returns {mean ms per request, LP time per pivot in us}.
  std::pair<double, double> InProcessCost(std::uint64_t cycles) {
    crsat::server::Session session(1);
    double total_ms = 0;
    double lp_ms = 0;
    std::uint64_t requests = 0;
    const SolverCounters before = SolverCounters::Read();
    for (std::uint64_t cycle = 0; cycle < cycles; ++cycle) {
      int schema_index = 0;
      for (const Request& request :
           CycleRequests(corpus_, 0, cycle, &schema_index)) {
        const Clock::time_point start = Clock::now();
        crsat::server::HandlerResult handled = crsat::server::HandleRequest(
            session, crsat::server::MakeRequest(request.type, request.payload),
            crsat::ResourceLimits());
        const double ms = MsBetween(start, Clock::now());
        if (handled.status == crsat::server::ResponseStatus::kBadRequest) {
          result_->Fail("in-process request refused: " + handled.payload);
        }
        total_ms += ms;
        lp_ms += request.type == RequestType::kParse ||
                         request.type == RequestType::kLint
                     ? 0
                     : ms;
        ++requests;
      }
    }
    const std::uint64_t pivots = (SolverCounters::Read() - before).pivots;
    return {total_ms / static_cast<double>(std::max<std::uint64_t>(1, requests)),
            pivots == 0 ? 0 : 1000.0 * lp_ms / static_cast<double>(pivots)};
  }

  std::uint64_t refusals() const { return refusals_; }

  // The repeatability unit: solver work of the first kWorkCycles cycles
  // of connection 0, replayed on a fresh connection. The daemon runs one
  // request at a time here, so the work must repeat exactly.
  void ReportWork() {
    Client client;
    const SolverCounters before = SolverCounters::Read();
    bool ok = client.ConnectTcp(server_->port()).ok();
    for (std::uint64_t cycle = 0; ok && cycle < kWorkCycles; ++cycle) {
      int unused = 0;
      for (const Request& request : CycleRequests(corpus_, 0, cycle, &unused)) {
        ok = ok && client.Call(request.type, request.payload).ok();
      }
    }
    const SolverCounters work = SolverCounters::Read() - before;
    if (!ok) {
      result_->Fail("work replay failed");
    }
    result_->work_unit = "first " + std::to_string(kWorkCycles) +
                         " cycles of connection 0, one connection";
    result_->work = {{"lp.solves", work.solves},
                     {"lp.pivots", work.pivots},
                     {"reasoner.solves_per_batch", 0}};
  }

 private:
  void Stop() {
    clients_.clear();
    if (server_ != nullptr) {
      server_->BeginDrain();
      server_->Wait();
      server_.reset();
    }
  }

  const RunOptions& options_;
  WorkloadResult* result_;
  std::vector<SchemaInput> corpus_;
  std::unique_ptr<crsat::server::Server> server_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::map<std::string, Reply> first_;
  std::map<std::string, std::uint64_t> counts_;
  std::uint64_t refusals_ = 0;
};

std::vector<double> Latencies(const std::vector<ClientPass>& passes) {
  std::vector<double> all;
  for (const ClientPass& pass : passes) {
    all.insert(all.end(), pass.latencies_ms.begin(), pass.latencies_ms.end());
  }
  return all;
}

}  // namespace

WorkloadResult RunServeMixed(const RunOptions& options) {
  WorkloadResult result;
  ServeMixed workload(options, &result);
  if (!workload.Setup()) {
    result.Fail("daemon set-up failed");
    return result;
  }
  if (options.setup_only) {
    return result;
  }

  const Clock::time_point epoch = Clock::now();
  const auto budget = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(options.trace ? options.seconds / 2
                                                  : options.seconds));
  std::vector<Probe> untraced;
  for (int c = 0; c < kClients; ++c) {
    untraced.emplace_back(false, c, epoch);
  }
  std::vector<ClientPass> timed;
  const ProcUsage usage_before = ProcUsage::Read();
  const double wall_s = workload.Run(untraced, Clock::now() + budget,
                                     std::vector<std::uint64_t>(kClients, 0),
                                     &timed);
  const ProcUsage usage_after = ProcUsage::Read();
  result.latencies_ms = Latencies(timed);
  result.busy_s = wall_s;
  result.peak_rss_mb = usage_after.max_rss_mb;
  workload.Absorb(timed);

  if (options.trace) {
    std::vector<Probe> traced;
    std::vector<std::uint64_t> cycles;
    for (int c = 0; c < kClients; ++c) {
      traced.emplace_back(true, c, epoch);
      cycles.push_back(timed[static_cast<std::size_t>(c)].cycles);
    }
    std::vector<ClientPass> passes;
    const SolverCounters before = SolverCounters::Read();
    const double traced_s =
        workload.Run(traced, Clock::time_point(), cycles, &passes);
    const SolverCounters work = SolverCounters::Read() - before;
    workload.Absorb(passes);
    std::uint64_t traced_cycles = 0;
    std::uint64_t traced_requests = 0;
    double roundtrip_ms = 0;
    for (const ClientPass& pass : passes) {
      traced_cycles += pass.cycles;
      traced_requests += pass.requests;
    }
    std::vector<const Probe*> probes;
    for (const Probe& probe : traced) {
      probes.push_back(&probe);
    }
    const std::vector<LayerTotals> totals = Summarize(probes);
    for (int layer = static_cast<int>(Layer::kServerParse);
         layer <= static_cast<int>(Layer::kServerWitness); ++layer) {
      roundtrip_ms += totals[static_cast<std::size_t>(layer)].total_ms;
    }
    const auto [inprocess_ms, us_per_pivot] =
        workload.InProcessCost(timed.front().cycles);
    workload.Judge();
    std::vector<std::pair<std::string, double>> extra = ProcMetrics(
        usage_after.Since(usage_before), result.latencies_ms.size());
    extra.insert(
        extra.end(),
        {{"lp.us_per_pivot", us_per_pivot},
         {"server.transport_ms",
          Ratio(roundtrip_ms, static_cast<double>(traced_requests)) -
              inprocess_ms},
         {"server.refusals", static_cast<double>(workload.refusals())},
         {"trace.overhead_share", traced_s / wall_s - 1},
         {"pool.threads", result.pool_threads}});
    // The op spans of two concurrent clients overlap, so the pass's solver
    // work comes from the global counters instead.
    FillPerLayer(totals, work, traced_cycles, extra, &result);
    if (!WriteChromeTrace(probes, options.trace_path)) {
      result.Fail("cannot write trace " + options.trace_path);
    }
  }

  if (!options.trace) {
    workload.Judge();
  }
  workload.ReportWork();
  return result;
}

}  // namespace perfbench
