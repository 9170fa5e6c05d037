// bench_server — the crsatd service-layer trajectory harness. Like
// bench_parallel (and unlike the google-benchmark micro-benches), this
// is a standalone binary: it starts an in-process daemon on a loopback
// port, drives a mixed request workload (parse / check / lint /
// implications / witness) from several client-concurrency levels, and
// reports sustained request throughput plus p50/p99 latency. Every client
// cycles through all three example schemas (parse, then the request mix,
// then the next schema), so each row mixes the same schemas. Every
// response is cross-checked against a reference computed up front by a
// fresh one-shot `commands::` call per request, never by a session, so a
// stale or order-dependent session analysis cannot match itself. A
// mismatch or protocol error exits non-zero, so CI can gate on "the
// service never changes an answer under concurrency".
// With `--json <path>` it writes the BENCH_server.json shape committed
// at the repo root (gated by tools/bench_check.py --mode server).
//
// Usage:
//   bench_server [--json <path>] [--requests N] [--threads N]
//
// `--requests` is the per-client request count, parses included
// (default 120); CI's bench-smoke job passes a small value.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/crsat.h"
#include "src/server/client.h"
#include "src/server/handlers.h"
#include "src/server/server.h"

#ifndef CRSAT_SOURCE_DIR
#define CRSAT_SOURCE_DIR "."
#endif

namespace {

using Clock = std::chrono::steady_clock;
using crsat::server::Client;
using crsat::server::Reply;
using crsat::server::RequestType;
using crsat::server::ResponseStatus;

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct SchemaFile {
  std::string name;
  std::string path;
  std::string text;
  std::string isa_query;  // The mix's `implications` payload.
};

std::vector<SchemaFile> LoadSchemas() {
  const std::string base =
      std::string(CRSAT_SOURCE_DIR) + "/examples/schemas/";
  std::vector<SchemaFile> schemas;
  for (const auto& [name, isa_query] :
       {std::pair<const char*, const char*>{"university.cr",
                                            "isa PhDStudent Person"},
        {"figure1.cr", "isa D C"},
        {"meeting.cr", "isa Speaker Discussant"}}) {
    SchemaFile file;
    file.name = name;
    file.path = base + name;
    file.isa_query = isa_query;
    std::ifstream in(file.path, std::ios::binary);
    if (!in) {
      std::cerr << "cannot open " << file.path << "\n";
      std::exit(2);
    }
    std::ostringstream text;
    text << in.rdbuf();
    file.text = text.str();
    schemas.push_back(std::move(file));
  }
  return schemas;
}

// The request mix sent after each parse. `witness` is the expensive
// tail; the light probes around it are what the fair queueing keeps
// responsive. A null payload stands for the schema's `isa_query`.
struct Step {
  RequestType type;
  const char* payload;
};
constexpr Step kMix[] = {
    {RequestType::kParse, ""},        {RequestType::kCheck, ""},
    {RequestType::kLint, ""},         {RequestType::kImplications, nullptr},
    {RequestType::kCheck, ""},        {RequestType::kLint, "json"},
    {RequestType::kWitness, "text"},
};
constexpr int kMixSize = static_cast<int>(sizeof(kMix) / sizeof(kMix[0]));

std::string Payload(const SchemaFile& schema, int step) {
  if (kMix[step].type == RequestType::kParse) {
    return schema.path + "\n" + schema.text;
  }
  return kMix[step].payload != nullptr ? kMix[step].payload
                                       : schema.isa_query;
}

std::string MixKey(const std::string& schema, int step) {
  return schema + "#" + std::to_string(step);
}

// The reply a one-shot invocation gives for `step` on `schema`: the
// `commands::` verb on a fresh analysis, mapped as crsatd maps it. A
// parse touches no analysis, so it runs on a fresh session.
Reply OneShotReply(const SchemaFile& schema, const crsat::NamedSchema& parsed,
                   int step) {
  const std::string payload = Payload(schema, step);
  crsat::commands::Analysis analysis(parsed.schema);
  crsat::server::HandlerResult result;
  switch (kMix[step].type) {
    case RequestType::kCheck:
    case RequestType::kWitness:
      result = crsat::server::FromCommand(crsat::commands::Check(
          parsed, analysis, /*json=*/false, payload, /*guard=*/nullptr));
      break;
    case RequestType::kLint:
      result = crsat::server::FromCommand(crsat::commands::Lint(
          schema.path, schema.text, payload == "json", /*guard=*/nullptr));
      break;
    case RequestType::kImplications:
      result = crsat::server::FromCommand(
          crsat::commands::Implies(analysis, payload, /*guard=*/nullptr));
      break;
    default: {
      crsat::server::Session session(0);
      result = crsat::server::HandleRequest(
          session, crsat::server::MakeRequest(kMix[step].type, payload),
          crsat::ResourceLimits());
      break;
    }
  }
  return Reply{result.status, std::move(result.payload)};
}

struct RunResult {
  int clients = 0;
  std::uint64_t requests = 0;
  double wall_ms = 0;
  double req_per_s = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t mismatches = 0;
};

// One client connection working through `requests` requests: the mix on
// each schema in turn, starting at `first_schema`. Records per-request
// latency and compares every payload against the reference map.
void DriveClient(int port, const std::vector<SchemaFile>& schemas,
                 std::size_t first_schema, int requests,
                 const std::map<std::string, Reply>& reference,
                 std::vector<double>* latencies_out,
                 std::uint64_t* protocol_errors_out,
                 std::uint64_t* mismatches_out) {
  std::vector<double> latencies;
  std::uint64_t protocol_errors = 0;
  std::uint64_t mismatches = 0;
  Client client;
  if (!client.ConnectTcp(port).ok()) {
    *protocol_errors_out = 1;
    return;
  }
  for (int i = 0; i < requests; ++i) {
    const int step = i % kMixSize;
    const SchemaFile& schema =
        schemas[(first_schema + static_cast<std::size_t>(i / kMixSize)) %
                schemas.size()];
    const Clock::time_point start = Clock::now();
    auto reply = client.Call(kMix[step].type, Payload(schema, step));
    const double elapsed = MillisSince(start);
    if (!reply.ok()) {
      ++protocol_errors;
      break;  // The transport is gone; nothing further to measure.
    }
    latencies.push_back(elapsed);
    const auto expected = reference.find(MixKey(schema.name, step));
    if (expected == reference.end() ||
        reply->status != expected->second.status ||
        reply->payload != expected->second.payload) {
      ++mismatches;
    }
  }
  *latencies_out = std::move(latencies);
  *protocol_errors_out = protocol_errors;
  *mismatches_out = mismatches;
}

double Percentile(std::vector<double> values, double fraction) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t index = std::min(
      values.size() - 1,
      static_cast<std::size_t>(fraction * static_cast<double>(values.size())));
  return values[index];
}

RunResult RunAtConcurrency(int port, const std::vector<SchemaFile>& schemas,
                           int clients, int requests,
                           const std::map<std::string, Reply>& reference) {
  std::vector<std::vector<double>> latencies(clients);
  std::vector<std::uint64_t> protocol_errors(clients, 0);
  std::vector<std::uint64_t> mismatches(clients, 0);
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> workers;
  workers.reserve(clients);
  for (int c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      DriveClient(port, schemas, static_cast<std::size_t>(c), requests,
                  reference, &latencies[c], &protocol_errors[c],
                  &mismatches[c]);
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  RunResult result;
  result.clients = clients;
  result.wall_ms = MillisSince(start);
  std::vector<double> all;
  for (int c = 0; c < clients; ++c) {
    all.insert(all.end(), latencies[c].begin(), latencies[c].end());
    result.protocol_errors += protocol_errors[c];
    result.mismatches += mismatches[c];
  }
  result.requests = all.size();
  result.req_per_s = result.wall_ms > 0
                         ? 1000.0 * static_cast<double>(result.requests) /
                               result.wall_ms
                         : 0;
  result.p50_ms = Percentile(all, 0.50);
  result.p99_ms = Percentile(all, 0.99);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  int requests = 120;
  int threads = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--requests" && i + 1 < argc) {
      requests = std::atoi(argv[++i]);
    } else if (arg == "--threads" && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
    } else {
      std::cerr << "usage: bench_server [--json <path>] [--requests N] "
                   "[--threads N]\n";
      return 2;
    }
  }

  const std::vector<SchemaFile> schemas = LoadSchemas();

  crsat::server::ServerOptions options;
  options.port = 0;
  options.threads = threads;
  crsat::server::Server daemon(options);
  const crsat::Status started = daemon.Start();
  if (!started.ok()) {
    std::cerr << "daemon start failed: " << started.ToString() << "\n";
    return 2;
  }
  std::cout << "crsatd on " << daemon.endpoint() << " (threads="
            << crsat::GlobalThreadCount() << "), " << requests
            << " requests/client\n";

  // References: one fresh one-shot reply per (schema, mix step).
  // Everything the concurrency sweeps produce must match these bytes.
  std::map<std::string, Reply> reference;
  for (const SchemaFile& schema : schemas) {
    crsat::Result<crsat::NamedSchema> parsed = crsat::ParseSchema(schema.text);
    if (!parsed.ok()) {
      std::cerr << schema.name << ": " << parsed.status().ToString() << "\n";
      return 2;
    }
    for (int step = 0; step < kMixSize; ++step) {
      reference[MixKey(schema.name, step)] =
          OneShotReply(schema, *parsed, step);
    }
  }

  std::vector<RunResult> results;
  bool failed = false;
  for (int clients : {1, 2, 8}) {
    RunResult result =
        RunAtConcurrency(daemon.port(), schemas, clients, requests, reference);
    std::cout << "clients=" << result.clients << "  requests="
              << result.requests << "  wall=" << result.wall_ms
              << " ms  req/s=" << result.req_per_s << "  p50="
              << result.p50_ms << " ms  p99=" << result.p99_ms
              << " ms  protocol_errors=" << result.protocol_errors
              << "  mismatches=" << result.mismatches << "\n";
    if (result.protocol_errors != 0 || result.mismatches != 0 ||
        result.requests !=
            static_cast<std::uint64_t>(result.clients) * requests) {
      failed = true;
    }
    results.push_back(result);
  }

  daemon.BeginDrain();
  daemon.Wait();

  if (!json_path.empty()) {
    constexpr crsat::JsonLayout kMultiLine = crsat::JsonLayout::kMultiLine;
    crsat::JsonWriter json;
    json.BeginObject(kMultiLine).Member("bench", "bench_server");
    json.Member("requests_per_client", requests).Member("mix",
        "every client cycles university.cr, figure1.cr, meeting.cr (parse, "
        "check, lint, implications isa, check, lint json, witness text), "
        "starting at a different schema");
    json.Key("workloads").BeginArray(kMultiLine).BeginObject(kMultiLine);
    json.Member("name", "mixed_loopback").Key("runs").BeginArray(kMultiLine);
    for (const RunResult& r : results) {
      json.BeginObject().Member("clients", r.clients);
      json.Member("requests", r.requests).Member("wall_ms", r.wall_ms);
      json.Member("req_per_s", r.req_per_s).Member("p50_ms", r.p50_ms);
      json.Member("p99_ms", r.p99_ms);
      json.Member("protocol_errors", r.protocol_errors);
      json.Member("mismatches", r.mismatches).End();
    }
    std::ofstream(json_path) << json.End().End().End().End().str() << "\n";
    std::cout << "wrote " << json_path << "\n";
  }

  if (failed) {
    std::cerr << "FAIL: protocol errors, verdict mismatches, or dropped "
                 "requests under concurrency\n";
    return 1;
  }
  return 0;
}
