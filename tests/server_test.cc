// Tests for the crsatd service layer (src/server/): wire protocol
// framing, the fair-queueing request scheduler, and end-to-end
// client/daemon behavior on a loopback socket — including the contract
// the whole subsystem exists for: responses byte-identical to the
// one-shot CLI's stdout (DESIGN.md §15).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/base/failpoint.h"
#include "src/base/mutex.h"
#include "src/base/thread_pool.h"
#include "src/server/client.h"
#include "src/server/handlers.h"
#include "src/server/protocol.h"
#include "src/server/scheduler.h"
#include "src/server/server.h"

namespace crsat {
namespace server {
namespace {

std::string Schema(const std::string& name) {
  return std::string(CRSAT_SOURCE_DIR) + "/examples/schemas/" + name;
}

std::string ReadFileOrDie(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  EXPECT_NE(file, nullptr) << path;
  std::string text;
  char chunk[4096];
  std::size_t got = 0;
  while ((got = std::fread(chunk, 1, sizeof(chunk), file)) > 0) {
    text.append(chunk, got);
  }
  std::fclose(file);
  return text;
}

// Runs the one-shot CLI, returning its stdout and exit code (stderr is
// dropped: the parity contract covers stdout bytes and the exit family).
struct CliRun {
  int exit_code = -1;
  std::string out;
};

CliRun RunCli(const std::string& args) {
  const std::string command =
      std::string(SERVER_TEST_CLI) + " " + args + " 2>/dev/null";
  CliRun run;
  std::FILE* pipe = popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << command;
  char chunk[4096];
  std::size_t got = 0;
  while ((got = std::fread(chunk, 1, sizeof(chunk), pipe)) > 0) {
    run.out.append(chunk, got);
  }
  const int raw = pclose(pipe);
  run.exit_code = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
  return run;
}

// ---------------------------------------------------------------------------
// Wire protocol: encode/decode round trips and the three ways a byte
// stream can go wrong (truncation, garbage, lying length prefixes).

TEST(ProtocolTest, RequestRoundTripPreservesEveryField) {
  Frame request = MakeRequest(RequestType::kCheck, "payload bytes");
  request.deadline_ms = 1500;
  request.max_compounds = 77;
  request.max_memory_bytes = 1u << 20;

  const std::string wire = EncodeFrame(request);
  ASSERT_EQ(wire.size(), kFrameHeaderBytes + request.payload.size());

  Frame decoded;
  std::size_t consumed = 0;
  std::string error;
  ASSERT_EQ(DecodeFrame(wire, &decoded, &consumed, &error), DecodeResult::kFrame)
      << error;
  EXPECT_EQ(consumed, wire.size());
  EXPECT_FALSE(decoded.is_response());
  EXPECT_EQ(decoded.request_type(), RequestType::kCheck);
  EXPECT_EQ(decoded.deadline_ms, 1500u);
  EXPECT_EQ(decoded.max_compounds, 77u);
  EXPECT_EQ(decoded.max_memory_bytes, 1u << 20);
  EXPECT_EQ(decoded.payload, "payload bytes");
}

TEST(ProtocolTest, ResponseRoundTripCarriesStatus) {
  const std::string wire = EncodeFrame(
      MakeResponse(RequestType::kLint, ResponseStatus::kFindings, "report"));
  Frame decoded;
  std::size_t consumed = 0;
  std::string error;
  ASSERT_EQ(DecodeFrame(wire, &decoded, &consumed, &error), DecodeResult::kFrame);
  EXPECT_TRUE(decoded.is_response());
  EXPECT_EQ(decoded.request_type(), RequestType::kLint);
  EXPECT_EQ(decoded.response_status(), ResponseStatus::kFindings);
  EXPECT_EQ(decoded.payload, "report");
}

TEST(ProtocolTest, EveryTruncationOfAValidFrameNeedsMore) {
  // Short reads are normal operation: every proper prefix of a valid
  // frame must decode to kNeedMore, never kError (the server/short-read
  // failpoint delivers the stream one byte at a time through exactly
  // this path).
  const std::string wire =
      EncodeFrame(MakeRequest(RequestType::kParse, "name\nclass A\n"));
  for (std::size_t len = 0; len < wire.size(); ++len) {
    Frame frame;
    std::size_t consumed = 0;
    std::string error;
    EXPECT_EQ(DecodeFrame(std::string_view(wire).substr(0, len), &frame,
                          &consumed, &error),
              DecodeResult::kNeedMore)
        << "prefix of length " << len << ": " << error;
  }
}

TEST(ProtocolTest, GarbageMagicIsAnErrorImmediately) {
  // The very first wrong byte condemns the stream — no waiting for 32
  // bytes of garbage to accumulate.
  Frame frame;
  std::size_t consumed = 0;
  std::string error;
  EXPECT_EQ(DecodeFrame("GET / HTTP/1.1\r\n", &frame, &consumed, &error),
            DecodeResult::kError);
  EXPECT_NE(error.find("magic"), std::string::npos) << error;
  error.clear();
  EXPECT_EQ(DecodeFrame("X", &frame, &consumed, &error), DecodeResult::kError);
}

TEST(ProtocolTest, OversizedPayloadDeclarationIsAnError) {
  std::string wire = EncodeFrame(MakeRequest(RequestType::kCheck, ""));
  // Rewrite the length prefix (offset 28, LE u32) to claim > 16 MiB.
  const std::uint32_t huge = kMaxPayloadBytes + 1;
  for (int i = 0; i < 4; ++i) {
    wire[28 + i] = static_cast<char>((huge >> (8 * i)) & 0xff);
  }
  Frame frame;
  std::size_t consumed = 0;
  std::string error;
  EXPECT_EQ(DecodeFrame(wire, &frame, &consumed, &error), DecodeResult::kError);
  EXPECT_NE(error.find("payload"), std::string::npos) << error;
}

TEST(ProtocolTest, WrongVersionAndDirtyReservedByteAreErrors) {
  std::string wire = EncodeFrame(MakeRequest(RequestType::kCheck, ""));
  std::string bad_version = wire;
  bad_version[4] = static_cast<char>(kProtocolVersion + 1);
  Frame frame;
  std::size_t consumed = 0;
  std::string error;
  EXPECT_EQ(DecodeFrame(bad_version, &frame, &consumed, &error),
            DecodeResult::kError);

  std::string dirty_reserved = wire;
  dirty_reserved[7] = 1;
  EXPECT_EQ(DecodeFrame(dirty_reserved, &frame, &consumed, &error),
            DecodeResult::kError);
}

TEST(ProtocolTest, BackToBackFramesDecodeOneAtATime) {
  const std::string first = EncodeFrame(MakeRequest(RequestType::kStats, ""));
  const std::string second =
      EncodeFrame(MakeRequest(RequestType::kLint, "json"));
  std::string buffer = first + second;

  Frame frame;
  std::size_t consumed = 0;
  std::string error;
  ASSERT_EQ(DecodeFrame(buffer, &frame, &consumed, &error),
            DecodeResult::kFrame);
  EXPECT_EQ(frame.request_type(), RequestType::kStats);
  EXPECT_EQ(consumed, first.size());
  buffer.erase(0, consumed);
  ASSERT_EQ(DecodeFrame(buffer, &frame, &consumed, &error),
            DecodeResult::kFrame);
  EXPECT_EQ(frame.request_type(), RequestType::kLint);
  EXPECT_EQ(frame.payload, "json");
}

TEST(ProtocolTest, ClampBudgetTakesTheTighterOfRequestAndCap) {
  ResourceLimits caps;
  caps.max_compounds = 1000;
  caps.timeout = std::chrono::milliseconds(2000);

  Frame request = MakeRequest(RequestType::kCheck, "");
  request.max_compounds = 50;       // Tighter than the cap: kept.
  request.deadline_ms = 10000;      // Looser than the cap: clamped.
  request.max_memory_bytes = 4096;  // No cap on this axis: passes through.

  const ResourceLimits limits = ClampBudget(request, caps);
  ASSERT_TRUE(limits.max_compounds.has_value());
  EXPECT_EQ(*limits.max_compounds, 50u);
  ASSERT_TRUE(limits.timeout.has_value());
  EXPECT_EQ(limits.timeout->count(), 2000);
  ASSERT_TRUE(limits.max_memory_bytes.has_value());
  EXPECT_EQ(*limits.max_memory_bytes, 4096u);

  // No request budget at all: the caps apply as-is.
  const ResourceLimits cap_only =
      ClampBudget(MakeRequest(RequestType::kCheck, ""), caps);
  ASSERT_TRUE(cap_only.max_compounds.has_value());
  EXPECT_EQ(*cap_only.max_compounds, 1000u);
  EXPECT_FALSE(cap_only.max_memory_bytes.has_value());
}

// ---------------------------------------------------------------------------
// Request scheduler: admission control, per-lane FIFO, deficit round
// robin, drain.

TEST(SchedulerTest, FifoWithinOneLane) {
  ThreadPool pool(1);  // One worker: single-file dispatch.
  RequestScheduler scheduler(&pool, {});
  scheduler.OpenLane(1);

  Mutex mutex;
  std::vector<int> order;
  for (int i = 0; i < 32; ++i) {
    ASSERT_EQ(scheduler.Submit(1, 0,
                               [&, i] {
                                 MutexLock lock(mutex);
                                 order.push_back(i);
                               }),
              ResponseStatus::kOk);
  }
  scheduler.AwaitIdle();
  ASSERT_EQ(order.size(), 32u);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(SchedulerTest, FairQueueingBoundsTheLightTenant) {
  // The starvation scenario the DRR exists for: a pathological tenant
  // floods its lane with maximum-cost requests while a light tenant
  // sends one-line probes. With single-file dispatch the light tenant's
  // requests must all complete near the front — its worst-case position
  // is bounded by active lanes x longest request, not by the heavy
  // backlog length.
  ThreadPool pool(1);  // One worker: single-file dispatch.
  RequestScheduler scheduler(&pool, {});
  scheduler.OpenLane(1);  // Heavy tenant.
  scheduler.OpenLane(2);  // Light tenant.

  // Hold the single dispatch slot so the queues build up before the DRR
  // pass starts picking.
  Mutex gate_mutex;
  CondVar gate_cv;
  bool gate_open = false;
  scheduler.OpenLane(99);
  ASSERT_EQ(scheduler.Submit(99, 0,
                             [&] {
                               MutexLock lock(gate_mutex);
                               while (!gate_open) {
                                 gate_cv.Wait(lock);
                               }
                             }),
            ResponseStatus::kOk);

  Mutex mutex;
  std::vector<std::string> completions;
  constexpr int kHeavy = 30;
  constexpr int kLight = 6;
  for (int i = 0; i < kHeavy; ++i) {
    // 200 KiB payloads: DRR cost 64 each (the clamp ceiling + 1).
    ASSERT_EQ(scheduler.Submit(1, 200 * 1024,
                               [&] {
                                 MutexLock lock(mutex);
                                 completions.push_back("heavy");
                               }),
              ResponseStatus::kOk);
  }
  for (int i = 0; i < kLight; ++i) {
    ASSERT_EQ(scheduler.Submit(2, 16,
                               [&] {
                                 MutexLock lock(mutex);
                                 completions.push_back("light");
                               }),
              ResponseStatus::kOk);
  }
  {
    MutexLock lock(gate_mutex);
    gate_open = true;
  }
  gate_cv.NotifyAll();
  scheduler.AwaitIdle();

  ASSERT_EQ(completions.size(), static_cast<std::size_t>(kHeavy + kLight));
  // Tail latency bound, expressed in completion positions (deterministic,
  // unlike wall-clock p99): even the light tenant's *last* request must
  // finish before the heavy lane's backlog is half done. Under DRR the
  // light lane (cost 1 a pop) dispatches many times per heavy dispatch
  // (cost 64), so all 6 light requests land within the first handful of
  // completions; strict FIFO across lanes would put them at positions
  // 31..36.
  int last_light_position = -1;
  for (int i = 0; i < kHeavy + kLight; ++i) {
    if (completions[i] == "light") {
      last_light_position = i;
    }
  }
  ASSERT_GE(last_light_position, 0);
  EXPECT_LT(last_light_position, kHeavy / 2)
      << "light tenant starved behind the heavy backlog";
}

TEST(SchedulerTest, AdmissionControlShedsBeyondTheBounds) {
  ThreadPool pool(1);  // One worker: single-file dispatch.
  RequestScheduler::Options options;
  options.max_queued = 4;
  options.max_queued_per_lane = 4;
  RequestScheduler scheduler(&pool, options);
  scheduler.OpenLane(1);

  Mutex gate_mutex;
  CondVar gate_cv;
  bool gate_open = false;
  ASSERT_EQ(scheduler.Submit(1, 0,
                             [&] {
                               MutexLock lock(gate_mutex);
                               while (!gate_open) {
                                 gate_cv.Wait(lock);
                               }
                             }),
            ResponseStatus::kOk);

  // Fill the queue to its bound, then watch the shed.
  int admitted = 0;
  int shed = 0;
  for (int i = 0; i < 10; ++i) {
    const ResponseStatus status = scheduler.Submit(1, 0, [] {});
    if (status == ResponseStatus::kOk) {
      ++admitted;
    } else {
      EXPECT_EQ(status, ResponseStatus::kOverloaded);
      ++shed;
    }
  }
  EXPECT_EQ(admitted, 4);
  EXPECT_EQ(shed, 6);
  const RequestScheduler::Stats mid = scheduler.stats();
  EXPECT_EQ(mid.shed, 6u);

  {
    MutexLock lock(gate_mutex);
    gate_open = true;
  }
  gate_cv.NotifyAll();
  scheduler.AwaitIdle();
  const RequestScheduler::Stats done = scheduler.stats();
  EXPECT_EQ(done.completed, 5u);  // The gate task + 4 admitted.
  EXPECT_EQ(done.queued_now, 0u);
  EXPECT_EQ(done.running_now, 0u);
}

TEST(SchedulerTest, DrainRefusesNewWorkAndFinishesAdmitted) {
  ThreadPool pool(1);  // One worker: single-file dispatch.
  RequestScheduler scheduler(&pool, {});
  scheduler.OpenLane(1);

  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(scheduler.Submit(1, 0, [&] { ++ran; }), ResponseStatus::kOk);
  }
  scheduler.BeginDrain();
  EXPECT_TRUE(scheduler.draining());
  EXPECT_EQ(scheduler.Submit(1, 0, [&] { ++ran; }),
            ResponseStatus::kShuttingDown);
  scheduler.AwaitIdle();
  EXPECT_EQ(ran.load(), 8);
  EXPECT_EQ(scheduler.stats().refused_draining, 1u);
}

TEST(SchedulerTest, LanesRunConcurrentlyUpToPoolParallelism) {
  // A pool of parallelism 2 runs two requests at once: lane 1's request
  // blocks until lane 2's has run, which needs a second worker. With
  // only one, lane 2 would queue behind lane 1 and the wait would time
  // out.
  ThreadPool pool(2);
  RequestScheduler scheduler(&pool, {});
  EXPECT_EQ(scheduler.stats().max_concurrency, 2u);
  scheduler.OpenLane(1);
  scheduler.OpenLane(2);

  Mutex mutex;
  CondVar cv;
  bool lane2_ran = false;
  bool lane1_saw_lane2 = false;
  ASSERT_EQ(scheduler.Submit(1, 0,
                             [&] {
                               MutexLock lock(mutex);
                               const auto deadline =
                                   std::chrono::steady_clock::now() +
                                   std::chrono::seconds(10);
                               while (!lane2_ran) {
                                 if (!cv.WaitUntil(lock, deadline)) {
                                   break;
                                 }
                               }
                               lane1_saw_lane2 = lane2_ran;
                             }),
            ResponseStatus::kOk);
  ASSERT_EQ(scheduler.Submit(2, 0,
                             [&] {
                               MutexLock lock(mutex);
                               lane2_ran = true;
                               cv.NotifyAll();
                             }),
            ResponseStatus::kOk);
  scheduler.AwaitIdle();
  MutexLock lock(mutex);
  EXPECT_TRUE(lane1_saw_lane2)
      << "lane 2 never ran while lane 1 held a worker";
}

TEST(SchedulerTest, SubmitToClosedLaneIsRefused) {
  ThreadPool pool(2);
  RequestScheduler scheduler(&pool, {});
  scheduler.OpenLane(1);
  scheduler.CloseLane(1);
  EXPECT_EQ(scheduler.Submit(1, 0, [] {}), ResponseStatus::kOverloaded);
}

// ---------------------------------------------------------------------------
// End-to-end: daemon + client over loopback TCP.

// Test daemons run at one fixed parallelism, so the global pool is
// swapped only around the test that needs another one, and only between
// daemons (SetGlobalThreadCount contract: swaps must not race in-flight
// work).
ServerOptions TestOptions() {
  ServerOptions options;
  options.port = 0;  // Kernel-assigned ephemeral port.
  options.threads = 4;
  return options;
}

TEST(ServerTest, SessionHoldsTheSchemaAcrossManyRequests) {
  Server daemon(TestOptions());
  ASSERT_TRUE(daemon.Start().ok());

  Client client;
  ASSERT_TRUE(client.ConnectTcp(daemon.port()).ok());
  const std::string path = Schema("university.cr");
  auto parsed = client.Parse(path, ReadFileOrDie(path));
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->status, ResponseStatus::kOk);

  // One parse, many queries: the session carries the schema, so check /
  // lint / implications alternate freely and deterministically.
  std::string first_check;
  std::string first_lint;
  for (int i = 0; i < 10; ++i) {
    auto check = client.Call(RequestType::kCheck, "");
    ASSERT_TRUE(check.ok());
    auto lint = client.Call(RequestType::kLint, "");
    ASSERT_TRUE(lint.ok());
    auto implies =
        client.Call(RequestType::kImplications, "isa PhDStudent Person");
    ASSERT_TRUE(implies.ok());
    if (i == 0) {
      first_check = check->payload;
      first_lint = lint->payload;
      EXPECT_FALSE(first_check.empty());
    } else {
      EXPECT_EQ(check->payload, first_check) << "iteration " << i;
      EXPECT_EQ(lint->payload, first_lint) << "iteration " << i;
    }
  }

  auto stats = client.Call(RequestType::kStats, "");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->status, ResponseStatus::kOk);
  EXPECT_NE(stats->payload.find("\"completed\""), std::string::npos);

  daemon.BeginDrain();
  daemon.Wait();
}

TEST(ServerTest, StatsReportTheThreadsTheDaemonRunsOn) {
  // `--threads 2` means two requests reasoning at once, and `stats` says
  // so.
  ServerOptions options = TestOptions();
  options.threads = 2;
  Server daemon(options);
  ASSERT_TRUE(daemon.Start().ok());
  Client client;
  ASSERT_TRUE(client.ConnectTcp(daemon.port()).ok());
  auto stats = client.Call(RequestType::kStats, "");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->status, ResponseStatus::kOk);
  EXPECT_NE(stats->payload.find("\"max_concurrency\": 2"), std::string::npos)
      << stats->payload;
  daemon.BeginDrain();
  daemon.Wait();
}

TEST(ServerTest, ConcurrentClientsMatchTheOneShotCli) {
  // The subsystem's reason to exist: N concurrent sessions against one
  // daemon produce byte-for-byte the stdout of the one-shot CLI, for
  // every request type, at every concurrency level.
  const std::vector<std::string> schemas = {"university.cr", "figure1.cr",
                                            "meeting.cr"};
  // One implication query per schema, in the word form both paths take.
  const std::map<std::string, std::string> implies_queries = {
      {"university.cr", "isa PhDStudent Person"},
      {"figure1.cr", "isa D C"},
      {"meeting.cr", "card Discussant Holds U1"}};
  struct Expected {
    CliRun check;
    CliRun lint;
    CliRun witness;
    CliRun implies;
  };
  std::map<std::string, Expected> expected;
  for (const std::string& name : schemas) {
    Expected& e = expected[name];
    e.check = RunCli("check " + Schema(name));
    e.lint = RunCli("lint " + Schema(name));
    e.witness = RunCli("check " + Schema(name) + " --witness=text");
    e.implies =
        RunCli("implies " + Schema(name) + " " + implies_queries.at(name));
  }

  Server daemon(TestOptions());
  ASSERT_TRUE(daemon.Start().ok());

  for (int threads : {1, 2, 8}) {
    std::atomic<int> mismatches{0};
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        const std::string& name = schemas[t % schemas.size()];
        const Expected& e = expected.at(name);
        Client client;
        if (!client.ConnectTcp(daemon.port()).ok()) {
          ++mismatches;
          return;
        }
        const std::string path = Schema(name);
        auto parsed = client.Parse(path, ReadFileOrDie(path));
        if (!parsed.ok() || parsed->status != ResponseStatus::kOk) {
          ++mismatches;
          return;
        }
        for (int round = 0; round < 3; ++round) {
          auto check = client.Call(RequestType::kCheck, "");
          auto lint = client.Call(RequestType::kLint, "");
          auto witness = client.Call(RequestType::kWitness, "text");
          auto implies = client.Call(RequestType::kImplications,
                                     implies_queries.at(name));
          if (!check.ok() || check->payload != e.check.out ||
              static_cast<int>(check->status) != e.check.exit_code) {
            ++mismatches;
          }
          if (!lint.ok() || lint->payload != e.lint.out) {
            ++mismatches;
          }
          if (!witness.ok() || witness->payload != e.witness.out ||
              static_cast<int>(witness->status) != e.witness.exit_code) {
            ++mismatches;
          }
          if (!implies.ok() || implies->payload != e.implies.out ||
              static_cast<int>(implies->status) != e.implies.exit_code) {
            ++mismatches;
          }
        }
      });
    }
    for (std::thread& worker : workers) {
      worker.join();
    }
    EXPECT_EQ(mismatches.load(), 0) << "at concurrency " << threads;
  }

  daemon.BeginDrain();
  daemon.Wait();
}

TEST(ServerTest, LintParityIncludesSchemasTheStrictParserRejects) {
  // lint_demo.cr only parses leniently; the one-shot CLI still lints it
  // (exit 1, diagnostics on stdout). The session must do the same even
  // though its `parse` reply reported the strict-parse findings.
  const CliRun cli = RunCli("lint " + Schema("lint_demo.cr"));
  ASSERT_EQ(cli.exit_code, 1);

  Server daemon(TestOptions());
  ASSERT_TRUE(daemon.Start().ok());
  Client client;
  ASSERT_TRUE(client.ConnectTcp(daemon.port()).ok());
  const std::string path = Schema("lint_demo.cr");
  auto parsed = client.Parse(path, ReadFileOrDie(path));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->status, ResponseStatus::kFindings);

  auto lint = client.Call(RequestType::kLint, "");
  ASSERT_TRUE(lint.ok());
  EXPECT_EQ(lint->status, ResponseStatus::kFindings);
  EXPECT_EQ(lint->payload, cli.out);

  daemon.BeginDrain();
  daemon.Wait();
}

TEST(ServerTest, RequestBudgetTripsToResourceStatus) {
  Server daemon(TestOptions());
  ASSERT_TRUE(daemon.Start().ok());
  Client client;
  ASSERT_TRUE(client.ConnectTcp(daemon.port()).ok());
  const std::string path = Schema("university.cr");
  auto parsed = client.Parse(path, ReadFileOrDie(path));
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->status, ResponseStatus::kOk);

  RequestBudget budget;
  budget.max_compounds = 1;
  auto reply = client.Call(RequestType::kCheck, "", budget);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->status, ResponseStatus::kResource);
  EXPECT_NE(reply->payload.find("compound budget"), std::string::npos)
      << reply->payload;

  // The session survives the trip: the same request without the budget
  // succeeds.
  auto retry = client.Call(RequestType::kCheck, "");
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(retry->status, ResponseStatus::kOk);

  daemon.BeginDrain();
  daemon.Wait();
}

TEST(ServerTest, ImplicationsRequestHonorsItsBudget) {
  Server daemon(TestOptions());
  ASSERT_TRUE(daemon.Start().ok());
  Client client;
  ASSERT_TRUE(client.ConnectTcp(daemon.port()).ok());
  const std::string path = Schema("meeting.cr");
  auto parsed = client.Parse(path, ReadFileOrDie(path));
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->status, ResponseStatus::kOk);

  RequestBudget budget;
  budget.max_compounds = 1;
  for (const std::string query :
       {"isa Speaker Discussant", "card Discussant Holds U1"}) {
    auto reply = client.Call(RequestType::kImplications, query, budget);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->status, ResponseStatus::kResource) << query;
    EXPECT_NE(reply->payload.find("compound budget"), std::string::npos)
        << reply->payload;
  }

  auto unlimited =
      client.Call(RequestType::kImplications, "isa Speaker Discussant");
  ASSERT_TRUE(unlimited.ok());
  EXPECT_EQ(unlimited->status, ResponseStatus::kOk);

  daemon.BeginDrain();
  daemon.Wait();
}

TEST(ServerTest, QueryBeforeParseIsABadRequest) {
  Server daemon(TestOptions());
  ASSERT_TRUE(daemon.Start().ok());
  Client client;
  ASSERT_TRUE(client.ConnectTcp(daemon.port()).ok());
  auto reply = client.Call(RequestType::kCheck, "");
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->status, ResponseStatus::kBadRequest);
  EXPECT_NE(reply->payload.find("parse"), std::string::npos);
  daemon.BeginDrain();
  daemon.Wait();
}

TEST(ServerTest, GarbageBytesGetAProtocolErrorAndAClosedConnection) {
  Server daemon(TestOptions());
  ASSERT_TRUE(daemon.Start().ok());

  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(daemon.port()));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  const std::string garbage = "this is not a CRSD frame";
  ASSERT_EQ(send(fd, garbage.data(), garbage.size(), 0),
            static_cast<ssize_t>(garbage.size()));

  // The server answers with one kProtocolError response, then hangs up —
  // a peer that breaks framing cannot be resynchronized.
  std::string buffer;
  char chunk[512];
  ssize_t got = 0;
  Frame frame;
  std::size_t consumed = 0;
  std::string error;
  DecodeResult result = DecodeResult::kNeedMore;
  while ((got = recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    buffer.append(chunk, static_cast<std::size_t>(got));
    result = DecodeFrame(buffer, &frame, &consumed, &error);
    if (result != DecodeResult::kNeedMore) {
      break;
    }
  }
  ASSERT_EQ(result, DecodeResult::kFrame) << error;
  EXPECT_TRUE(frame.is_response());
  EXPECT_EQ(frame.response_status(), ResponseStatus::kProtocolError);
  EXPECT_EQ(recv(fd, chunk, sizeof(chunk), 0), 0);  // EOF follows.
  close(fd);

  daemon.BeginDrain();
  daemon.Wait();
}

TEST(ServerTest, UnknownRequestTypeIsRefusedWithoutKillingTheSession) {
  Server daemon(TestOptions());
  ASSERT_TRUE(daemon.Start().ok());
  Client client;
  ASSERT_TRUE(client.ConnectTcp(daemon.port()).ok());

  auto bogus = client.Call(static_cast<RequestType>(42), "");
  ASSERT_TRUE(bogus.ok());
  EXPECT_EQ(bogus->status, ResponseStatus::kProtocolError);

  // A well-formed frame with an unknown type is refused but the framing
  // held, so the connection stays usable.
  auto stats = client.Call(RequestType::kStats, "");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->status, ResponseStatus::kOk);

  daemon.BeginDrain();
  daemon.Wait();
}

TEST(ServerTest, ShutdownRequestDrainsGracefully) {
  Server daemon(TestOptions());
  ASSERT_TRUE(daemon.Start().ok());
  const int port = daemon.port();

  // A session with work done on it...
  Client busy;
  ASSERT_TRUE(busy.ConnectTcp(port).ok());
  const std::string path = Schema("university.cr");
  auto parsed = busy.Parse(path, ReadFileOrDie(path));
  ASSERT_TRUE(parsed.ok());
  auto check = busy.Call(RequestType::kCheck, "");
  ASSERT_TRUE(check.ok());
  EXPECT_EQ(check->status, ResponseStatus::kOk);

  // ...and a second connection that asks the daemon to stop.
  Client admin;
  ASSERT_TRUE(admin.ConnectTcp(port).ok());
  auto reply = admin.Call(RequestType::kShutdown, "");
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->status, ResponseStatus::kOk);
  EXPECT_NE(reply->payload.find("draining"), std::string::npos);

  EXPECT_TRUE(daemon.draining());
  daemon.Wait();  // In-flight work finished, every thread joined.

  // The listener is gone: new connections are refused.
  Client late;
  EXPECT_FALSE(late.ConnectTcp(port).ok());

  const RequestScheduler::Stats stats = daemon.scheduler_stats();
  EXPECT_EQ(stats.queued_now, 0u);
  EXPECT_EQ(stats.running_now, 0u);
  EXPECT_GE(stats.completed, 2u);  // parse + check at minimum.
}

TEST(ServerTest, ClosedConnectionsAreReapedWhileServing) {
  Server daemon(TestOptions());
  ASSERT_TRUE(daemon.Start().ok());

  // Churn through connections the way a long-lived daemon sees them. If
  // dead connections were retained until shutdown, every one of these
  // would pin an fd and a thread object until drain (and a real daemon
  // would walk into EMFILE).
  for (int i = 0; i < 20; ++i) {
    Client client;
    ASSERT_TRUE(client.ConnectTcp(daemon.port()).ok());
    auto stats = client.Call(RequestType::kStats, "");
    ASSERT_TRUE(stats.ok());
    client.Close();
  }

  // The accept thread sweeps between its 200 ms polls: the tracked
  // count must fall to zero with no drain in sight.
  std::size_t live = daemon.live_connections();
  for (int spin = 0; spin < 100 && live != 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    live = daemon.live_connections();
  }
  EXPECT_EQ(live, 0u);

  // And the daemon is still fully in service afterwards.
  Client client;
  ASSERT_TRUE(client.ConnectTcp(daemon.port()).ok());
  auto stats = client.Call(RequestType::kStats, "");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->status, ResponseStatus::kOk);

  daemon.BeginDrain();
  daemon.Wait();
}

TEST(ServerTest, BufferedSecondShutdownCannotDeadlockTheDrain) {
  // Regression: two shutdown frames land in one segment, so the reader
  // calls BeginDrain for the second one while Wait() is already joining
  // connection threads. The join must happen outside the server mutex,
  // or Wait() waits on a reader that waits on the lock.
  Server daemon(TestOptions());
  ASSERT_TRUE(daemon.Start().ok());

  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(daemon.port()));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  const std::string wire =
      EncodeFrame(MakeRequest(RequestType::kShutdown, "")) +
      EncodeFrame(MakeRequest(RequestType::kShutdown, ""));
  ASSERT_EQ(send(fd, wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));

  daemon.Wait();  // Must return; the mutex-held join hung forever here.
  EXPECT_TRUE(daemon.draining());
  close(fd);
}

TEST(ServerTest, OversizedRequestPayloadIsRefusedNotTruncated) {
  Server daemon(TestOptions());
  ASSERT_TRUE(daemon.Start().ok());
  Client client;
  ASSERT_TRUE(client.ConnectTcp(daemon.port()).ok());

  // One byte past the cap: Call must fail with a status instead of
  // clamping the frame on the wire (a silently cut schema would be
  // parsed and answered as if it were complete).
  std::string oversized(kMaxPayloadBytes + 1, 'x');
  auto reply = client.Call(RequestType::kParse, std::move(oversized));
  EXPECT_FALSE(reply.ok());
  EXPECT_NE(reply.status().ToString().find("cap"), std::string::npos)
      << reply.status().ToString();

  // The refusal happened before any bytes went out: the connection is
  // still clean and serves the next request.
  auto stats = client.Call(RequestType::kStats, "");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->status, ResponseStatus::kOk);

  daemon.BeginDrain();
  daemon.Wait();
}

TEST(ServerTest, StartRejectsAmbiguousListenerConfig) {
  ServerOptions both = TestOptions();
  both.unix_socket = "/tmp/crsatd_test.sock";
  Server daemon(both);
  EXPECT_FALSE(daemon.Start().ok());

  ServerOptions neither;
  neither.port = -1;
  Server daemon2(neither);
  EXPECT_FALSE(daemon2.Start().ok());
}

TEST(ServerTest, UnixSocketListenerServesRequests) {
  ServerOptions options;
  options.threads = 4;
  options.unix_socket =
      ::testing::TempDir() + "/crsatd_" + std::to_string(getpid()) + ".sock";
  Server daemon(options);
  ASSERT_TRUE(daemon.Start().ok());
  EXPECT_EQ(daemon.endpoint(), "unix:" + options.unix_socket);

  Client client;
  ASSERT_TRUE(client.ConnectUnix(options.unix_socket).ok());
  const std::string path = Schema("figure1.cr");
  auto parsed = client.Parse(path, ReadFileOrDie(path));
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->status, ResponseStatus::kOk);
  auto check = client.Call(RequestType::kCheck, "");
  ASSERT_TRUE(check.ok());
  EXPECT_EQ(check->payload, RunCli("check " + path).out);

  daemon.BeginDrain();
  daemon.Wait();
}

// ---------------------------------------------------------------------------
// The session's analysis: one expansion and support per parsed schema,
// shared by check, witness and `implications isa` (commands/analysis.h).
// These drive `HandleRequest` on a `Session` directly, without a socket.

HandlerResult Send(Session& session, RequestType type,
                   const std::string& payload, std::uint32_t deadline_ms = 0,
                   std::uint64_t max_compounds = 0) {
  Frame request = MakeRequest(type, payload);
  request.deadline_ms = deadline_ms;
  request.max_compounds = max_compounds;
  return HandleRequest(session, request, ResourceLimits());
}

HandlerResult ParseInto(Session& session, const std::string& name) {
  const std::string path = Schema(name);
  return Send(session, RequestType::kParse, path + "\n" + ReadFileOrDie(path));
}

// The reply of a session that parsed `name` and served nothing else.
HandlerResult Fresh(const std::string& name, RequestType type,
                    const std::string& payload) {
  Session session(1);
  EXPECT_EQ(ParseInto(session, name).status, ResponseStatus::kOk) << name;
  return Send(session, type, payload);
}

struct Query {
  RequestType type;
  std::string payload;
};

void ExpectSame(const HandlerResult& reply, const HandlerResult& expected,
                const std::string& context) {
  EXPECT_EQ(reply.status, expected.status) << context;
  EXPECT_EQ(reply.payload, expected.payload) << context;
}

void ExpectFresh(const std::string& name, const Query& query,
                 const HandlerResult& reply, const std::string& context) {
  ExpectSame(reply, Fresh(name, query.type, query.payload),
             name + " " + context);
}

const std::map<std::string, std::string>& IsaQueries() {
  static const std::map<std::string, std::string> queries = {
      {"university.cr", "isa PhDStudent Person"},
      {"meeting.cr", "isa Speaker Discussant"},
      {"figure1.cr", "isa D C"},
      {"finitely_unsat_chain.cr", "isa B A"}};
  return queries;
}

TEST(SessionAnalysisTest, RepliesInAnyOrderMatchFreshSessions) {
  for (const auto& [name, isa] : IsaQueries()) {
    const std::vector<Query> queries = {{RequestType::kCheck, ""},
                                        {RequestType::kWitness, "text"},
                                        {RequestType::kImplications, isa},
                                        {RequestType::kWitness, "dot"}};
    std::vector<HandlerResult> fresh;
    for (const Query& query : queries) {
      fresh.push_back(Fresh(name, query.type, query.payload));
    }
    std::vector<int> order = {0, 1, 2, 3};
    do {
      Session session(2);
      ASSERT_EQ(ParseInto(session, name).status, ResponseStatus::kOk);
      // Every order, then a repeated check on the warm analysis.
      std::vector<int> sequence = order;
      sequence.push_back(0);
      std::string context = "order";
      for (int q : sequence) {
        context += " " + std::to_string(q);
        ExpectSame(Send(session, queries[q].type, queries[q].payload),
                   fresh[q], name + " " + context);
      }
    } while (std::next_permutation(order.begin(), order.end()));
  }
}

TEST(SessionAnalysisTest, ReparseAnswersForTheNewSchema) {
  Session session(3);
  for (const std::string name :
       {"university.cr", "meeting.cr", "figure1.cr", "university.cr"}) {
    ASSERT_EQ(ParseInto(session, name).status, ResponseStatus::kOk);
    for (const Query& query :
         {Query{RequestType::kCheck, ""}, Query{RequestType::kWitness, "text"},
          Query{RequestType::kImplications, IsaQueries().at(name)}}) {
      ExpectFresh(name, query, Send(session, query.type, query.payload),
                  "after re-parse");
    }
  }
  // A parse that fails drops the schema and its analysis together.
  EXPECT_EQ(Send(session, RequestType::kParse, "bad.cr\nschema {").status,
            ResponseStatus::kFindings);
  EXPECT_FALSE(session.schema.has_value());
  EXPECT_FALSE(session.analysis.has_value());
  EXPECT_EQ(Send(session, RequestType::kCheck, "").status,
            ResponseStatus::kBadRequest);
}

TEST(SessionAnalysisTest, TrippedFirstRequestCachesNothing) {
  const std::string name = "university.cr";
  const std::vector<Query> follow_ups = {
      {RequestType::kCheck, ""},
      {RequestType::kWitness, "text"},
      {RequestType::kImplications, IsaQueries().at(name)}};
  std::vector<HandlerResult> fresh;
  for (const Query& query : follow_ups) {
    fresh.push_back(Fresh(name, query.type, query.payload));
  }
  auto expect_follow_ups = [&](Session& session, const std::string& context) {
    for (std::size_t q = 0; q < follow_ups.size(); ++q) {
      ExpectSame(Send(session, follow_ups[q].type, follow_ups[q].payload),
                 fresh[q], context);
    }
  };
  {
    // university.cr's support takes several milliseconds of LP, so a
    // 1 ms deadline trips while the analysis is being built.
    Session session(4);
    ASSERT_EQ(ParseInto(session, name).status, ResponseStatus::kOk);
    const HandlerResult tripped =
        Send(session, RequestType::kCheck, "", /*deadline_ms=*/1);
    EXPECT_EQ(tripped.status, ResponseStatus::kResource) << tripped.payload;
    expect_follow_ups(session, "after a deadline trip");
  }
  // An injected trip at each guard check of the build in turn: the first
  // request fails or (once `nth` passes the build's last check) answers
  // in full, and the unlimited requests after it always answer in full.
  bool any_trip = false;
  for (std::uint64_t nth = 1; nth <= 40; ++nth) {
    Session session(5);
    ASSERT_EQ(ParseInto(session, name).status, ResponseStatus::kOk);
    HandlerResult first;
    {
      ScopedFailpoint trip("guard/trip", nth);
      ASSERT_TRUE(trip.status().ok());
      first = Send(session, RequestType::kCheck, "", /*deadline_ms=*/0,
                   /*max_compounds=*/std::uint64_t{1} << 40);
    }
    const std::string context = "after guard/trip nth:" + std::to_string(nth);
    if (first.status == ResponseStatus::kResource) {
      any_trip = true;
    } else {
      ExpectSame(first, fresh[0], context);
    }
    expect_follow_ups(session, context);
  }
  EXPECT_TRUE(any_trip);
}

TEST(SessionAnalysisTest, AnalysisKeepsNoRequestGuard) {
  // A guarded request builds the analysis; its guard dies with the
  // request. The unguarded witness request after it must not reach that
  // guard (the sanitizer build reports it if it does).
  const std::string name = "university.cr";
  Session session(6);
  ASSERT_EQ(ParseInto(session, name).status, ResponseStatus::kOk);
  const HandlerResult guarded =
      Send(session, RequestType::kCheck, "", /*deadline_ms=*/600000,
           /*max_compounds=*/std::uint64_t{1} << 40);
  ExpectFresh(name, {RequestType::kCheck, ""}, guarded, "guarded build");
  ASSERT_TRUE(session.analysis.has_value());
  Result<const SatisfiabilityChecker*> checker =
      session.analysis->Checker(nullptr);
  ASSERT_TRUE(checker.ok());
  EXPECT_EQ((*checker)->expansion().options().guard, nullptr);
  ExpectFresh(name, {RequestType::kWitness, "text"},
              Send(session, RequestType::kWitness, "text"),
              "unguarded witness after a guarded build");
}

TEST(SessionAnalysisTest, CachedAnalysisOverBudgetIsRefused) {
  // A request that reuses the analysis pays for its compounds: a budget
  // below them is refused as the one-shot CLI refuses it.
  const std::string name = "university.cr";
  Session session(7);
  ASSERT_EQ(ParseInto(session, name).status, ResponseStatus::kOk);
  ASSERT_EQ(Send(session, RequestType::kCheck, "").status,
            ResponseStatus::kOk);
  const Expansion& expansion =
      session.analysis->Checker(nullptr).value()->expansion();
  const std::uint64_t compounds =
      expansion.classes().size() + expansion.relationships().size();
  ASSERT_GT(compounds, 1u);
  for (const Query& query :
       {Query{RequestType::kCheck, ""}, Query{RequestType::kWitness, "text"},
        Query{RequestType::kImplications, IsaQueries().at(name)}}) {
    const HandlerResult refused = Send(session, query.type, query.payload,
                                       /*deadline_ms=*/0, compounds - 1);
    EXPECT_EQ(refused.status, ResponseStatus::kResource) << query.payload;
    EXPECT_NE(refused.payload.find("compound budget"), std::string::npos)
        << refused.payload;
    // A fresh session that builds under the same budget is refused too.
    Session fresh(8);
    ASSERT_EQ(ParseInto(fresh, name).status, ResponseStatus::kOk);
    EXPECT_EQ(Send(fresh, query.type, query.payload, /*deadline_ms=*/0,
                   compounds - 1)
                  .status,
              ResponseStatus::kResource)
        << query.payload;
    ExpectFresh(name, query,
                Send(session, query.type, query.payload, /*deadline_ms=*/0,
                     compounds),
                "at a budget of exactly the analysis's compounds");
  }
}

}  // namespace
}  // namespace server
}  // namespace crsat
