#ifndef CRSAT_SERVER_SERVER_H_
#define CRSAT_SERVER_SERVER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/base/annotations.h"
#include "src/base/mutex.h"
#include "src/base/resource_guard.h"
#include "src/base/status.h"
#include "src/server/scheduler.h"
#include "src/server/session.h"

namespace crsat {
namespace server {

/// crsatd configuration.
struct ServerOptions {
  /// TCP listener on 127.0.0.1 when >= 0 (0 = kernel-assigned ephemeral
  /// port, reported by `Server::port()` after `Start`). Exactly one of
  /// `port` / `unix_socket` must be set.
  int port = -1;
  /// AF_UNIX listener at this path (unlinked on shutdown).
  std::string unix_socket;
  /// Reasoning-pool parallelism: the pool owns this many workers, so N
  /// means N requests reasoning at once (the scheduler's
  /// `max_concurrency`). Resolved via `SetGlobalThreadCount` *before*
  /// the listener accepts its first connection (0 = auto: CRSAT_THREADS
  /// or the hardware). Frozen for the daemon's lifetime — see the
  /// ordering contract on SetGlobalThreadCount.
  int threads = 0;
  /// Admission-control queue bounds.
  RequestScheduler::Options scheduler;
  /// Server-wide resource caps; each request's budget headers are
  /// clamped by these (protocol.h `ClampBudget`). Unset = uncapped.
  ResourceLimits caps;
};

/// The crsatd daemon (DESIGN.md §15): a listener, one session +
/// scheduler lane per connection, and the shared request scheduler in
/// front of the process-wide reasoning pool.
///
/// Lifecycle:
///   Server server(options);
///   CRSAT_RETURN_IF_ERROR(server.Start());   // binds, spawns accept loop
///   ... server.BeginDrain() from a signal handler or kShutdown ...
///   server.Wait();                           // drains and joins
///
/// Threading: one accept thread; one thread per live connection reading
/// frames and writing admission refusals; pool workers execute admitted
/// requests and write their responses (a per-connection write mutex
/// keeps the two writers' frames from interleaving).
class Server {
 public:
  explicit Server(const ServerOptions& options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Resolves the thread count, binds the listener, starts accepting.
  Status Start();

  /// The bound TCP port (meaningful after Start on a TCP listener;
  /// resolves `port = 0` to the kernel-assigned port).
  int port() const { return bound_port_; }

  /// "127.0.0.1:<port>" or "unix:<path>".
  std::string endpoint() const;

  /// Graceful drain: stop accepting connections, refuse new requests
  /// with kShuttingDown, let in-flight requests finish. Idempotent;
  /// callable from any thread (a signal-watching loop, a kShutdown
  /// request's connection thread).
  void BeginDrain();

  /// True once `BeginDrain` ran (from a signal or a shutdown request).
  bool draining() const;

  /// Connections currently tracked: live readers plus closed ones the
  /// accept thread has not reaped yet. Dead connections are reaped
  /// between accept polls (fd closed, thread joined), so this returns
  /// to zero shortly after clients disconnect — a long-running daemon
  /// never accumulates dead fds.
  std::size_t live_connections() const;

  /// Blocks until drained: accept loop exited, every admitted request
  /// completed, every connection thread joined. Call once, after Start.
  void Wait();

  /// Scheduler counters (the `stats` request serves these as JSON).
  RequestScheduler::Stats scheduler_stats() const {
    return scheduler_->stats();
  }

 private:
  struct Connection;

  void AcceptLoop();
  void ConnectionLoop(Connection* connection);
  /// Routes one decoded request frame: service-level types are answered
  /// inline, session types go through admission control.
  void DispatchFrame(Connection* connection, Frame frame);
  /// Erases, joins and closes every connection whose reader exited and
  /// whose last in-flight response has been written. Runs on the accept
  /// thread between polls; `Wait` handles whatever is left at drain.
  void ReapDeadConnections();

  const ServerOptions options_;
  std::unique_ptr<RequestScheduler> scheduler_;
  int listen_fd_ = -1;
  int bound_port_ = -1;
  std::thread accept_thread_;

  mutable Mutex mutex_;
  CondVar drain_cv_;  ///< Signaled when draining_ flips to true.
  bool draining_ CRSAT_GUARDED_BY(mutex_) = false;
  std::vector<std::unique_ptr<Connection>> connections_
      CRSAT_GUARDED_BY(mutex_);
  std::uint64_t next_session_id_ CRSAT_GUARDED_BY(mutex_) = 1;
};

}  // namespace server
}  // namespace crsat

#endif  // CRSAT_SERVER_SERVER_H_
