#ifndef CRSAT_SERVER_SCHEDULER_H_
#define CRSAT_SERVER_SCHEDULER_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "src/base/annotations.h"
#include "src/base/mutex.h"
#include "src/base/thread_pool.h"
#include "src/server/protocol.h"

namespace crsat {
namespace server {

/// The async request scheduler: admission control in front, fair
/// queueing in the middle, the process-wide `ThreadPool` at the
/// back (DESIGN.md §15).
///
/// Every connection registers one *lane* (keyed by session id). Admitted
/// requests join their lane's FIFO; a deficit-round-robin pass over the
/// lanes picks what runs next, so one pathological tenant flooding its
/// lane cannot starve the others: a light tenant's wait is bounded by
/// (active lanes x longest single request), never by the pathological
/// backlog length. Per-request `ResourceGuard` deadlines bound that
/// longest request, closing the loop.
///
/// Guarantees:
///   - FIFO order *within* a lane; at most one in-flight request per
///     lane (sessions hold unsynchronized state, src/server/session.h).
///   - Deficit round robin *across* lanes, cost = 1 + payload KiB
///     (clamped), so megabyte schemas pay more than one-line probes.
///   - Global and per-lane queue bounds; beyond either, `Submit`
///     returns kOverloaded and nothing is queued (load shed). The
///     `server/queue-full` failpoint forces this outcome.
///   - After `BeginDrain`, `Submit` returns kShuttingDown; everything
///     already admitted still runs to completion (`AwaitIdle`).
///
/// Execution happens via `ThreadPool::Post`, which always runs the
/// request on a pool worker. A pool of parallelism n owns n workers, so
/// the running-request cap (`max_concurrency`, the pool's parallelism)
/// admits exactly as many running requests as there are threads to run
/// them.
class RequestScheduler {
 public:
  struct Options {
    /// Global bound on queued (admitted, not yet running) requests.
    std::size_t max_queued = 256;
    /// Per-lane bound on queued requests.
    std::size_t max_queued_per_lane = 64;
  };

  /// Counter snapshot for the `stats` request and the tests.
  struct Stats {
    std::uint64_t submitted = 0;  ///< Admission attempts.
    std::uint64_t admitted = 0;
    std::uint64_t shed = 0;       ///< Refused with kOverloaded.
    std::uint64_t refused_draining = 0;  ///< Refused with kShuttingDown.
    std::uint64_t completed = 0;
    std::uint64_t queued_now = 0;
    std::uint64_t running_now = 0;
    std::uint64_t lanes_now = 0;
    std::uint64_t max_concurrency = 0;  ///< Effective running-request cap.

    std::string ToJson() const;
  };

  RequestScheduler(ThreadPool* pool, const Options& options);
  ~RequestScheduler();

  RequestScheduler(const RequestScheduler&) = delete;
  RequestScheduler& operator=(const RequestScheduler&) = delete;

  /// Creates lane `lane_id`.
  void OpenLane(std::uint64_t lane_id) CRSAT_EXCLUDES(mutex_);

  /// Removes `lane_id` once its queue is empty and nothing is in
  /// flight; queued work still runs first (call after the connection
  /// stops submitting).
  void CloseLane(std::uint64_t lane_id) CRSAT_EXCLUDES(mutex_);

  /// Admission + enqueue. `work` will run exactly once on the pool iff
  /// the return value is kOk; any other value means the request was
  /// refused and `work` was dropped. `cost_bytes` is the request payload
  /// size (fed into the DRR cost).
  ResponseStatus Submit(std::uint64_t lane_id, std::size_t cost_bytes,
                        std::function<void()> work) CRSAT_EXCLUDES(mutex_);

  /// Refuse all new work from now on (kShuttingDown); already-admitted
  /// requests keep running.
  void BeginDrain() CRSAT_EXCLUDES(mutex_);
  bool draining() const CRSAT_EXCLUDES(mutex_);

  /// Blocks until no request is queued or running.
  void AwaitIdle() CRSAT_EXCLUDES(mutex_);

  Stats stats() const CRSAT_EXCLUDES(mutex_);

 private:
  struct Lane {
    std::uint64_t id = 0;
    std::uint64_t deficit = 0;
    bool running = false;       ///< A request from this lane is in flight.
    bool in_ready_ring = false;
    std::deque<std::pair<std::uint64_t, std::function<void()>>> queue;
  };

  /// Pulls the next dispatchable (lane, work) under DRR, or returns
  /// false when at capacity / nothing ready.
  bool NextDispatchLocked(std::shared_ptr<Lane>* lane,
                          std::function<void()>* work)
      CRSAT_REQUIRES(mutex_);
  /// Posts every dispatchable request to the pool.
  void PumpLocked() CRSAT_REQUIRES(mutex_);
  void OnComplete(const std::shared_ptr<Lane>& lane) CRSAT_EXCLUDES(mutex_);

  ThreadPool* const pool_;
  const Options options_;

  mutable Mutex mutex_;
  CondVar idle_;  ///< Signaled when queued + running reaches zero.
  std::map<std::uint64_t, std::shared_ptr<Lane>> lanes_
      CRSAT_GUARDED_BY(mutex_);
  std::deque<std::shared_ptr<Lane>> ready_ring_ CRSAT_GUARDED_BY(mutex_);
  bool draining_ CRSAT_GUARDED_BY(mutex_) = false;
  std::size_t queued_total_ CRSAT_GUARDED_BY(mutex_) = 0;
  int running_total_ CRSAT_GUARDED_BY(mutex_) = 0;
  Stats counters_ CRSAT_GUARDED_BY(mutex_);
};

}  // namespace server
}  // namespace crsat

#endif  // CRSAT_SERVER_SCHEDULER_H_
