#ifndef CRSAT_BASE_THREAD_POOL_H_
#define CRSAT_BASE_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "src/base/annotations.h"
#include "src/base/mutex.h"

namespace crsat {

class ResourceGuard;

/// Fixed-size task pool: crsatd runs its requests on it, and the reasoning
/// core fans the implied-cardinality report rows and saturation's
/// per-class decisions across it.
///
/// A pool of parallelism `n` owns `n` worker threads, so `Post` can keep
/// `n` tasks running at once (crsatd's `--threads N` means N requests
/// reasoning at once). `ParallelFor` uses exactly `n` lanes: the calling
/// thread plus at most `n - 1` helper tasks, so `ThreadPool(1)` runs its
/// loops inline. Nested `ParallelFor` calls issued from a loop body (on
/// any lane, the caller's included) or from a posted task run inline on
/// that thread (no deadlock, no oversubscription), so a loop body may
/// call library code that has parallel loops of its own.
///
/// Determinism contract: `ParallelFor` only schedules; callers that need
/// bit-identical results across thread counts must make their *work*
/// independent of scheduling (the implied-cardinality report collects
/// per-index rows and applies them in index order afterwards).
///
/// Lock discipline (statically checked under Clang `-Wthread-safety`):
/// `mutex_` guards the task queue and the stop flag; `wake_` signals
/// queue-not-empty or stopping. Workers never hold `mutex_` while running
/// a task.
class ThreadPool {
 public:
  /// Creates a pool of parallelism `num_threads` (clamped to >= 1).
  explicit ThreadPool(int num_threads);

  /// Joins all workers; pending tasks are drained first.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The pool's parallelism: its worker count, and the lane count of a
  /// `ParallelFor` (helpers + the calling thread).
  int num_threads() const { return num_threads_; }

  /// Runs `fn(0) .. fn(n - 1)`, distributing indices across the pool, and
  /// blocks until every call has returned. The calling thread executes
  /// work too. `fn` must be safe to invoke concurrently from multiple
  /// threads for distinct indices.
  ///
  /// When `guard` is non-null, every lane polls it between items
  /// (`ResourceGuard::Check`): once the guard trips, remaining items are
  /// *skipped* — never invoked — while the loop still drains cleanly (the
  /// call returns only after every index was either executed or skipped,
  /// and the pool is reusable afterwards). Callers detect skipped items by
  /// their unset per-index results and consult `guard->TripStatus()`.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                   ResourceGuard* guard = nullptr) CRSAT_EXCLUDES(mutex_);

  /// Fire-and-forget dispatch: hands `task` to a worker thread and
  /// returns immediately, never running it on the caller. Used by the
  /// crsatd request scheduler (src/server/scheduler.*) to run admitted
  /// requests on the reasoning pool, up to `num_threads()` at once;
  /// completion tracking is the caller's job.
  void Post(std::function<void()> task) CRSAT_EXCLUDES(mutex_);

  /// The parallelism requested by the environment: `CRSAT_THREADS` when it
  /// parses to a positive integer, otherwise `hardware_concurrency()`
  /// (never less than 1).
  static int DefaultThreadCount();

 private:
  struct ForState;

  void WorkerLoop() CRSAT_EXCLUDES(mutex_);

  const int num_threads_;
  std::vector<std::thread> workers_;
  Mutex mutex_;
  CondVar wake_;  // Signaled on enqueue and on stop, under mutex_.
  std::deque<std::function<void()>> tasks_ CRSAT_GUARDED_BY(mutex_);
  bool stopping_ CRSAT_GUARDED_BY(mutex_) = false;
};

/// The process-wide pool used by the reasoning core. Lazily constructed at
/// `DefaultThreadCount()` parallelism on first use.
ThreadPool& GlobalThreadPool();

/// Replaces the global pool with one of parallelism `num_threads`
/// (`num_threads <= 0` means `DefaultThreadCount()`).
///
/// Ordering contract (load-bearing for daemon use): the swap destroys the
/// old pool, which *joins its workers* — so this call must happen-before
/// any `ParallelFor`/`Post` that should run at the new parallelism, and
/// must never race with in-flight work on the old pool (a task still
/// executing there would be joined mid-dispatch). One-shot CLI commands
/// call it once at startup; `crsat_cli serve` resolves `--threads` /
/// `CRSAT_THREADS` and calls this *before* the listener accepts its first
/// connection, after which the count is frozen for the daemon's lifetime
/// (the `stats` request reports the effective value). Tests may call it
/// between (never during) dispatches.
void SetGlobalThreadCount(int num_threads);

/// The global pool's current parallelism (constructs the pool if needed).
int GlobalThreadCount();

}  // namespace crsat

#endif  // CRSAT_BASE_THREAD_POOL_H_
