#include "src/base/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>

#include "src/base/resource_guard.h"

namespace crsat {

namespace {

// Set for the lifetime of a pool worker thread, and on a ParallelFor
// caller while it drains its own loop; ParallelFor calls issued from
// such a thread run inline instead of re-entering the queue, so nested
// loops never take more than the pool's parallelism.
thread_local bool tls_on_pool_lane = false;

}  // namespace

// Shared state of one ParallelFor call. Owns a copy of the loop body so a
// helper task dequeued after the caller already drained every index (and
// returned) still touches only live memory. `mutex` guards the completion
// count; index claiming is lock-free through `next`.
struct ThreadPool::ForState {
  std::function<void(size_t)> fn;
  size_t n = 0;
  ResourceGuard* guard = nullptr;
  std::atomic<size_t> next{0};
  Mutex mutex;
  CondVar all_done;  // Signaled when `done` reaches `n`, under mutex.
  size_t done CRSAT_GUARDED_BY(mutex) = 0;

  void Drain() CRSAT_EXCLUDES(mutex) {
    size_t completed = 0;
    while (true) {
      const size_t index = next.fetch_add(1, std::memory_order_relaxed);
      if (index >= n) {
        break;
      }
      // Cooperative cancellation: once the guard trips, remaining items
      // are skipped (still counted as done, so the loop drains cleanly).
      if (guard == nullptr || guard->Check("thread_pool/parallel_for").ok()) {
        fn(index);
      }
      ++completed;
    }
    if (completed > 0) {
      MutexLock lock(mutex);
      done += completed;
      if (done == n) {
        all_done.NotifyAll();
      }
    }
  }
};

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(num_threads < 1 ? 1 : num_threads) {
  workers_.reserve(num_threads_);
  for (int i = 0; i < num_threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  wake_.NotifyAll();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::WorkerLoop() {
  tls_on_pool_lane = true;
  while (true) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      // Explicit predicate loop (not a wait-with-lambda): the analysis
      // treats a lambda body as an unlocked context, while here the
      // guarded reads stay visibly under `lock`.
      while (!stopping_ && tasks_.empty()) {
        wake_.Wait(lock);
      }
      if (tasks_.empty()) {
        return;  // Stopping and drained.
      }
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

void ThreadPool::Post(std::function<void()> task) {
  {
    MutexLock lock(mutex_);
    tasks_.push_back(std::move(task));
  }
  wake_.NotifyOne();
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                             ResourceGuard* guard) {
  if (n == 0) {
    return;
  }
  // Inline paths: trivial loops, single-lane pools, and nested calls
  // from a lane (which would otherwise oversubscribe the pool, or on a
  // worker deadlock waiting for the queue it is blocking).
  if (n == 1 || num_threads_ == 1 || tls_on_pool_lane) {
    for (size_t i = 0; i < n; ++i) {
      if (guard == nullptr || guard->Check("thread_pool/parallel_for").ok()) {
        fn(i);
      }
    }
    return;
  }
  auto state = std::make_shared<ForState>();
  state->fn = fn;
  state->n = n;
  state->guard = guard;
  // At most `num_threads_` lanes run the loop: the caller plus up to
  // `num_threads_ - 1` helper tasks.
  const size_t helpers = std::min<size_t>(num_threads_ - 1, n - 1);
  for (size_t i = 0; i < helpers; ++i) {
    Post([state] { state->Drain(); });
  }
  tls_on_pool_lane = true;  // The caller is a lane too.
  state->Drain();
  tls_on_pool_lane = false;
  MutexLock lock(state->mutex);
  while (state->done != state->n) {
    state->all_done.Wait(lock);
  }
}

int ThreadPool::DefaultThreadCount() {
  if (const char* env = std::getenv("CRSAT_THREADS")) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && parsed > 0 && parsed < 1024) {
      return static_cast<int>(parsed);
    }
  }
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 1 : static_cast<int>(hardware);
}

namespace {

// The global pool and the mutex that guards its (re)construction, as one
// annotated unit so the analysis ties the slot to its lock.
struct GlobalPoolState {
  Mutex mutex;
  std::unique_ptr<ThreadPool> pool CRSAT_GUARDED_BY(mutex);
};

GlobalPoolState& GlobalPool() {
  // By value (not leaked): the destructor joins the workers at exit, so
  // sanitizer legs see no lingering threads.
  static GlobalPoolState state;
  return state;
}

}  // namespace

ThreadPool& GlobalThreadPool() {
  GlobalPoolState& state = GlobalPool();
  MutexLock lock(state.mutex);
  if (!state.pool) {
    state.pool = std::make_unique<ThreadPool>(ThreadPool::DefaultThreadCount());
  }
  return *state.pool;
}

void SetGlobalThreadCount(int num_threads) {
  const int effective =
      num_threads <= 0 ? ThreadPool::DefaultThreadCount() : num_threads;
  GlobalPoolState& state = GlobalPool();
  MutexLock lock(state.mutex);
  if (state.pool && state.pool->num_threads() == effective) {
    return;
  }
  state.pool = std::make_unique<ThreadPool>(effective);
}

int GlobalThreadCount() { return GlobalThreadPool().num_threads(); }

}  // namespace crsat
