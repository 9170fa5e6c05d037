#ifndef CRSAT_BASE_MUTEX_H_
#define CRSAT_BASE_MUTEX_H_

// Annotated mutex wrappers for Clang thread-safety analysis
// (src/base/annotations.h). libstdc++'s `std::mutex`/`std::lock_guard`
// carry no capability attributes, so state guarded by a bare `std::mutex`
// is invisible to `-Wthread-safety`; crsat's concurrency surfaces use
// these zero-overhead wrappers instead. Condition variables pair with
// `MutexLock` through `std::condition_variable_any` (any BasicLockable),
// so waits keep the scoped capability visible to the analysis.

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "src/base/annotations.h"

namespace crsat {

/// An annotated `std::mutex`: a thread-safety *capability*. Prefer
/// `MutexLock` over calling `lock()`/`unlock()` directly.
class CRSAT_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() CRSAT_ACQUIRE() { mutex_.lock(); }
  void unlock() CRSAT_RELEASE() { mutex_.unlock(); }
  bool try_lock() CRSAT_TRY_ACQUIRE(true) { return mutex_.try_lock(); }

 private:
  std::mutex mutex_;
};

/// RAII lock over a `Mutex`, annotated as a scoped capability. Also a
/// BasicLockable (`lock()`/`unlock()`), so `std::condition_variable_any`
/// can release and reacquire it inside `wait` — the analysis sees the
/// capability held across the wait, which matches the caller's view.
class CRSAT_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) CRSAT_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~MutexLock() CRSAT_RELEASE() { mutex_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// For `std::condition_variable_any` only (it unlocks around the block
  /// and relocks before returning); user code should rely on RAII.
  void lock() CRSAT_ACQUIRE() { mutex_.lock(); }
  void unlock() CRSAT_RELEASE() { mutex_.unlock(); }

 private:
  Mutex& mutex_;
};

/// The condition variable that pairs with `Mutex`/`MutexLock`. Waits take
/// the `MutexLock` itself, keeping the capability visible to the
/// thread-safety analysis; use explicit `while (!predicate) cv.Wait(lock)`
/// loops rather than predicate lambdas (a lambda body is analyzed as an
/// unlocked context and would defeat `CRSAT_GUARDED_BY`).
class CondVar {
 public:
  void Wait(MutexLock& lock) { cv_.wait(lock); }
  /// `Wait` that gives up at `deadline`; false when it timed out.
  bool WaitUntil(MutexLock& lock,
                 std::chrono::steady_clock::time_point deadline) {
    return cv_.wait_until(lock, deadline) == std::cv_status::no_timeout;
  }
  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace crsat

#endif  // CRSAT_BASE_MUTEX_H_
