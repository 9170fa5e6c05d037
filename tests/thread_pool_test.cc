// Tests for the fixed-size task pool backing the reasoner's parallel LP
// probes (src/base/thread_pool.h).

#include "src/base/thread_pool.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/mutex.h"

namespace crsat {
namespace {

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> visits(kN);
  pool.ParallelFor(kN, [&](size_t i) {
    visits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ZeroAndSingleIterationRunInline) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(0, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.ParallelFor(1, [&](size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, SingleThreadPoolRunsLoopsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  std::vector<int> order;
  // One lane: every index runs inline on the caller, in order.
  pool.ParallelFor(5, [&](size_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(3);
  constexpr size_t kOuter = 8;
  constexpr size_t kInner = 8;
  std::vector<std::atomic<int>> counts(kOuter * kInner);
  pool.ParallelFor(kOuter, [&](size_t i) {
    // A worker that re-enters ParallelFor must not wait on its own pool.
    pool.ParallelFor(kInner, [&](size_t j) {
      counts[i * kInner + j].fetch_add(1, std::memory_order_relaxed);
    });
  });
  for (size_t k = 0; k < counts.size(); ++k) {
    EXPECT_EQ(counts[k].load(), 1) << "cell " << k;
  }
}

TEST(ThreadPoolTest, ParallelForSumsMatchSerial) {
  ThreadPool pool(4);
  constexpr size_t kN = 4096;
  std::vector<long> values(kN);
  pool.ParallelFor(kN, [&](size_t i) {
    values[i] = static_cast<long>(i) * 3 - 7;
  });
  long expected = 0;
  for (size_t i = 0; i < kN; ++i) {
    expected += static_cast<long>(i) * 3 - 7;
  }
  EXPECT_EQ(std::accumulate(values.begin(), values.end(), 0L), expected);
}

TEST(ThreadPoolTest, DefaultThreadCountHonorsEnvironment) {
  ASSERT_EQ(setenv("CRSAT_THREADS", "3", /*overwrite=*/1), 0);
  EXPECT_EQ(ThreadPool::DefaultThreadCount(), 3);
  ASSERT_EQ(setenv("CRSAT_THREADS", "garbage", 1), 0);
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1);  // Falls back to hardware.
  ASSERT_EQ(setenv("CRSAT_THREADS", "0", 1), 0);
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1);
  ASSERT_EQ(unsetenv("CRSAT_THREADS"), 0);
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1);
}

TEST(ThreadPoolTest, GlobalPoolRespectsSetGlobalThreadCount) {
  SetGlobalThreadCount(2);
  EXPECT_EQ(GlobalThreadCount(), 2);
  EXPECT_EQ(GlobalThreadPool().num_threads(), 2);
  SetGlobalThreadCount(1);
  EXPECT_EQ(GlobalThreadCount(), 1);
  // 0 = auto.
  SetGlobalThreadCount(0);
  EXPECT_EQ(GlobalThreadCount(), ThreadPool::DefaultThreadCount());
}

TEST(ThreadPoolTest, PostRunsEveryTaskExactlyOnce) {
  // Fire-and-forget dispatch (the crsatd scheduler's path onto the
  // pool): every posted task runs once; the destructor drains the queue
  // before joining, so nothing is lost at teardown.
  std::atomic<int> ran{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 500; ++i) {
      pool.Post([&] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
  }
  EXPECT_EQ(ran.load(), 500);
}

TEST(ThreadPoolTest, PostOnParallelismOneRunsOnItsWorker) {
  // A pool of parallelism 1 owns one worker: Post hands the task to it
  // and never runs it on the calling thread (the crsatd scheduler posts
  // while holding its own lock).
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  Mutex mutex;
  CondVar ran_cv;
  int runs = 0;
  std::thread::id ran_on;
  pool.Post([&] {
    MutexLock lock(mutex);
    ran_on = std::this_thread::get_id();
    ++runs;
    ran_cv.NotifyAll();
  });
  MutexLock lock(mutex);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (runs == 0) {
    if (!ran_cv.WaitUntil(lock, deadline)) {
      break;
    }
  }
  EXPECT_EQ(runs, 1);
  EXPECT_NE(ran_on, caller);
}

TEST(ThreadPoolTest, ParallelForNeverExceedsThePoolsParallelism) {
  // A pool of parallelism n owns n workers, but a ParallelFor still runs
  // on n lanes at most (the caller plus n - 1 helpers), nested loops
  // included, so the reasoner's probe and implication fan-out stays what
  // it was.
  for (const int parallelism : {1, 2, 4}) {
    ThreadPool pool(parallelism);
    std::atomic<int> running{0};
    std::atomic<int> peak{0};
    const auto body = [&](size_t) {
      const int now = running.fetch_add(1) + 1;
      int seen = peak.load();
      while (now > seen && !peak.compare_exchange_weak(seen, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      running.fetch_sub(1);
    };
    pool.ParallelFor(64, body);
    EXPECT_LE(peak.load(), parallelism) << "flat, parallelism " << parallelism;
    EXPECT_GE(peak.load(), 1);

    // Every lane, the caller's included, runs its nested loops inline.
    peak.store(0);
    pool.ParallelFor(2 * static_cast<size_t>(parallelism),
                     [&](size_t) { pool.ParallelFor(8, body); });
    EXPECT_LE(peak.load(), parallelism)
        << "nested, parallelism " << parallelism;
  }
}

TEST(ThreadPoolTest, PostOnWorkersRunsOffTheCallingThread) {
  ThreadPool pool(2);
  std::atomic<bool> done{false};
  std::atomic<bool> off_thread{false};
  const std::thread::id caller = std::this_thread::get_id();
  pool.Post([&] {
    off_thread.store(std::this_thread::get_id() != caller);
    done.store(true);
  });
  while (!done.load()) {
    std::this_thread::yield();
  }
  EXPECT_TRUE(off_thread.load());
}

TEST(ThreadPoolTest, ManyConcurrentSmallLoops) {
  ThreadPool pool(4);
  for (int iteration = 0; iteration < 200; ++iteration) {
    std::atomic<int> sum{0};
    pool.ParallelFor(7, [&](size_t i) {
      sum.fetch_add(static_cast<int>(i), std::memory_order_relaxed);
    });
    ASSERT_EQ(sum.load(), 21);
  }
}

}  // namespace
}  // namespace crsat
