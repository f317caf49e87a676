// Tests for the support thread pool: future plumbing, ordered parallel
// maps, exception propagation, and concurrent-submission stress (the TSan
// CI job runs this binary).
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "support/error.h"
#include "support/thread_pool.h"

namespace cayman {
namespace {

TEST(ThreadPoolTest, SubmitReturnsValueThroughFuture) {
  ThreadPool pool(2);
  std::future<int> future = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPoolTest, DefaultWorkersIsNeverZero) {
  EXPECT_GE(ThreadPool::defaultWorkers(), 1u);
  ThreadPool zero(0);  // clamped, not rejected
  EXPECT_EQ(zero.workers(), 1u);
}

TEST(ThreadPoolTest, MoreWorkersThanCoresIsFine) {
  ThreadPool pool(8);
  EXPECT_EQ(pool.workers(), 8u);
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.submit([&ran] { ++ran; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPoolTest, ManyTasksAllComplete) {
  ThreadPool pool(4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 1000; ++i) {
    futures.push_back(pool.submit([i] { return i; }));
  }
  long long sum = 0;
  for (auto& f : futures) sum += f.get();
  EXPECT_EQ(sum, 999LL * 1000 / 2);
}

TEST(ThreadPoolTest, ParallelIndexMapPreservesOrder) {
  ThreadPool pool(4);
  std::vector<size_t> results =
      parallelIndexMap(pool, 257, [](size_t i) { return i * i; });
  ASSERT_EQ(results.size(), 257u);
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], i * i);
  }
}

TEST(ThreadPoolTest, ParallelIndexMapMatchesSequentialExactly) {
  // The determinism contract: a pure fn(i) yields the same vector whether
  // the pool has 1 worker or many.
  auto fn = [](size_t i) {
    double x = 1.0;
    for (size_t k = 0; k < i % 17; ++k) x = x * 1.5 + static_cast<double>(i);
    return x;
  };
  ThreadPool one(1);
  ThreadPool many(8);
  std::vector<double> sequential = parallelIndexMap(one, 300, fn);
  std::vector<double> parallel = parallelIndexMap(many, 300, fn);
  ASSERT_EQ(sequential.size(), parallel.size());
  for (size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_EQ(sequential[i], parallel[i]);  // bit-identical, no tolerance
  }
}

TEST(ThreadPoolTest, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  std::future<int> future =
      pool.submit([]() -> int { throw Error("task failed"); });
  EXPECT_THROW(future.get(), Error);
  // The pool survives a throwing task.
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPoolTest, ConcurrentSubmittersStress) {
  ThreadPool pool(4);
  std::atomic<long long> total{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&pool, &total] {
      std::vector<std::future<int>> futures;
      for (int i = 1; i <= 100; ++i) {
        futures.push_back(pool.submit([i] { return i; }));
      }
      for (auto& f : futures) total += f.get();
    });
  }
  for (std::thread& t : submitters) t.join();
  EXPECT_EQ(total.load(), 4LL * 100 * 101 / 2);
}

TEST(ThreadPoolTest, ParallelIndexMapSurfacesFirstErrorByIndex) {
  ThreadPool pool(4);
  // Several indices fail; parallelIndexMap collects futures in index order,
  // so the caller must see index 3's error, never index 7's, regardless of
  // which worker throws first in wall-clock time.
  try {
    parallelIndexMap(pool, 16, [](size_t i) -> int {
      if (i == 3) throw Error("boom at 3");
      if (i == 7) throw Error("boom at 7");
      return static_cast<int>(i);
    });
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "boom at 3");
  }
  // Abandoned sibling futures (including the other throwing one) must not
  // deadlock or poison the pool.
  EXPECT_EQ(pool.submit([] { return 11; }).get(), 11);
}

// Both exception-propagation tests join the pool (scope exit) before
// calling get(): reading a rethrown exception while the worker drops its
// last reference to the future's shared state races on the exception
// storage as far as TSan can see (the refcount ordering lives inside
// uninstrumented libstdc++), and the join supplies an explicit
// happens-before.
TEST(ThreadPoolTest, EveryTaskThrowingDoesNotDeadlock) {
  std::vector<std::future<int>> futures;
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      futures.push_back(pool.submit([]() -> int { throw Error("always"); }));
    }
    // Still usable while the throwing tasks drain.
    EXPECT_EQ(pool.submit([] { return 5; }).get(), 5);
  }
  int caught = 0;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (const Error&) {
      ++caught;
    }
  }
  EXPECT_EQ(caught, 64);
}

TEST(ThreadPoolTest, NonStdExceptionPropagatesThroughFuture) {
  std::future<int> future;
  {
    ThreadPool pool(2);
    future = pool.submit([]() -> int { throw 42; });
    EXPECT_EQ(pool.submit([] { return 6; }).get(), 6);
  }
  try {
    future.get();
    FAIL() << "expected int exception";
  } catch (int value) {
    EXPECT_EQ(value, 42);
  }
}

TEST(ThreadPoolTest, DestructorDrainsPendingWork) {
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futures;
  {
    ThreadPool pool(2);
    for (int i = 0; i < 32; ++i) {
      futures.push_back(pool.submit([&ran] { ++ran; }));
    }
  }  // destructor joins after the queue drains
  for (auto& f : futures) f.get();
  EXPECT_EQ(ran.load(), 32);
}

TEST(ThreadPoolTest, SubmitDuringShutdownThrows) {
  // A task still running while the destructor drains must see submit()
  // throw, not have its subtask silently dropped (a dropped task is a hang
  // in the submitter). The pool object stays alive until the destructor
  // returns, and the destructor joins the workers, so the capture is safe.
  std::atomic<bool> sawThrow{false};
  std::atomic<bool> taskStarted{false};
  {
    ThreadPool pool(1);
    pool.submit([&pool, &sawThrow, &taskStarted] {
      taskStarted.store(true);
      while (!pool.stopping()) std::this_thread::yield();
      try {
        pool.submit([] {});
      } catch (const std::runtime_error&) {
        sawThrow.store(true);
      }
    });
    while (!taskStarted.load()) std::this_thread::yield();
  }
  EXPECT_TRUE(sawThrow.load());
}

TEST(ThreadPoolTest, EnsureWorkersGrowsButNeverShrinks) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.workers(), 1u);
  pool.ensureWorkers(4);
  EXPECT_EQ(pool.workers(), 4u);
  pool.ensureWorkers(2);  // no-op: never shrinks
  EXPECT_EQ(pool.workers(), 4u);
  pool.ensureWorkers(4);  // no-op: already there
  EXPECT_EQ(pool.workers(), 4u);
  // The grown pool still runs work on every path.
  std::vector<int> results = parallelIndexMap(
      pool, 64, [](size_t i) { return static_cast<int>(i) * 2; });
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], static_cast<int>(i) * 2);
  }
}

TEST(ThreadPoolTest, SharedPoolIsAProcessSingletonThatGrows) {
  ThreadPool& a = ThreadPool::shared();
  ThreadPool& b = ThreadPool::shared();
  EXPECT_EQ(&a, &b);
  unsigned before = a.workers();
  a.ensureWorkers(before + 1);
  EXPECT_GE(ThreadPool::shared().workers(), before + 1);
  EXPECT_EQ(a.submit([] { return 3; }).get(), 3);
}

TEST(ThreadPoolTest, ParallelIndexMapSubmitOrderOnlyChangesEnqueue) {
  ThreadPool pool(4);
  std::vector<size_t> reversed(100);
  for (size_t i = 0; i < reversed.size(); ++i) {
    reversed[i] = reversed.size() - 1 - i;
  }
  std::vector<size_t> results = parallelIndexMap(
      pool, 100, [](size_t i) { return i * 3; }, reversed);
  ASSERT_EQ(results.size(), 100u);
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], i * 3);  // index order, not submit order
  }
  // The lowest-index exception surfaces even when it was enqueued last.
  try {
    parallelIndexMap(
        pool, 8,
        [](size_t i) -> int {
          if (i == 1) throw Error("boom at 1");
          if (i == 6) throw Error("boom at 6");
          return 0;
        },
        reversed = {7, 6, 5, 4, 3, 2, 1, 0});
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "boom at 1");
  }
}

TEST(ThreadPoolTest, OneWorkerRunsTasksInSubmitOrder) {
  // The FIFO property the driver's LPT order relies on: on one worker,
  // tasks start exactly in submitOrder, not in index order.
  ThreadPool pool(1);
  const std::vector<size_t> order = {5, 2, 7, 0, 3, 6, 1, 4};
  std::mutex mutex;
  std::vector<size_t> ran;
  std::vector<size_t> results = parallelIndexMap(
      pool, order.size(),
      [&](size_t i) {
        std::lock_guard<std::mutex> lock(mutex);
        ran.push_back(i);
        return i;
      },
      order);
  EXPECT_EQ(ran, order);
  for (size_t i = 0; i < results.size(); ++i) EXPECT_EQ(results[i], i);
}

}  // namespace
}  // namespace cayman
