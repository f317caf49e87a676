// Fixed FIFO thread pool for the evaluation driver.
//
// One queue, one mutex, one condition variable: workers pop tasks in
// submission order, so a caller that enqueues its longest tasks first (the
// driver's LPT order) gets them started first. Workers grow but never
// shrink: ensureWorkers() lets one shared() process-wide pool be reused
// across driver and bench invocations instead of constructing (and tearing
// down) a pool per call.
//
// A task must not block on work it submits to its own pool: there is no
// helping wait, so on a pool whose workers are all blocked that way the
// submitted work never runs. The driver's tasks are whole workloads and
// submit nothing.
//
// Determinism contract: parallelIndexMap returns results in index order and
// surfaces the lowest-index exception. The pool's own counter (pool.tasks)
// and its pool.task spans are schedule-dependent and therefore recorded as
// *global* trace data — they never enter the deterministic per-task records,
// so metrics and traces stay byte-identical at any worker count.
//
// Shutdown: the destructor drains every queued task, then joins. submit()
// during or after shutdown throws std::runtime_error — a silently dropped
// task is a hang in the caller, a thrown one is a bug report.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace cayman {

class ThreadPool {
 public:
  /// Hard cap on workers; matches the CLI's --jobs upper bound.
  static constexpr unsigned kMaxWorkers = 1024;

  /// Workers to use when the caller does not say: CAYMAN_JOBS from the
  /// environment when set, else std::thread::hardware_concurrency, never 0.
  static unsigned defaultWorkers();

  /// The process-wide shared pool (deliberately leaked — tasks may still be
  /// draining when static destructors run). Starts with a single worker;
  /// grow it with ensureWorkers(jobs). It never shrinks, so once grown it
  /// runs even a one-at-a-time caller's tasks on any of its workers: a
  /// caller that must be serial runs its work itself (evaluateWorkloads
  /// does at jobs 1).
  static ThreadPool& shared();

  explicit ThreadPool(unsigned workers = defaultWorkers());
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned workers() const;

  /// Grows the pool to at least `workers` workers (never shrinks; capped at
  /// kMaxWorkers). Thread-safe; no-op when already large enough.
  void ensureWorkers(unsigned workers);

  /// True once destruction has begun (submit() would throw).
  bool stopping() const;

  /// Enqueues `fn` and returns its future. Exceptions thrown by `fn`
  /// propagate through the future. Throws std::runtime_error when the pool
  /// is stopping: enqueueing into a dead pool would silently never run.
  template <typename Fn>
  auto submit(Fn&& fn) -> std::future<std::invoke_result_t<std::decay_t<Fn>>> {
    using Result = std::invoke_result_t<std::decay_t<Fn>>;
    auto task =
        std::make_shared<std::packaged_task<Result()>>(std::forward<Fn>(fn));
    std::future<Result> future = task->get_future();
    enqueue([task] { (*task)(); });
    return future;
  }

 private:
  void enqueue(std::function<void()> fn);
  void workerLoop(unsigned index);

  mutable std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> threads_;
};

/// Runs fn(0), ..., fn(n - 1) on the pool and returns the results ordered by
/// index. The schedule is nondeterministic; the result vector is not.
/// `submitOrder`, when non-empty, must be a permutation of [0, n) and only
/// changes the order tasks are *enqueued* — and so, on the FIFO pool, the
/// order they start (e.g. LPT: longest first) — never the order of results
/// or which exception surfaces (always the lowest-index one, because futures
/// are consumed in index order).
template <typename Fn>
auto parallelIndexMap(ThreadPool& pool, size_t n, Fn fn,
                      const std::vector<size_t>& submitOrder = {})
    -> std::vector<std::invoke_result_t<Fn, size_t>> {
  using Result = std::invoke_result_t<Fn, size_t>;
  std::vector<std::future<Result>> futures(n);
  auto submitAt = [&](size_t i) {
    futures[i] = pool.submit([fn, i] { return fn(i); });
  };
  if (submitOrder.empty()) {
    for (size_t i = 0; i < n; ++i) submitAt(i);
  } else {
    for (size_t i : submitOrder) submitAt(i);
  }
  std::vector<Result> results;
  results.reserve(n);
  for (auto& future : futures) {
    results.push_back(future.get());
  }
  return results;
}

}  // namespace cayman
