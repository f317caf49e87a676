#include "support/thread_pool.h"

#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>

#ifdef __linux__
#include <pthread.h>
#endif

#include "support/strings.h"
#include "support/trace.h"

namespace cayman {

unsigned ThreadPool::defaultWorkers() {
  // Same strict parse as the --jobs flag (full consumption, [1, 1024]); a
  // malformed value falls back to hardware concurrency here because a
  // library has no usage-error channel — the CLI additionally validates the
  // variable up front and exits 2 on garbage.
  if (const char* env = std::getenv("CAYMAN_JOBS")) {
    if (std::optional<unsigned> jobs = parseJobs(env)) return *jobs;
  }
  unsigned hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 1 : hardware;
}

ThreadPool& ThreadPool::shared() {
  // Leaked: tasks submitted from static-destruction-order-unknown contexts
  // must never observe a destroyed pool. Starts at one worker — callers
  // grow it to their --jobs with ensureWorkers.
  static ThreadPool* pool = new ThreadPool(1);
  return *pool;
}

ThreadPool::ThreadPool(unsigned workers) { ensureWorkers(workers); }

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  // Workers exit only once the queue is empty, so every task queued before
  // shutdown still runs.
  for (std::thread& thread : threads_) thread.join();
}

unsigned ThreadPool::workers() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<unsigned>(threads_.size());
}

bool ThreadPool::stopping() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stopping_;
}

void ThreadPool::ensureWorkers(unsigned workers) {
  if (workers == 0) workers = 1;
  if (workers > kMaxWorkers) workers = kMaxWorkers;
  std::lock_guard<std::mutex> lock(mutex_);
  if (workers <= threads_.size()) return;
  for (unsigned i = static_cast<unsigned>(threads_.size()); i < workers; ++i) {
    threads_.emplace_back([this, i] { workerLoop(i); });
  }
  support::trace::gauge("pool.workers", workers);
}

void ThreadPool::enqueue(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      throw std::runtime_error(
          "ThreadPool::submit during shutdown: the task would never run");
    }
    queue_.push_back(std::move(fn));
  }
  support::trace::countGlobal("pool.tasks", 1);
  wake_.notify_one();
}

void ThreadPool::workerLoop(unsigned index) {
#ifdef __linux__
  // Visible in /proc, gdb, and perf; 15-char limit on Linux.
  std::string name = "cayman-w" + std::to_string(index);
  pthread_setname_np(pthread_self(), name.substr(0, 15).c_str());
#endif
  support::trace::setThreadLabel("pool-worker-" + std::to_string(index));
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    // Worker-occupancy span, orphan-buffered (wall-mode traces only): a
    // worker between tasks is never inside a TaskScope.
    support::trace::Span span("pool.task", "pool");
    task();
  }
}

}  // namespace cayman
