// Fixed-size worker-thread pool — the concurrency substrate of the parallel
// batch-execution engine (core/parallel_executor.hpp) and of the CloudQC
// placer's candidate sweep (through the lazily created shared() pool).
//
// Design constraints, in order:
//   1. Determinism support: the pool never decides *what* a task computes —
//      callers derive all per-task state from the task index (RNG streams
//      via stream_seed, or seeds drawn serially before the fan-out), so
//      results are independent of scheduling order.
//   2. Exception safety: submit() returns a std::future; a task that throws
//      stores the exception and parallel_for rethrows the lowest-index one.
//   3. Simplicity: one mutex + condition variable. The workloads this pool
//      runs (placement searches, network simulations) are milliseconds to
//      seconds each, so queue contention is irrelevant.
//
// Race-freedom is verified, not assumed: the tsan CI job runs the unit,
// integration and property test labels under ThreadSanitizer
// (-DCLOUDQC_TSAN=ON), so every cross-thread handoff here must
// happen-before through the queue mutex or a future — no lock-free
// cleverness without a matching tsan run.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

namespace cloudqc {

class ThreadPool {
 public:
  /// `num_threads <= 0` selects default_num_threads().
  explicit ThreadPool(int num_threads = 0);

  /// Blocks until every queued and running task has finished.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  /// Hardware concurrency, clamped to [1, 64].
  static int default_num_threads();

  /// Enqueue `fn` and return a future for its result. Exceptions thrown by
  /// `fn` are captured into the future.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      tasks_.push([task] { (*task)(); });
    }
    cv_.notify_one();
    return result;
  }

  /// Run fn(0) … fn(n-1) across the pool and block until all complete.
  /// If any invocations throw, the exception of the lowest index is
  /// rethrown (deterministic regardless of execution order). Safe to call
  /// from inside a task of any pool: nested calls run inline on the
  /// calling worker. Fanning them out into the same pool could deadlock
  /// (every worker waiting for queued subtasks no thread is free to run);
  /// fanning them into another pool would oversubscribe the cores, since
  /// the outer pool already keeps them busy. Results are unchanged either
  /// way since each index is independent.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// True when the calling thread is a worker of any ThreadPool.
  static bool on_any_worker_thread();

  /// The process-wide pool of default_num_threads() workers, created on
  /// the first call and joined at process exit. Library code that fans
  /// out without being handed a pool (the CloudQC placer's candidate
  /// sweep) runs here, so constructing such an object never starts a
  /// thread.
  static ThreadPool& shared();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace cloudqc
