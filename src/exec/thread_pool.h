// Fixed-size worker pool backing the request server's worker_threads
// (server/server.h): per-connection batches fan out over its workers.
//
// Threading model:
//   - ThreadPool owns N OS threads that pop tasks from one FIFO queue guarded
//     by queue_mu_. Submit() may be called from any thread, including from a
//     task already running on the pool (tasks must not *block* on tasks they
//     submitted unless spare workers exist).
//   - Exceptions thrown by a task are captured in the task's future and
//     rethrown at get(); workers never die from a task exception.
//   - The destructor drains the queue (runs every submitted task) before
//     joining, so callers may drop a pool without waiting on every future.
#pragma once

#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace auxlsm {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return threads_.size(); }

  /// Enqueues a callable; returns a future for its result. A thrown
  /// exception propagates through the future.
  template <typename F>
  auto Submit(F&& f) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> future = task->get_future();
    {
      MutexLock l(queue_mu_);
      queue_.emplace_back([task]() { (*task)(); });
    }
    queue_cv_.NotifyOne();
    return future;
  }

 private:
  void WorkerLoop();

  Mutex queue_mu_{lockrank::kPoolQueue, "threadpool.queue"};
  CondVar queue_cv_;
  std::deque<std::function<void()>> queue_ GUARDED_BY(queue_mu_);
  bool stop_ GUARDED_BY(queue_mu_) = false;
  std::vector<std::thread> threads_;
};

}  // namespace auxlsm
