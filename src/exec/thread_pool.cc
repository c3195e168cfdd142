#include "exec/thread_pool.h"

#include <algorithm>

namespace auxlsm {

ThreadPool::ThreadPool(size_t num_threads) {
  num_threads = std::max<size_t>(1, num_threads);
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; i++) {
    threads_.emplace_back([this]() { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock l(queue_mu_);
    stop_ = true;
  }
  queue_cv_.NotifyAll();
  for (auto& t : threads_) t.join();
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      MutexLock l(queue_mu_);
      while (!stop_ && queue_.empty()) queue_cv_.Wait(queue_mu_);
      // Drain remaining tasks even after stop: every Submit() promised a
      // future that must eventually be fulfilled.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // packaged_task captures any exception in the future
  }
}

}  // namespace auxlsm
