#include "exec/maintenance.h"

#include <algorithm>

#include "io/io_engine.h"

namespace auxlsm {

MaintenanceScheduler::MaintenanceScheduler(MaintenanceOptions options)
    : options_(options) {}

MaintenanceScheduler::~MaintenanceScheduler() {
  // Shut the merge queues down: remaining jobs still run (the owning
  // Dataset keeps its trees alive until after this destructor), then the
  // workers exit and are joined.
  {
    MutexLock l(merge_mu_);
    merge_stop_ = true;
  }
  merge_cv_.NotifyAll();
  for (auto& w : merge_workers_) w.join();
}

void MaintenanceScheduler::EnqueueMergeRound(std::vector<MergeJob> jobs) {
  jobs.erase(std::remove_if(jobs.begin(), jobs.end(),
                            [](const MergeJob& j) { return !j.work; }),
             jobs.end());
  if (jobs.empty()) return;
  MutexLock l(merge_mu_);
  auto remaining = std::make_shared<size_t>(jobs.size());
  merge_rounds_pending_++;
  merge_rounds_relaxed_.store(merge_rounds_pending_, std::memory_order_relaxed);
  for (auto& j : jobs) {
    auto [it, fresh] = merge_queues_.try_emplace(j.key);
    if (fresh) it->second.io_index = next_merge_queue_index_++;
    it->second.jobs.push_back(QueuedMergeJob{std::move(j.work), remaining});
    merge_jobs_pending_++;
  }
  // Merge work gets dedicated drain workers: lazily spawned, capped at one
  // per registered queue — a tree's queue can always drain even while every
  // other queue is stuck on a long merge, which is the "a backlogged merge
  // on one tree never blocks other trees' merges" guarantee. Queue count is
  // the dataset's tree count, so this stays a handful of mostly-parked
  // threads.
  size_t claimable = 0;
  for (const auto& [key, q] : merge_queues_) {
    (void)key;
    if (!q.draining && !q.jobs.empty()) claimable++;
  }
  size_t available = idle_merge_workers_;
  while (available < claimable &&
         merge_workers_.size() < merge_queues_.size()) {
    merge_workers_.emplace_back([this]() { MergeDrainLoop(); });
    available++;
  }
  merge_cv_.NotifyAll();
}

MaintenanceScheduler::MergeQueue* MaintenanceScheduler::ClaimQueueLocked() {
  for (auto& [key, q] : merge_queues_) {
    (void)key;
    if (!q.draining && !q.jobs.empty()) {
      q.draining = true;
      return &q;  // unordered_map references are stable across inserts
    }
  }
  return nullptr;
}

void MaintenanceScheduler::MergeDrainLoop() {
  // The drain loop cycles merge_mu_ around each job (locked while claiming,
  // unlocked while the job runs) — inexpressible with a scoped guard, so it
  // uses explicit annotated lock()/unlock() calls the analysis can follow.
  merge_mu_.lock();
  while (true) {
    MergeQueue* q = ClaimQueueLocked();
    if (q == nullptr) {
      if (merge_stop_) {
        merge_mu_.unlock();
        return;
      }
      idle_merge_workers_++;
      merge_cv_.Wait(merge_mu_);
      idle_merge_workers_--;
      continue;
    }
    // Drain this queue to empty; its jobs run strictly serially (the
    // per-tree merge serialization rule), newest-enqueued last.
    while (!q->jobs.empty()) {
      QueuedMergeJob job = std::move(q->jobs.front());
      q->jobs.pop_front();
      const uint32_t io_index = q->io_index;
      merge_mu_.unlock();
      Status st;
      {
        // Queue-aware device affinity, mirroring RunAll's task binding.
        IoQueueScope scope(options_.io, io_index);
        try {
          st = job.work();
        } catch (const std::exception& e) {
          // A throwing job must not wedge the queue: the pending-job and
          // pending-round counters below have to run no matter what, or
          // PendingMergeRounds() never drains and ingest backpressure
          // deadlocks.
          st = Status::Aborted(std::string("merge job threw: ") + e.what());
        } catch (...) {
          st = Status::Aborted("merge job threw");
        }
      }
      merge_mu_.lock();
      if (!st.ok() && merge_error_.ok()) {
        merge_error_ = st;
        has_merge_error_.store(true, std::memory_order_release);
      }
      merge_jobs_pending_--;
      if (--*job.round_remaining == 0) {
        merge_rounds_pending_--;
        merge_rounds_relaxed_.store(merge_rounds_pending_,
                                    std::memory_order_relaxed);
      }
      merge_cv_.NotifyAll();
    }
    q->draining = false;
    merge_cv_.NotifyAll();
  }
}

size_t MaintenanceScheduler::PendingMergeRounds() const {
  MutexLock l(merge_mu_);
  return merge_rounds_pending_;
}

size_t MaintenanceScheduler::PendingMergeJobs() const {
  MutexLock l(merge_mu_);
  return merge_jobs_pending_;
}

void MaintenanceScheduler::WaitForMergeRounds(size_t limit) {
  // Per-op ingest fast path: no backlog means no lock — writers only
  // contend on merge_mu_ once the queues are genuinely behind.
  if (merge_rounds_relaxed_.load(std::memory_order_relaxed) <= limit) return;
  MutexLock l(merge_mu_);
  while (merge_rounds_pending_ > limit && !merge_stop_) {
    merge_cv_.Wait(merge_mu_);
  }
}

Status MaintenanceScheduler::DrainMerges() {
  MutexLock l(merge_mu_);
  while (merge_jobs_pending_ != 0) merge_cv_.Wait(merge_mu_);
  return merge_error_;
}

Status MaintenanceScheduler::merge_error() const {
  MutexLock l(merge_mu_);
  return merge_error_;
}

Status MaintenanceScheduler::TakeMergeError() {
  MutexLock l(merge_mu_);
  Status s = merge_error_;
  merge_error_ = Status::OK();
  has_merge_error_.store(false, std::memory_order_release);
  return s;
}

Status MaintenanceScheduler::RunAll(
    std::vector<std::function<Status()>>&& tasks) {
  // Queue affinity: task i's I/O is charged to device queue (i % queues).
  // Simulated device concurrency needs no host concurrency: the tasks run
  // one after another, each on its own queue clock. With a single-queue
  // engine this is a no-op.
  IoEngine* io = options_.io;
  const bool bind = io != nullptr && io->num_queues() > 1 && tasks.size() > 1;
  Status first_error;
  for (size_t i = 0; i < tasks.size(); i++) {
    IoQueueScope scope(bind ? io : nullptr, uint32_t(i));
    const Status st = tasks[i]();
    if (first_error.ok() && !st.ok()) first_error = st;
  }
  return first_error;
}

}  // namespace auxlsm
