#include "exec/maintenance.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "exec/thread_pool.h"
#include "io/io_engine.h"

namespace auxlsm {

MaintenanceScheduler::MaintenanceScheduler(MaintenanceOptions options)
    : options_(options) {
  threads_ = options_.threads;
  if (threads_ == 0) {
    threads_ = std::max(1u, std::thread::hardware_concurrency());
  }
}

MaintenanceScheduler::~MaintenanceScheduler() {
  // Shut the merge queues down like ThreadPool: remaining jobs still run
  // (the owning Dataset keeps its trees alive until after this destructor),
  // then the workers exit and are joined.
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
  // Merge work gets dedicated drain workers (never the flush pool): lazily
  // spawned, capped at one per registered queue — a tree's queue can always
  // drain even while every other queue is stuck on a long merge, which is
  // the "a backlogged merge on one tree never blocks other trees' merges"
  // guarantee. Queue count is the dataset's tree count, so this stays a
  // handful of mostly-parked threads even on a serial engine.
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

ThreadPool* MaintenanceScheduler::pool() {
  if (threads_ <= 1) return nullptr;
  MutexLock l(pool_mu_);
  if (pool_ == nullptr) pool_ = std::make_unique<ThreadPool>(threads_);
  return pool_.get();
}

size_t MaintenanceScheduler::PoolQueueDepth() {
  MutexLock l(pool_mu_);
  return pool_ == nullptr ? 0 : pool_->QueueDepth();
}

size_t MaintenanceScheduler::partitions() const {
  return options_.merge_partitions == 0 ? threads_
                                        : options_.merge_partitions;
}

Status MaintenanceScheduler::WaitAll(
    std::vector<std::future<Status>>& futures) {
  ThreadPool* p = pool();
  Status first_error;
  for (auto& f : futures) {
    // Help drain the pool queue while waiting, so tasks that themselves
    // fanned out (nested merges) cannot starve on a fully blocked pool.
    while (f.wait_for(std::chrono::seconds(0)) !=
           std::future_status::ready) {
      if (!p->RunOneQueued()) {
        f.wait_for(std::chrono::milliseconds(1));
      }
    }
    const Status st = f.get();
    if (first_error.ok() && !st.ok()) first_error = st;
  }
  return first_error;
}

Status MaintenanceScheduler::RunAll(
    std::vector<std::function<Status()>>&& tasks) {
  if (tasks.empty()) return Status::OK();
  // Queue affinity: task i's I/O is charged to device queue (i % queues).
  // Binding travels with the task (not the worker), so the mapping is
  // deterministic under helping/stealing, and it applies on the inline
  // serial path too — simulated device concurrency is independent of host
  // concurrency. With a single-queue engine this is a no-op.
  IoEngine* io = options_.io;
  const bool bind = io != nullptr && io->num_queues() > 1 && tasks.size() > 1;
  if (bind) {
    for (size_t i = 0; i < tasks.size(); i++) {
      tasks[i] = [io, i, task = std::move(tasks[i])]() {
        IoQueueScope scope(io, uint32_t(i));
        return task();
      };
    }
  }
  if (!parallel() || tasks.size() == 1) {
    Status first_error;
    for (auto& t : tasks) {
      const Status st = t();
      if (first_error.ok() && !st.ok()) first_error = st;
    }
    return first_error;
  }
  ThreadPool* p = pool();
  std::vector<std::future<Status>> futures;
  futures.reserve(tasks.size());
  for (auto& t : tasks) {
    futures.push_back(p->Submit(std::move(t)));
  }
  return WaitAll(futures);
}

Status MaintenanceScheduler::MergeComponents(
    LsmTree* tree, const std::vector<DiskComponentPtr>& picked) {
  if (picked.empty()) return Status::OK();
  uint64_t total_bytes = 0;
  for (const auto& c : picked) total_bytes += c->size_bytes();
  const size_t parts = partitions();
  if (!parallel() || parts < 2 || picked.size() < 2 ||
      total_bytes < options_.partition_min_bytes) {
    return tree->MergeComponents(picked);
  }

  // Partition boundaries: evenly spaced leaf first-keys of the largest
  // input, which dominates the merge's key distribution.
  const DiskComponentPtr* largest = &picked.front();
  for (const auto& c : picked) {
    if (c->size_bytes() > (*largest)->size_bytes()) largest = &c;
  }
  std::vector<std::string> splits;
  AUXLSM_RETURN_NOT_OK(
      (*largest)->tree().ApproximateSplitKeys(parts, &splits));
  if (splits.empty()) return tree->MergeComponents(picked);

  const bool includes_oldest = tree->IsOldestComponent(picked.back());
  const uint32_t readahead = tree->options().scan_readahead_pages;

  // Scan partition i = keys in [splits[i-1], splits[i]) — reconciled and
  // bitmap/anti-matter filtered exactly as a whole-range merge would. The
  // partition outputs are buffered in memory until the stitch, so peak
  // memory is O(merge output); merges are bounded by the policy's
  // max_mergeable_bytes, and partition_min_bytes keeps small merges on the
  // streaming serial path. Spilling partitions to temp files would lift the
  // bound for unbounded full merges (see ROADMAP open items).
  const size_t n_parts = splits.size() + 1;
  std::vector<std::vector<OwnedEntry>> part_entries(n_parts);
  auto scan_part = [&, includes_oldest, readahead](size_t i) -> Status {
    MergeCursor::Options mo;
    mo.readahead_pages = readahead;
    mo.respect_bitmaps = true;
    mo.drop_antimatter = includes_oldest;
    mo.fill_cache = false;  // the merge retires its inputs
    if (i > 0) mo.lower_bound = splits[i - 1];
    if (i < splits.size()) {
      mo.upper_bound = splits[i];
      mo.upper_bound_exclusive = true;  // partition i+1 owns splits[i]
    }
    MergeCursor cursor(picked, mo);
    AUXLSM_RETURN_NOT_OK(cursor.Init());
    std::vector<OwnedEntry>& out = part_entries[i];
    while (cursor.Valid()) {
      OwnedEntry e;
      e.key = cursor.key().ToString();
      e.value = cursor.value().ToString();
      e.ts = cursor.ts();
      e.antimatter = cursor.antimatter();
      out.push_back(std::move(e));
      AUXLSM_RETURN_NOT_OK(cursor.Next());
    }
    return Status::OK();
  };

  std::vector<std::function<Status()>> tasks;
  tasks.reserve(n_parts);
  for (size_t i = 0; i < n_parts; i++) {
    tasks.push_back([&scan_part, i]() { return scan_part(i); });
  }
  AUXLSM_RETURN_NOT_OK(RunAll(std::move(tasks)));

  // Stitch: feed the partition outputs, in key order, to one component
  // build. MergeFromStream re-applies repaired-ts and range-filter rules.
  size_t pi = 0, ei = 0;
  auto next = [&](OwnedEntry* e) {
    while (pi < part_entries.size() && ei >= part_entries[pi].size()) {
      part_entries[pi].clear();
      part_entries[pi].shrink_to_fit();
      pi++;
      ei = 0;
    }
    if (pi >= part_entries.size()) return false;
    *e = std::move(part_entries[pi][ei++]);
    return true;
  };
  return tree->MergeFromStream(picked, next);
}

}  // namespace auxlsm
