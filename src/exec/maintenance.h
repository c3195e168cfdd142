// Maintenance engine: runs the flushes and merges of a Dataset's index
// trees, binding each task to a device queue of the dataset's IoEngine.
//
// Architecture / threading model of src/exec/:
//
//   Dataset (core/dataset.cc)                      MaintenanceScheduler
//   ----------------------------------------       ------------------------
//   Callers own only a latch scope and a seal-window policy:
//     serial inline path: FlushAllLocked + RunMerges in one exclusive hold
//     MaintenanceCycle:   seal | build off-latch | install + fixup | merges
//   and share one implementation of each maintenance step:
//     SealFlushRound
//     BuildFlushRound    ── one task per sealed tree ──► RunAll
//     InstallFlushRound
//     RunMerges          ── one task per merge stream ─► RunAll
//     CorrelatedMerge    ── one task per tree ─────────► RunAll
//     EnqueueMergeWork   ── one job per merge stream ──► EnqueueMergeRound
//     MergeStep: retry + the merge failpoint around every single merge
//
//   RunAll runs its tasks inline, in order, on the calling thread (nested
//   RunAll calls, e.g. CorrelatedMerge inside a RunMerges task, simply run
//   inline too); EnqueueMergeRound feeds the per-tree merge queues
//   (decoupled mode). Every plain merge is one LsmTree::MergeComponents call
//   inside its tree's task.
//
//   - Work is split at *tree* granularity: the primary, primary-key,
//     secondary, and deleted-key trees each get their own flush and merge
//     task. Merges of one tree are never issued concurrently (per-tree
//     serialization): each tree's merge loop runs inside a single task.
//   - A large merge of one tree is split further only by key range: on a
//     multi-queue device LsmTree::MergeComponents reads it as key-range
//     partitions on the calling thread, each bound to its own device queue.
//   - Queue affinity: when MaintenanceOptions::io names a multi-queue
//     IoEngine, RunAll binds task i to device queue (i % queues) for the
//     task's duration (IoQueueScope), so the trees' flushes and merges
//     charge independent queue clocks and overlap in *simulated* time.
//     (Flush builds rebind inside their task to their tree's fixed slot.)
//     Modeled device concurrency needs no host concurrency, so the engine
//     behaves the same on every host. With a single-queue engine every
//     binding resolves to queue 0 — bit-for-bit the legacy single-head
//     charging.
//   - Shared state touched from tasks: Env's PageStore / IoEngine /
//     BufferCache (each internally synchronized), and each LsmTree's
//     components_ list (guarded by its components_mu_). Tasks run on the
//     ingesting thread, the background cycle thread or a merge drain
//     worker, concurrently with writers and readers; Dataset-level
//     counters (IngestStats) are relaxed atomics (common/stat_counter.h).
//   - Decoupled merge scheduling (PR 5): EnqueueMergeRound hands merge work
//     to per-tree FIFO queues drained by dedicated lazily-spawned drain
//     workers, so a long merge backlog can never delay the next flush
//     cycle. Jobs of one queue key run strictly serially (the per-tree
//     merge serialization rule above); distinct keys drain concurrently.
//     Each queue is bound to device queue (registration-index % io queues)
//     for its jobs' duration, mirroring RunAll's task-index affinity. A
//     *round* is the batch of jobs one flush cycle enqueues;
//     PendingMergeRounds() counts rounds not yet fully retired and is the
//     ingestion pipeline's bounded merge-backlog backpressure signal. The
//     first job error is sticky (merge_error / TakeMergeError) until
//     explicitly taken.
#pragma once

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace auxlsm {

class IoEngine;

struct MaintenanceOptions {
  /// Device engine for queue affinity: RunAll binds task i to device queue
  /// (i % queues). Null or single-queue = every task charges queue 0, the
  /// legacy single-head accounting.
  IoEngine* io = nullptr;
};

class MaintenanceScheduler {
 public:
  explicit MaintenanceScheduler(MaintenanceOptions options);
  ~MaintenanceScheduler();

  MaintenanceScheduler(const MaintenanceScheduler&) = delete;
  MaintenanceScheduler& operator=(const MaintenanceScheduler&) = delete;

  /// Runs every task inline, in order, task i bound to device queue
  /// (i % queues), and returns the first non-OK status. All tasks run to
  /// completion either way.
  Status RunAll(std::vector<std::function<Status()>>&& tasks);

  // --- Decoupled per-tree merge queues --------------------------------------
  /// Opaque serial-stream key: one tree (or one correlated-merge group).
  /// Jobs sharing a key never run concurrently and run in FIFO order.
  using MergeKey = const void*;
  struct MergeJob {
    MergeKey key = nullptr;
    std::function<Status()> work;
  };

  /// Enqueues one *round* of merge work (the batch one flush cycle hands
  /// over). Jobs are appended to their keys' FIFO queues and drained by
  /// dedicated merge workers, never by RunAll's caller. The round stays
  /// pending until every one of its jobs finished. Empty rounds are ignored.
  void EnqueueMergeRound(std::vector<MergeJob> jobs);

  /// Rounds whose jobs have not all finished — the merge-backlog depth the
  /// ingestion pipeline backpressures on.
  size_t PendingMergeRounds() const;
  /// Queued + running individual merge jobs (diagnostics / tests).
  size_t PendingMergeJobs() const;

  /// Blocks until PendingMergeRounds() <= limit (bounded backpressure: the
  /// caller waits out only the backlog *excess*, never a full drain). The
  /// common no-backlog case is lock-free — the mutex is only taken once the
  /// relaxed round count exceeds the limit.
  void WaitForMergeRounds(size_t limit);

  /// Blocks until every queue is empty and all jobs finished; returns the
  /// sticky first merge error (which stays sticky — see TakeMergeError).
  Status DrainMerges();

  /// Lock-free fast path for the per-op ingest check: true iff a merge job
  /// has failed since the last TakeMergeError(). Callers take merge_error()
  /// (which locks) only when this fires.
  bool has_merge_error() const {
    return has_merge_error_.load(std::memory_order_acquire);
  }
  /// First non-OK status of any merge job since the last TakeMergeError().
  Status merge_error() const;
  /// Returns and clears the sticky merge error.
  Status TakeMergeError();

 private:
  struct QueuedMergeJob {
    std::function<Status()> work;
    /// Shared per-round countdown (guarded by merge_mu_); the round retires
    /// when it reaches zero.
    std::shared_ptr<size_t> round_remaining;
  };
  struct MergeQueue {
    std::deque<QueuedMergeJob> jobs;
    bool draining = false;   ///< a worker is running this queue's jobs
    uint32_t io_index = 0;   ///< device-queue binding (registration order)
  };
  /// Long-lived merge drain worker: claims a non-draining queue with work,
  /// runs its jobs to empty (serially), repeats; exits on shutdown once no
  /// claimable work remains (the destructor drains the queues first).
  void MergeDrainLoop();
  MergeQueue* ClaimQueueLocked() REQUIRES(merge_mu_);

  MaintenanceOptions options_;

  // Merge-queue state (all guarded by merge_mu_ except where noted).
  mutable Mutex merge_mu_{lockrank::kLeaf, "exec.merge_mu"};
  CondVar merge_cv_;
  std::unordered_map<MergeKey, MergeQueue> merge_queues_ GUARDED_BY(merge_mu_);
  size_t merge_jobs_pending_ GUARDED_BY(merge_mu_) = 0;  // queued + running
  size_t merge_rounds_pending_ GUARDED_BY(merge_mu_) = 0;  // unfinished rounds
  /// Relaxed mirror of merge_rounds_pending_ for the per-op fast path.
  std::atomic<size_t> merge_rounds_relaxed_{0};
  size_t idle_merge_workers_ GUARDED_BY(merge_mu_) = 0;
  bool merge_stop_ GUARDED_BY(merge_mu_) = false;
  Status merge_error_ GUARDED_BY(merge_mu_);
  std::atomic<bool> has_merge_error_{false};  // mirrors merge_error_.ok()
  uint32_t next_merge_queue_index_ GUARDED_BY(merge_mu_) = 0;
  std::vector<std::thread> merge_workers_ GUARDED_BY(merge_mu_);
};

}  // namespace auxlsm
