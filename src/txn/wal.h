// Write-ahead log. The paper's setup dedicates a separate disk to logging
// (§6.1); we model the log as an append-only byte stream with sequential
// write cost charged to its own IoEngine (io/io_engine.h), so log I/O never
// perturbs the storage device's sequential/random accounting. The log device
// defaults to one queue — bit-for-bit the legacy single-head DiskModel — but
// can be built from a multi-queue DeviceProfile, in which case each group
// commit's sync is charged to the syncing committer's bound queue and syncs
// made from different queues overlap in modeled time.
//
// Group commit (the multi-writer ingestion pipeline) batches through a
// commit window: the set of in-flight auto-commit ingest ops. An op joins
// the window once it holds its record lock (JoinCommitWindow) and leaves it
// when its commit record is appended, or when it aborts or fails
// (LeaveCommitWindow). A committer that finds the window empty after
// appending charges the one modeled sync that covers every record appended
// so far and wakes the waiters; a committer that finds it occupied waits on
// the condition variable until the last member in syncs for it. A batch
// therefore forms only when ops overlap in wall time: with several writers
// on several cores it does, but on one CPU a writer rarely leaves its op
// mid-way, the window is usually empty at commit, and each commit syncs on
// its own. Window members hold their only record lock and the shared ingest
// latch, so they never wait on a waiting committer, and the window always
// drains. Commits that are not members (explicit transactions, maintenance
// transactions) wait for the window the same way. Every commit's modeled
// latency — the log device's virtual time from the commit's append to its
// batch's sync completion — is accumulated in WalStats. With group commit
// off (writer_threads == 1), AppendCommit is exactly Append: no syncs are
// charged, bit-for-bit the legacy serial behavior, and nothing joins the
// window.
//
// The log survives a simulated crash (tests drop the Dataset but keep the
// Wal + Env), which is what recovery replays from.
#pragma once

#include <deque>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "env/disk_model.h"
#include "io/io_engine.h"
#include "txn/log_record.h"

namespace auxlsm {

class FaultInjector;

namespace obs {
class MetricsRegistry;
class Histogram;
class Tracer;
}  // namespace obs

struct WalStats {
  uint64_t records = 0;          ///< log records appended
  uint64_t commits = 0;          ///< AppendCommit calls
  uint64_t syncs = 0;            ///< modeled log-device flushes
  uint64_t batched_commits = 0;  ///< commits made durable by another's sync
  /// Modeled commit latency (group commit only): log-device virtual time
  /// from a commit's append to its batch's sync completion, summed / maxed
  /// over commits. Average = commit_latency_us_total / commits.
  double commit_latency_us_total = 0;
  double commit_latency_us_max = 0;

  /// Interval delta (same ergonomics as IoStats::operator-): counters and
  /// the latency total subtract; commit_latency_us_max is a cumulative
  /// high-water mark, so the minuend's value is kept as-is.
  WalStats operator-(const WalStats& o) const {
    WalStats d = *this;
    d.records -= o.records;
    d.commits -= o.commits;
    d.syncs -= o.syncs;
    d.batched_commits -= o.batched_commits;
    d.commit_latency_us_total -= o.commit_latency_us_total;
    return d;
  }
};

class Wal {
 public:
  explicit Wal(DiskProfile profile = DiskProfile::Hdd(),
               size_t log_page_bytes = 4096)
      : io_(DeviceProfile::FromDisk(std::move(profile), 1)),
        log_page_bytes_(log_page_bytes) {}

  /// Multi-queue log device; group-commit syncs are charged to the syncing
  /// committer's queue (bind committer threads with IoQueueScope on io()).
  explicit Wal(DeviceProfile profile, size_t log_page_bytes = 4096)
      : io_(std::move(profile)), log_page_bytes_(log_page_bytes) {}

  /// Enables group commit for AppendCommit (the dataset turns this on when
  /// writer_threads > 1).
  void set_group_commit(bool on);

  /// Failpoint hook (fault/fault_injector.h). An armed wal.append fire
  /// DROPS the record — Append/AppendCommit return kInvalidLsn and the
  /// injected Status is parked for FaultInjector::TakePending(); while the
  /// injector is crashed every append drops, so the log ends at the crash
  /// point. A wal.sync fire skips the modeled group-commit sync charge.
  void set_fault_injector(FaultInjector* fault);

  /// Appends a record, assigning it the next LSN (returned).
  Lsn Append(LogRecord record);

  /// Appends a commit record and returns once it is durable. See the group
  /// commit notes above. The second form is a window member's commit: it
  /// leaves the window (under the same lock as the append, and also when
  /// the record is dropped) before deciding whether to sync or wait.
  Lsn AppendCommit(LogRecord record);
  Lsn AppendCommit(LogRecord record, bool window_member);

  /// Commit-window membership. JoinCommitWindow returns false (and joins
  /// nothing) with group commit off. A member must leave exactly once:
  /// through AppendCommit(record, true) or LeaveCommitWindow.
  bool JoinCommitWindow();
  void LeaveCommitWindow();

  /// Current tail LSN (last assigned); kInvalidLsn if empty.
  Lsn tail_lsn() const;

  /// All records with lsn > after, in order.
  std::vector<LogRecord> ReadFrom(Lsn after) const;

  /// Truncates records with lsn <= up_to (checkpointing).
  void TruncateUpTo(Lsn up_to);

  /// Observability hooks (obs/). The registry adds the
  /// "wal.commit_modeled_ns" latency histogram; the tracer records one
  /// "wal.sync" span per modeled group-commit flush, stamped with the log
  /// device's virtual clock. Both null by default — armed-but-quiet, no
  /// modeled-time change. Attach before concurrent commit traffic.
  void set_metrics(obs::MetricsRegistry* metrics);
  void set_tracer(obs::Tracer* tracer);

  /// Live group-commit backlog (the WAL batch-occupancy gauges).
  struct Backlog {
    uint64_t commit_waiters = 0;    ///< committers inside AppendCommit
    uint64_t unsynced_records = 0;  ///< appended past the durable LSN
    uint64_t tail_bytes = 0;        ///< partial tail page not yet streamed
    uint64_t commit_window = 0;     ///< window members (in-flight ops)
  };
  Backlog backlog() const;

  /// The log device's engine (bind committer threads to queues here).
  IoEngine* io() { return &io_; }

  IoStats stats() const { return io_.stats(); }
  WalStats wal_stats() const;
  size_t num_records() const;

 private:
  Lsn AppendLocked(LogRecord record) REQUIRES(mu_);
  /// Makes every appended record durable with one modeled log flush and
  /// wakes the waiting committers.
  void SyncLocked() REQUIRES(mu_);
  /// Drops one window member; the last one out wakes waiting committers.
  void LeaveLocked() REQUIRES(mu_);

  /// mu_ is the commit-window mutex: it guards the log tail (records_,
  /// next_lsn_, the partial-page byte counter) and the whole group-commit
  /// protocol state below. Rank kLeaf: held across modeled sync charges to
  /// the log device (DiskModel rank is deeper).
  mutable Mutex mu_{lockrank::kLeaf, "wal.mu"};
  CondVar cv_;
  IoEngine io_;
  FaultInjector* fault_ GUARDED_BY(mu_) = nullptr;
  const size_t log_page_bytes_;
  size_t bytes_since_page_ GUARDED_BY(mu_) = 0;
  Lsn next_lsn_ GUARDED_BY(mu_) = 1;
  /// A deque, not a vector: growth never copies the whole log while the old
  /// buffer is still live.
  std::deque<LogRecord> records_ GUARDED_BY(mu_);

  obs::Histogram* commit_hist_ GUARDED_BY(mu_) = nullptr;  ///< wal.commit_modeled_ns
  obs::Tracer* tracer_ GUARDED_BY(mu_) = nullptr;

  bool group_commit_ GUARDED_BY(mu_) = false;
  uint64_t commit_waiters_ GUARDED_BY(mu_) = 0;  ///< inside AppendCommit
  uint64_t window_ GUARDED_BY(mu_) = 0;  ///< commit-window members
  Lsn durable_lsn_ GUARDED_BY(mu_) = 0;
  /// Log-device critical path as of the last completed sync; batched
  /// commits read it to compute their modeled latency.
  double durable_point_us_ GUARDED_BY(mu_) = 0;
  WalStats wstats_ GUARDED_BY(mu_);
};

}  // namespace auxlsm
