#include "txn/wal.h"

#include <algorithm>
#include <cmath>

#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace auxlsm {

void Wal::set_group_commit(bool on) {
  MutexLock l(mu_);
  group_commit_ = on;
}

void Wal::set_fault_injector(FaultInjector* fault) {
  MutexLock l(mu_);
  fault_ = fault;
}

void Wal::set_metrics(obs::MetricsRegistry* metrics) {
  MutexLock l(mu_);
  commit_hist_ =
      metrics == nullptr ? nullptr : metrics->histogram("wal.commit_modeled_ns");
}

void Wal::set_tracer(obs::Tracer* tracer) {
  MutexLock l(mu_);
  tracer_ = tracer;
}

Wal::Backlog Wal::backlog() const {
  MutexLock l(mu_);
  Backlog b;
  b.commit_waiters = commit_waiters_;
  const Lsn tail = next_lsn_ - 1;
  b.unsynced_records = tail > durable_lsn_ ? tail - durable_lsn_ : 0;
  b.tail_bytes = bytes_since_page_;
  b.commit_window = window_;
  return b;
}

Lsn Wal::AppendLocked(LogRecord record) {
  record.lsn = next_lsn_++;
  // Charge sequential log I/O one page at a time as bytes accumulate; full
  // pages stream out on the appending thread's log-device queue.
  bytes_since_page_ += record.EncodedSize();
  while (bytes_since_page_ >= log_page_bytes_) {
    io_.ChargeWrite(1);
    bytes_since_page_ -= log_page_bytes_;
  }
  wstats_.records++;
  const Lsn lsn = record.lsn;
  records_.push_back(std::move(record));
  return lsn;
}

Lsn Wal::Append(LogRecord record) {
  MutexLock l(mu_);
  if (fault_ != nullptr && fault_->HitParked(failpoints::kWalAppend, &io_)) {
    return kInvalidLsn;  // record dropped; Status parked for TakePending
  }
  return AppendLocked(std::move(record));
}

bool Wal::JoinCommitWindow() {
  MutexLock l(mu_);
  if (!group_commit_) return false;
  ++window_;
  return true;
}

void Wal::LeaveCommitWindow() {
  MutexLock l(mu_);
  LeaveLocked();
}

void Wal::LeaveLocked() {
  // The last member out lets a waiting committer sync (it re-checks the
  // window under mu_).
  if (--window_ == 0 && commit_waiters_ > 0) {
    cv_.NotifyAll();
  }
}

void Wal::SyncLocked() {
  // The modeled fsync of the partial tail page, charged to the syncing
  // committer's bound log queue. The durable point is read from the
  // device's completed-time clock (critical path) rather than the sync
  // ticket: a commit's enter time uses the same clock, so the two endpoints
  // of its latency are always comparable even when appends and syncs land
  // on different queues (per-queue clocks are not mutually ordered; the
  // critical path is monotone under mu_). An injected wal.sync failure
  // skips the flush charge; the records themselves already sit in the
  // modeled log, so nothing is lost — the fire is visible in the injector's
  // stats and commit latency.
  if (fault_ == nullptr || !fault_->HitCharge(failpoints::kWalSync, &io_)) {
    const double sync_wall0 = tracer_ != nullptr ? tracer_->WallNowUs() : 0;
    const double sync_modeled0 = io_.critical_path_us();
    io_.Submit(IoRequest::Write(1));
    durable_point_us_ = std::max(durable_point_us_, io_.critical_path_us());
    if (tracer_ != nullptr) {
      obs::TraceEvent ev;
      ev.SetName("wal.sync");
      ev.cat = "wal";
      ev.queue = int32_t(io_.BoundQueue());
      ev.wall_ts_us = sync_wall0;
      ev.wall_dur_us = tracer_->WallNowUs() - sync_wall0;
      ev.modeled_ts_us = sync_modeled0;
      ev.modeled_dur_us = durable_point_us_ - sync_modeled0;
      tracer_->Record(ev);
    }
  }
  durable_lsn_ = next_lsn_ - 1;
  wstats_.syncs++;
  cv_.NotifyAll();
}

Lsn Wal::AppendCommit(LogRecord record) {
  return AppendCommit(std::move(record), /*window_member=*/false);
}

Lsn Wal::AppendCommit(LogRecord record, bool window_member) {
  obs::Histogram* hist = nullptr;
  double latency_us = 0;
  Lsn lsn;
  {
    MutexLock l(mu_);
    if (fault_ != nullptr && fault_->HitParked(failpoints::kWalAppend, &io_)) {
      if (window_member) LeaveLocked();
      return kInvalidLsn;  // commit record dropped — the txn must roll back
    }
    lsn = AppendLocked(std::move(record));
    wstats_.commits++;
    if (window_member) LeaveLocked();
    if (!group_commit_) {
      // Legacy serial path: identical to Append (no modeled sync).
      durable_lsn_ = lsn;
      return lsn;
    }
    // The commit's modeled latency runs from here (log-device virtual time
    // at append) to its batch's sync completion.
    const double enter_us = io_.critical_path_us();
    ++commit_waiters_;
    bool synced = false;
    while (durable_lsn_ < lsn) {
      if (window_ == 0) {
        // Last committer in: nothing in flight can still join this batch
        // before its commit, so sync everything appended now.
        SyncLocked();
        synced = true;
        break;
      }
      cv_.Wait(mu_);
    }
    if (!synced) wstats_.batched_commits++;
    // Non-negative by monotonicity: the batch's sync completed after this
    // commit's append; the clamp covers a skipped (fault-injected) sync.
    latency_us = std::max(0.0, durable_point_us_ - enter_us);
    wstats_.commit_latency_us_total += latency_us;
    wstats_.commit_latency_us_max =
        std::max(wstats_.commit_latency_us_max, latency_us);
    --commit_waiters_;
    hist = commit_hist_;
  }
  // Histogram recording is internally synchronized; keep it outside the
  // commit window so observability never extends it.
  if (hist != nullptr) {
    hist->Record(uint64_t(std::llround(latency_us * 1000.0)));
  }
  return lsn;
}

Lsn Wal::tail_lsn() const {
  MutexLock l(mu_);
  return records_.empty() ? kInvalidLsn : records_.back().lsn;
}

std::vector<LogRecord> Wal::ReadFrom(Lsn after) const {
  MutexLock l(mu_);
  // Records are appended in LSN order, so the answer is a suffix.
  const auto first =
      std::partition_point(records_.begin(), records_.end(),
                           [&](const LogRecord& r) { return r.lsn <= after; });
  return std::vector<LogRecord>(first, records_.end());
}

void Wal::TruncateUpTo(Lsn up_to) {
  MutexLock l(mu_);
  while (!records_.empty() && records_.front().lsn <= up_to) {
    records_.pop_front();
  }
}

WalStats Wal::wal_stats() const {
  MutexLock l(mu_);
  return wstats_;
}

size_t Wal::num_records() const {
  MutexLock l(mu_);
  return records_.size();
}

}  // namespace auxlsm
