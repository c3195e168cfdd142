#include "txn/transaction.h"

#include <utility>

#include "cache/tuple_cache.h"

namespace auxlsm {

Transaction::~Transaction() {
  if (state_ == State::kActive) {
    Abort();
  }
}

Lsn Transaction::Log(LogRecord record) {
  record.txn_id = id_;
  return wal_->Append(std::move(record));
}

void Transaction::NoteClosed() {
  if (mgr_ != nullptr) {
    mgr_->active_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void Transaction::Rollback() {
  // Inverse operations in reverse order (§2.2), bracketed by the tuple
  // cache's write fence when a cache is installed: the restores are
  // memtable effects visible to readers before any cache invalidation
  // runs, so they need the same write fencing as the forward path. The
  // Clear (which bumps every epoch) lands inside the fence, before the
  // guard's release.
  TupleCacheWriteFence fence(rollback_cache_);
  for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) {
    (*it)();
  }
  undo_.clear();
  if (rollback_cache_ != nullptr) rollback_cache_->Clear();
}

Status Transaction::Commit() {
  if (state_ != State::kActive) {
    return Status::InvalidArgument("transaction not active");
  }
  // The commit record goes through the WAL's commit path: with group commit
  // enabled the call returns once a sync has covered it; on the serial path
  // it is a plain append, exactly as before. A window member leaves the
  // window inside the call, whether or not the record is kept.
  LogRecord commit;
  commit.type = LogRecordType::kCommit;
  commit.txn_id = id_;
  const bool member = std::exchange(in_commit_window_, false);
  if (wal_->AppendCommit(std::move(commit), member) == kInvalidLsn) {
    // The log dropped the commit record (fault injection / crash): the
    // transaction can never be durable, so roll its effects back and fail
    // the commit — leaving the effects in place would let a later flush
    // persist work the recovered log knows nothing about.
    Rollback();
    state_ = State::kAborted;
    NoteClosed();
    ReleaseLocks();
    return Status::IOError("wal dropped the commit record");
  }
  undo_.clear();
  state_ = State::kCommitted;
  NoteClosed();
  ReleaseLocks();
  return Status::OK();
}

Status Transaction::Abort() {
  if (state_ != State::kActive) {
    return Status::InvalidArgument("transaction not active");
  }
  Rollback();
  LogRecord abort;
  abort.type = LogRecordType::kAbort;
  Log(std::move(abort));
  if (std::exchange(in_commit_window_, false)) wal_->LeaveCommitWindow();
  state_ = State::kAborted;
  NoteClosed();
  ReleaseLocks();
  return Status::OK();
}

}  // namespace auxlsm
