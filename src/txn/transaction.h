// Record-level ACID transactions over a dataset's LSM indexes (§2.2).
//
// No-steal / no-force: all transaction effects live in memory components and
// mutable bitmaps until commit; disk components only ever contain committed
// data. Rollback applies inverse operations in reverse order. Durability
// comes from the WAL (commit record) plus recovery replay.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "txn/lock_manager.h"
#include "txn/log_record.h"
#include "txn/wal.h"

namespace auxlsm {

class TransactionManager;
class TupleCache;

class Transaction {
 public:
  enum class State { kActive, kCommitted, kAborted };

  Transaction(TxnId id, LockManager* locks, Wal* wal,
              TransactionManager* mgr = nullptr)
      : id_(id), locks_(locks), wal_(wal), mgr_(mgr) {}
  ~Transaction();

  TxnId id() const { return id_; }
  State state() const { return state_; }
  LockManager* locks() const { return locks_; }

  /// Acquires a key lock held until commit/abort.
  void Lock(const Slice& key, LockMode mode) { locks_->Lock(id_, key, mode); }

  /// Appends a log record stamped with this transaction's id.
  Lsn Log(LogRecord record);

  /// Joins the WAL's commit window (txn/wal.h) for this transaction's
  /// lifetime; a no-op with group commit off. Only an auto-commit op that
  /// already holds every lock it will take may join: Commit leaves the
  /// window with its commit record, and Abort — including the destructor's,
  /// so every early return is covered — leaves it without one.
  void JoinCommitWindow() { in_commit_window_ = wal_->JoinCommitWindow(); }

  /// Registers an inverse operation executed (in reverse order) on abort.
  void PushUndo(std::function<void()> inverse) {
    undo_.push_back(std::move(inverse));
  }

  /// Installs the dataset's tuple cache on the rollback path: every
  /// rollback (Abort and the commit-record-drop rollback in Commit) runs
  /// its undo closures inside the cache's write fence and then drops the
  /// whole cache. The undo closures' memtable restores are effects visible
  /// before any cache cut, exactly like the forward path's, and the
  /// restored records' cache positions (their *old* secondary keys) are
  /// unknown in general, so precise re-cuts are impossible — degrading to
  /// misses is the only stale-free option. Null (the default) skips both.
  /// Idempotent to reinstall per operation.
  void SetRollbackCache(TupleCache* cache) { rollback_cache_ = cache; }

  Status Commit();
  Status Abort();

 private:
  void ReleaseLocks() { locks_->UnlockAll(id_); }
  void NoteClosed();
  void Rollback();

  const TxnId id_;
  LockManager* const locks_;
  Wal* const wal_;
  TransactionManager* const mgr_;
  State state_ = State::kActive;
  std::vector<std::function<void()>> undo_;
  TupleCache* rollback_cache_ = nullptr;
  bool in_commit_window_ = false;
};

class TransactionManager {
 public:
  TransactionManager(LockManager* locks, Wal* wal)
      : locks_(locks), wal_(wal) {}

  std::unique_ptr<Transaction> Begin() {
    active_.fetch_add(1, std::memory_order_relaxed);
    return std::make_unique<Transaction>(
        next_id_.fetch_add(1, std::memory_order_relaxed), locks_, wal_, this);
  }

  /// A maintenance-internal transaction that takes locks but has no
  /// uncommitted memtable effects (e.g. the §5.3 Lock-method builder): it is
  /// excluded from active_transactions(), so a long-running merge holding
  /// one never defers the pipeline's seal phase — sealing while it runs is
  /// safe precisely because it has nothing to roll back in the memtables.
  std::unique_ptr<Transaction> BeginReadOnly() {
    return std::make_unique<Transaction>(
        next_id_.fetch_add(1, std::memory_order_relaxed), locks_, wal_,
        nullptr);
  }

  /// Transactions begun and not yet committed/aborted. The ingestion
  /// pipeline checks this under the exclusive ingest latch (where in-flight
  /// auto-commit transactions are drained) to keep the no-steal invariant:
  /// memtables are never sealed for flush while an explicit transaction has
  /// uncommitted effects in them.
  int active_transactions() const {
    return active_.load(std::memory_order_relaxed);
  }

  LockManager* locks() const { return locks_; }
  Wal* wal() const { return wal_; }

 private:
  friend class Transaction;
  LockManager* const locks_;
  Wal* const wal_;
  std::atomic<TxnId> next_id_{1};
  std::atomic<int> active_{0};
};

}  // namespace auxlsm
