#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/dataset.h"
#include "txn/lock_manager.h"
#include "txn/log_record.h"
#include "txn/recovery.h"
#include "txn/transaction.h"
#include "txn/wal.h"

namespace auxlsm {
namespace {

TEST(LockManagerTest, SharedLocksCoexist) {
  LockManager lm;
  lm.Lock(1, "k", LockMode::kShared);
  lm.Lock(2, "k", LockMode::kShared);
  EXPECT_EQ(lm.NumLockedKeys(), 1u);
  lm.Unlock(1, "k");
  lm.Unlock(2, "k");
  EXPECT_EQ(lm.NumLockedKeys(), 0u);
}

TEST(LockManagerTest, ExclusiveBlocksOtherWriter) {
  LockManager lm;
  lm.Lock(1, "k", LockMode::kExclusive);
  std::atomic<bool> acquired{false};
  std::thread t([&]() {
    lm.Lock(2, "k", LockMode::kExclusive);
    acquired.store(true);
    lm.Unlock(2, "k");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(acquired.load());
  lm.Unlock(1, "k");
  t.join();
  EXPECT_TRUE(acquired.load());
}

TEST(LockManagerTest, SharedBlocksExclusive) {
  LockManager lm;
  lm.Lock(1, "k", LockMode::kShared);
  std::atomic<bool> acquired{false};
  std::thread t([&]() {
    lm.Lock(2, "k", LockMode::kExclusive);
    acquired.store(true);
    lm.Unlock(2, "k");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(acquired.load());
  lm.Unlock(1, "k");
  t.join();
  EXPECT_TRUE(acquired.load());
}

TEST(LockManagerTest, ReentrantExclusive) {
  LockManager lm;
  lm.Lock(1, "k", LockMode::kExclusive);
  lm.Lock(1, "k", LockMode::kExclusive);  // same holder: no deadlock
  lm.Unlock(1, "k");
  EXPECT_EQ(lm.NumLockedKeys(), 1u);  // still held once
  lm.Unlock(1, "k");
  EXPECT_EQ(lm.NumLockedKeys(), 0u);
}

TEST(LockManagerTest, UnlockAllReleasesEverything) {
  LockManager lm;
  lm.Lock(1, "a", LockMode::kExclusive);
  lm.Lock(1, "b", LockMode::kShared);
  lm.Lock(1, "c", LockMode::kExclusive);
  lm.UnlockAll(1);
  EXPECT_EQ(lm.NumLockedKeys(), 0u);
}

TEST(LockManagerTest, DifferentKeysDoNotConflict) {
  LockManager lm;
  lm.Lock(1, "a", LockMode::kExclusive);
  lm.Lock(2, "b", LockMode::kExclusive);  // returns without blocking
  lm.UnlockAll(1);
  lm.UnlockAll(2);
}

TEST(LogRecordTest, EncodeDecodeRoundTrip) {
  LogRecord r;
  r.lsn = 42;
  r.txn_id = 7;
  r.type = LogRecordType::kUpsert;
  r.key = "pk";
  r.value = std::string(100, 'v');
  r.ts = 12345;
  r.update_bit = true;
  const std::string enc = r.Encode();
  LogRecord got;
  size_t consumed = 0;
  ASSERT_TRUE(LogRecord::Decode(enc, &got, &consumed).ok());
  EXPECT_EQ(consumed, enc.size());
  EXPECT_EQ(got.lsn, r.lsn);
  EXPECT_EQ(got.txn_id, r.txn_id);
  EXPECT_EQ(got.type, r.type);
  EXPECT_EQ(got.key, r.key);
  EXPECT_EQ(got.value, r.value);
  EXPECT_EQ(got.ts, r.ts);
  EXPECT_TRUE(got.update_bit);
}

TEST(LogRecordTest, DecodeDetectsCorruption) {
  LogRecord r;
  r.type = LogRecordType::kCommit;
  std::string enc = r.Encode();
  enc[enc.size() - 1] ^= 0x1;  // flip a payload bit
  LogRecord got;
  size_t consumed;
  EXPECT_TRUE(LogRecord::Decode(enc, &got, &consumed).IsCorruption());
  EXPECT_TRUE(LogRecord::Decode(Slice(enc.data(), 3), &got, &consumed)
                  .IsCorruption());
}

// The WAL charges log pages by EncodedSize(), so it must equal the encoding's
// length for every record type and at every varint length boundary of the
// numeric fields and the key/value length prefixes.
TEST(LogRecordTest, EncodedSizeMatchesEncode) {
  const LogRecordType types[] = {
      LogRecordType::kInsert, LogRecordType::kUpsert, LogRecordType::kDelete,
      LogRecordType::kCommit, LogRecordType::kAbort,
      LogRecordType::kCheckpoint};
  const uint64_t numbers[] = {0,           1,         127,       128,
                              16383,       16384,     (1u << 21) - 1,
                              1u << 21,    (1u << 28) - 1,    1u << 28,
                              ~uint64_t{0} >> 1, ~uint64_t{0}};
  const size_t lengths[] = {0, 1, 127, 128, 560, 16383, 16384, 1u << 21};
  for (LogRecordType type : types) {
    for (uint64_t n : numbers) {
      for (size_t len : lengths) {
        LogRecord r;
        r.type = type;
        r.lsn = n;
        r.txn_id = n / 3;
        r.ts = ~n;
        r.update_bit = (n & 1) != 0;
        r.key = std::string(len % 300, 'k');
        r.value = std::string(len, 'v');
        EXPECT_EQ(r.EncodedSize(), r.Encode().size())
            << "type=" << int(type) << " n=" << n << " len=" << len;
        r.key.swap(r.value);
        EXPECT_EQ(r.EncodedSize(), r.Encode().size())
            << "type=" << int(type) << " n=" << n << " key len=" << len;
      }
    }
  }
}

TEST(WalTest, AppendAssignsMonotoneLsns) {
  Wal wal;
  LogRecord r;
  r.type = LogRecordType::kInsert;
  const Lsn a = wal.Append(r);
  const Lsn b = wal.Append(r);
  EXPECT_LT(a, b);
  EXPECT_EQ(wal.tail_lsn(), b);
  EXPECT_EQ(wal.num_records(), 2u);
}

TEST(WalTest, ReadFromFiltersAndTruncate) {
  Wal wal;
  LogRecord r;
  r.type = LogRecordType::kInsert;
  const Lsn a = wal.Append(r);
  wal.Append(r);
  wal.Append(r);
  EXPECT_EQ(wal.ReadFrom(a).size(), 2u);
  wal.TruncateUpTo(a);
  EXPECT_EQ(wal.num_records(), 2u);
  EXPECT_EQ(wal.ReadFrom(kInvalidLsn).size(), 2u);
}

TEST(WalTest, ChargesSequentialLogIo) {
  Wal wal(DiskProfile::Hdd(), /*log_page_bytes=*/128);
  LogRecord r;
  r.type = LogRecordType::kUpsert;
  r.value = std::string(1000, 'x');
  wal.Append(r);
  EXPECT_GT(wal.stats().pages_written, 0u);
  EXPECT_GT(wal.stats().simulated_us, 0.0);
}

TEST(TransactionTest, CommitClearsUndoAndUnlocks) {
  LockManager lm;
  Wal wal;
  TransactionManager mgr(&lm, &wal);
  int undone = 0;
  auto txn = mgr.Begin();
  txn->Lock("k", LockMode::kExclusive);
  txn->PushUndo([&]() { undone++; });
  ASSERT_TRUE(txn->Commit().ok());
  EXPECT_EQ(undone, 0);
  EXPECT_EQ(lm.NumLockedKeys(), 0u);
  EXPECT_EQ(txn->state(), Transaction::State::kCommitted);
  // The commit record is in the log.
  const auto records = wal.ReadFrom(kInvalidLsn);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].type, LogRecordType::kCommit);
}

TEST(TransactionTest, AbortRunsInverseOpsInReverseOrder) {
  LockManager lm;
  Wal wal;
  TransactionManager mgr(&lm, &wal);
  std::vector<int> order;
  auto txn = mgr.Begin();
  txn->PushUndo([&]() { order.push_back(1); });
  txn->PushUndo([&]() { order.push_back(2); });
  txn->PushUndo([&]() { order.push_back(3); });
  ASSERT_TRUE(txn->Abort().ok());
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 3);
  EXPECT_EQ(order[2], 1);
}

TEST(TransactionTest, DestructorAbortsActiveTxn) {
  LockManager lm;
  Wal wal;
  TransactionManager mgr(&lm, &wal);
  int undone = 0;
  {
    auto txn = mgr.Begin();
    txn->PushUndo([&]() { undone++; });
  }
  EXPECT_EQ(undone, 1);
}

TEST(TransactionTest, DoubleCommitRejected) {
  LockManager lm;
  Wal wal;
  TransactionManager mgr(&lm, &wal);
  auto txn = mgr.Begin();
  ASSERT_TRUE(txn->Commit().ok());
  EXPECT_TRUE(txn->Commit().IsInvalidArgument());
  EXPECT_TRUE(txn->Abort().IsInvalidArgument());
}

TEST(RecoveryTest, ReplaysOnlyCommittedBeyondComponentLsn) {
  LockManager lm;
  Wal wal;
  TransactionManager mgr(&lm, &wal);

  // txn 1: committed, ops at lsn 1-2 + commit.
  auto t1 = mgr.Begin();
  LogRecord op;
  op.type = LogRecordType::kUpsert;
  op.key = "a";
  t1->Log(op);
  op.key = "b";
  t1->Log(op);
  ASSERT_TRUE(t1->Commit().ok());
  // txn 2: aborted.
  auto t2 = mgr.Begin();
  op.key = "c";
  t2->Log(op);
  ASSERT_TRUE(t2->Abort().ok());

  std::vector<std::string> replayed;
  RecoveryStats stats;
  ASSERT_TRUE(RecoverFromWal(
                  wal, /*max_component_lsn=*/1, /*bitmap_checkpoint_lsn=*/0,
                  [&](const LogRecord& r) {
                    replayed.push_back(r.key);
                    return Status::OK();
                  },
                  nullptr, &stats)
                  .ok());
  // Only "b" (lsn 2 > 1, committed); "a" already durable, "c" uncommitted.
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_EQ(replayed[0], "b");
  EXPECT_EQ(stats.uncommitted_skipped, 1u);
}

TEST(RecoveryTest, BitmapRedoUsesUpdateBitAndCheckpoint) {
  LockManager lm;
  Wal wal;
  TransactionManager mgr(&lm, &wal);
  auto t1 = mgr.Begin();
  LogRecord op;
  op.type = LogRecordType::kUpsert;
  op.key = "x";
  op.update_bit = true;
  t1->Log(op);  // lsn 1
  op.key = "y";
  op.update_bit = false;
  t1->Log(op);  // lsn 2
  op.key = "z";
  op.update_bit = true;
  t1->Log(op);  // lsn 3
  ASSERT_TRUE(t1->Commit().ok());

  std::vector<std::string> bitmap_redo;
  ASSERT_TRUE(RecoverFromWal(
                  wal, /*max_component_lsn=*/100,
                  /*bitmap_checkpoint_lsn=*/1,
                  nullptr,
                  [&](const LogRecord& r) {
                    bitmap_redo.push_back(r.key);
                    return Status::OK();
                  },
                  nullptr)
                  .ok());
  // Only "z": "x" is before the bitmap checkpoint, "y" has no update bit.
  ASSERT_EQ(bitmap_redo.size(), 1u);
  EXPECT_EQ(bitmap_redo[0], "z");
}

// --- Serial-path no-steal ----------------------------------------------------

namespace nosteal {

EnvOptions TestEnv() {
  EnvOptions o;
  o.page_size = 1024;
  o.cache_pages = 1 << 14;
  o.disk_profile = DiskProfile::Null();
  return o;
}

TweetRecord MakeTweet(uint64_t id) {
  TweetRecord r;
  r.id = id;
  r.user_id = id % 10;
  r.location = "TX";
  r.creation_time = id;
  r.message = std::string(120, 't');
  return r;
}

DatasetOptions SmallBudget() {
  DatasetOptions o;
  o.strategy = MaintenanceStrategy::kEager;
  o.mem_budget_bytes = 4 << 10;  // a handful of records triggers the flush
  return o;
}

}  // namespace nosteal

// The serial inline budget-triggered flush defers while an explicit
// transaction is open (the same no-steal rule as the pipeline's seal), so a
// rollback always finds its entries still in the memtable — no uncommitted
// data ever reaches disk.
TEST(SerialNoStealTest, StrictModeDefersFlushUntilTransactionCloses) {
  Env env(nosteal::TestEnv());
  Dataset ds(&env, nosteal::SmallBudget());
  auto txn = ds.Begin();
  for (uint64_t id = 1; id <= 60; id++) {
    ASSERT_TRUE(ds.UpsertTxn(nosteal::MakeTweet(id), txn.get()).ok());
  }
  // Well past the budget, but no flush stole the open transaction's writes.
  EXPECT_EQ(ds.ingest_stats().flushes, 0u);
  EXPECT_EQ(ds.primary()->NumDiskComponents(), 0u);
  ASSERT_TRUE(txn->Abort().ok());
  EXPECT_EQ(ds.num_records(), 0u);  // the rollback reached every entry

  // The next (auto-commit) operation re-triggers maintenance; only committed
  // data reaches disk.
  ASSERT_TRUE(ds.Upsert(nosteal::MakeTweet(1000)).ok());
  ASSERT_TRUE(ds.FlushAll().ok());
  EXPECT_EQ(ds.num_records(), 1u);
  TweetRecord r;
  EXPECT_TRUE(ds.GetById(1000, &r).ok());
  EXPECT_TRUE(ds.GetById(5, &r).IsNotFound());
}

// Committed explicit transactions flush normally: the deferral ends as soon
// as the transaction closes.
TEST(SerialNoStealTest, StrictModeFlushesCommittedWork) {
  Env env(nosteal::TestEnv());
  Dataset ds(&env, nosteal::SmallBudget());
  auto txn = ds.Begin();
  for (uint64_t id = 1; id <= 60; id++) {
    ASSERT_TRUE(ds.UpsertTxn(nosteal::MakeTweet(id), txn.get()).ok());
  }
  ASSERT_TRUE(txn->Commit().ok());
  // Budget is still exceeded; the first op after the close flushes.
  ASSERT_TRUE(ds.Upsert(nosteal::MakeTweet(61)).ok());
  EXPECT_GT(ds.ingest_stats().flushes, 0u);
  EXPECT_EQ(ds.num_records(), 61u);
}

}  // namespace
}  // namespace auxlsm
