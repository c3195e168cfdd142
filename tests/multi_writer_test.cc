// Multi-writer ingestion pipeline (PR 2): N writer threads ingesting one
// record set into a dataset must yield exactly the query-visible state a
// single writer produces — across all four maintenance strategies and the
// §5.3 concurrency-control methods — while writer_threads == 1 stays on the
// legacy serial path and the group-commit WAL batches modeled log syncs.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/dataset.h"
#include "fault/fault_injector.h"
#include "txn/transaction.h"
#include "txn/wal.h"

namespace auxlsm {
namespace {

EnvOptions TestEnv() {
  EnvOptions o;
  o.page_size = 1024;
  o.cache_pages = 1 << 16;
  o.disk_profile = DiskProfile::Null();
  return o;
}

TweetRecord MakeTweet(uint64_t id, uint64_t user, uint64_t time) {
  TweetRecord r;
  r.id = id;
  r.user_id = user;
  r.location = "WA";
  r.creation_time = time;
  r.message = std::string(40, 'm');
  return r;
}

struct Op {
  enum Kind { kInsert, kUpsert, kDelete } kind;
  TweetRecord rec;
};

// Deterministic op stream over ids [1, n]: insert everything, upsert every
// 3rd id to a new user, delete every 7th. Every id's ops appear in stream
// order, and the partitioning below gives all of one id's ops to one thread,
// so the final state is independent of thread interleaving.
std::vector<Op> MakeOps(uint64_t n) {
  std::vector<Op> ops;
  for (uint64_t id = 1; id <= n; id++) {
    ops.push_back(Op{Op::kInsert, MakeTweet(id, id % 40, id)});
  }
  for (uint64_t id = 3; id <= n; id += 3) {
    ops.push_back(Op{Op::kUpsert, MakeTweet(id, 100 + id % 40, n + id)});
  }
  for (uint64_t id = 7; id <= n; id += 7) {
    TweetRecord r;
    r.id = id;
    ops.push_back(Op{Op::kDelete, r});
  }
  return ops;
}

void ApplyOps(Dataset* ds, const std::vector<Op>& ops, uint64_t writers,
              uint64_t me, std::atomic<int>* failures) {
  for (const auto& op : ops) {
    if (op.rec.id % writers != me) continue;
    Status st;
    switch (op.kind) {
      case Op::kInsert: st = ds->Insert(op.rec); break;
      case Op::kUpsert: st = ds->Upsert(op.rec); break;
      case Op::kDelete: st = ds->Delete(op.rec.id); break;
    }
    if (!st.ok()) failures->fetch_add(1);
  }
}

std::vector<uint64_t> SortedIds(const QueryResult& res) {
  std::vector<uint64_t> ids;
  ids.reserve(res.records.size());
  for (const auto& r : res.records) ids.push_back(r.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

void ExpectSameQueryState(Dataset* multi, Dataset* single, uint64_t n) {
  EXPECT_EQ(multi->num_records(), single->num_records());
  // Point lookups over the whole key space.
  for (uint64_t id = 1; id <= n; id++) {
    TweetRecord a, b;
    const Status sa = multi->GetById(id, &a);
    const Status sb = single->GetById(id, &b);
    ASSERT_EQ(sa.ok(), sb.ok()) << "id " << id;
    if (sa.ok()) {
      EXPECT_EQ(a.user_id, b.user_id) << "id " << id;
      EXPECT_EQ(a.creation_time, b.creation_time) << "id " << id;
    }
  }
  // Secondary range queries (validated), several ranges.
  SecondaryQueryOptions q;
  for (const auto& range : std::vector<std::pair<uint64_t, uint64_t>>{
           {0, 19}, {100, 139}, {0, 200}}) {
    QueryResult ra, rb;
    ASSERT_TRUE(
        multi->QueryUserRange(range.first, range.second, q, &ra).ok());
    ASSERT_TRUE(
        single->QueryUserRange(range.first, range.second, q, &rb).ok());
    EXPECT_EQ(SortedIds(ra), SortedIds(rb))
        << "users [" << range.first << ", " << range.second << "]";
  }
  // Range-filter scans compare matched counts (component layouts differ, so
  // scanned counts may not).
  ScanResult sa, sb;
  ASSERT_TRUE(multi->ScanTimeRange(1, n / 2, &sa).ok());
  ASSERT_TRUE(single->ScanTimeRange(1, n / 2, &sb).ok());
  EXPECT_EQ(sa.records_matched, sb.records_matched);
}

struct PipelineConfig {
  MaintenanceStrategy strategy;
  bool merge_repair;
  BuildCcMethod cc;
  const char* name;
  bool pk_index = true;
  /// > 0 = decoupled merge scheduling (per-tree merge queues, PR 5).
  size_t merge_queue_depth = 0;
};

class MultiWriterParityTest
    : public ::testing::TestWithParam<PipelineConfig> {};

TEST_P(MultiWriterParityTest, MatchesSingleWriterState) {
  const PipelineConfig cfg = GetParam();
  const uint64_t n = 1500;
  const uint64_t writers = 4;
  const auto ops = MakeOps(n);

  Env menv(TestEnv());
  DatasetOptions mo;
  mo.strategy = cfg.strategy;
  mo.merge_repair = cfg.merge_repair;
  mo.build_cc = cfg.cc;
  mo.enable_primary_key_index = cfg.pk_index;
  mo.writer_threads = writers;
  mo.merge_queue_depth = cfg.merge_queue_depth;
  mo.mem_budget_bytes = 64 << 10;  // force several pipeline cycles
  Dataset multi(&menv, mo);

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (uint64_t t = 0; t < writers; t++) {
    threads.emplace_back(
        [&, t]() { ApplyOps(&multi, ops, writers, t, &failures); });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  ASSERT_TRUE(multi.WaitForMaintenance().ok());

  Env senv(TestEnv());
  DatasetOptions so = mo;
  so.writer_threads = 1;
  Dataset single(&senv, so);
  std::atomic<int> sfailures{0};
  ApplyOps(&single, ops, 1, 0, &sfailures);
  EXPECT_EQ(sfailures.load(), 0);

  ExpectSameQueryState(&multi, &single, n);

  // The pipeline actually engaged: commits were group-committed and flushes
  // ran in the background.
  EXPECT_GT(multi.wal()->wal_stats().syncs, 0u);
  EXPECT_GT(multi.ingest_stats().flushes, 0u);
  EXPECT_EQ(single.wal()->wal_stats().syncs, 0u);  // legacy serial path
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, MultiWriterParityTest,
    ::testing::Values(
        PipelineConfig{MaintenanceStrategy::kEager, false, BuildCcMethod::kNone,
                       "eager"},
        PipelineConfig{MaintenanceStrategy::kValidation, true,
                       BuildCcMethod::kNone, "validation_repair"},
        PipelineConfig{MaintenanceStrategy::kMutableBitmap, false,
                       BuildCcMethod::kSideFile, "bitmap_sidefile"},
        PipelineConfig{MaintenanceStrategy::kMutableBitmap, false,
                       BuildCcMethod::kLock, "bitmap_lock"},
        PipelineConfig{MaintenanceStrategy::kMutableBitmap, false,
                       BuildCcMethod::kNone, "bitmap_stoptheworld"},
        PipelineConfig{MaintenanceStrategy::kMutableBitmap, false,
                       BuildCcMethod::kSideFile, "bitmap_no_pk_index",
                       /*pk_index=*/false},
        PipelineConfig{MaintenanceStrategy::kDeletedKeyBtree, false,
                       BuildCcMethod::kNone, "deleted_key"},
        // Decoupled merge scheduling (PR 5): same parity bar with merge work
        // on the per-tree queues instead of inline in the cycle.
        PipelineConfig{MaintenanceStrategy::kEager, false, BuildCcMethod::kNone,
                       "eager_decoupled", /*pk_index=*/true,
                       /*merge_queue_depth=*/4},
        PipelineConfig{MaintenanceStrategy::kMutableBitmap, false,
                       BuildCcMethod::kSideFile, "bitmap_sidefile_decoupled",
                       /*pk_index=*/true, /*merge_queue_depth=*/4},
        PipelineConfig{MaintenanceStrategy::kDeletedKeyBtree, false,
                       BuildCcMethod::kNone, "deleted_key_decoupled",
                       /*pk_index=*/true, /*merge_queue_depth=*/4}),
    [](const auto& info) { return info.param.name; });

// The TSan stress target: writers, background flush/merge cycles, and
// concurrent queries all running against one dataset.
class PipelineStressTest : public ::testing::TestWithParam<PipelineConfig> {};

TEST_P(PipelineStressTest, ConcurrentIngestAndQueries) {
  const PipelineConfig cfg = GetParam();
  Env env(TestEnv());
  DatasetOptions o;
  o.strategy = cfg.strategy;
  o.merge_repair = cfg.merge_repair;
  o.build_cc = cfg.cc;
  o.writer_threads = 4;
  o.merge_queue_depth = cfg.merge_queue_depth;
  o.mem_budget_bytes = 128 << 10;
  Dataset ds(&env, o);

  const uint64_t per_writer = 900;
  std::atomic<int> failures{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (uint64_t t = 0; t < 4; t++) {
    threads.emplace_back([&, t]() {
      const uint64_t base = 1 + t * per_writer;
      for (uint64_t i = 0; i < per_writer; i++) {
        const uint64_t id = base + i;
        if (!ds.Insert(MakeTweet(id, id % 64, id)).ok()) failures++;
        if (i % 3 == 0 &&
            !ds.Upsert(MakeTweet(id, 64 + id % 64, 10000 + id)).ok()) {
          failures++;
        }
        if (i % 5 == 0 && !ds.Delete(id).ok()) failures++;
      }
    });
  }
  std::thread reader([&]() {
    uint64_t probe = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      TweetRecord r;
      (void)ds.GetById(probe, &r);
      probe = probe % (4 * per_writer) + 1;
      SecondaryQueryOptions q;
      QueryResult res;
      (void)ds.QueryUserRange(0, 31, q, &res);
      ScanResult sres;
      (void)ds.ScanTimeRange(1, 2000, &sres);
    }
  });
  for (auto& th : threads) th.join();
  stop.store(true);
  reader.join();
  EXPECT_EQ(failures.load(), 0);
  ASSERT_TRUE(ds.WaitForMaintenance().ok());

  // Every id ingested by exactly one writer: deterministic final liveness.
  uint64_t expected_live = 0;
  for (uint64_t i = 0; i < per_writer; i++) {
    if (i % 5 != 0) expected_live += 4;
  }
  EXPECT_EQ(ds.num_records(), expected_live);
  TweetRecord r;
  EXPECT_TRUE(ds.GetById(1, &r).IsNotFound());  // i == 0 is deleted
  ASSERT_TRUE(ds.GetById(2, &r).ok());
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, PipelineStressTest,
    ::testing::Values(
        PipelineConfig{MaintenanceStrategy::kEager, false, BuildCcMethod::kNone,
                       "eager"},
        PipelineConfig{MaintenanceStrategy::kMutableBitmap, false,
                       BuildCcMethod::kSideFile, "bitmap_sidefile"},
        PipelineConfig{MaintenanceStrategy::kMutableBitmap, false,
                       BuildCcMethod::kLock, "bitmap_lock"},
        PipelineConfig{MaintenanceStrategy::kEager, false, BuildCcMethod::kNone,
                       "eager_decoupled", /*pk_index=*/true,
                       /*merge_queue_depth=*/4},
        PipelineConfig{MaintenanceStrategy::kMutableBitmap, false,
                       BuildCcMethod::kLock, "bitmap_lock_decoupled",
                       /*pk_index=*/true, /*merge_queue_depth=*/4}),
    [](const auto& info) { return info.param.name; });

// No-steal under the pipeline: the background cycle must not seal (and so
// never flushes) memtables while an explicit transaction has uncommitted
// effects in them, and the rollback must land in the live memtable.
TEST(PipelineNoStealTest, OpenTransactionDefersSealUntilClose) {
  Env env(TestEnv());
  DatasetOptions o;
  o.strategy = MaintenanceStrategy::kEager;
  o.writer_threads = 2;
  o.mem_budget_bytes = 32 << 10;
  Dataset ds(&env, o);

  auto txn = ds.Begin();
  ASSERT_TRUE(ds.UpsertTxn(MakeTweet(999999, 7, 1), txn.get()).ok());
  // Blow well past the budget with auto-commit traffic; every op triggers
  // the pipeline, which must decline to seal while the transaction is open.
  for (uint64_t id = 1; id <= 800; id++) {
    ASSERT_TRUE(ds.Upsert(MakeTweet(id, id % 10, id)).ok());
  }
  ASSERT_TRUE(ds.WaitForMaintenance().ok());
  EXPECT_EQ(ds.primary()->NumDiskComponents(), 0u);  // nothing flushed

  // Roll back: the uncommitted record must vanish from the live memtable.
  ASSERT_TRUE(txn->Abort().ok());
  TweetRecord r;
  EXPECT_TRUE(ds.GetById(999999, &r).IsNotFound());

  // With the transaction closed, the next op lets the pipeline flush.
  ASSERT_TRUE(ds.Upsert(MakeTweet(801, 1, 801)).ok());
  ASSERT_TRUE(ds.WaitForMaintenance().ok());
  EXPECT_GT(ds.primary()->NumDiskComponents(), 0u);
  EXPECT_TRUE(ds.GetById(999999, &r).IsNotFound());  // still rolled back
  EXPECT_EQ(ds.num_records(), 801u);
}

TEST(GroupCommitWalTest, ConcurrentCommitsBatchSyncs) {
  Wal wal(DiskProfile::Null());
  wal.set_group_commit(true);
  const int kThreads = 4, kCommits = 300;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&wal]() {
      for (int i = 0; i < kCommits; i++) {
        LogRecord r;
        r.type = LogRecordType::kCommit;
        wal.AppendCommit(r);
      }
    });
  }
  for (auto& th : threads) th.join();
  const WalStats stats = wal.wal_stats();
  EXPECT_EQ(stats.commits, uint64_t(kThreads * kCommits));
  EXPECT_EQ(stats.records, uint64_t(kThreads * kCommits));
  EXPECT_GE(stats.syncs, 1u);
  EXPECT_LE(stats.syncs, stats.commits);
  // Every commit either made a sync or was covered by another commit's.
  EXPECT_EQ(stats.batched_commits, stats.commits - stats.syncs);
  // Every record present, LSNs strictly increasing.
  const auto records = wal.ReadFrom(0);
  ASSERT_EQ(records.size(), size_t(kThreads * kCommits));
  for (size_t i = 1; i < records.size(); i++) {
    EXPECT_LT(records[i - 1].lsn, records[i].lsn);
  }
}

TEST(GroupCommitWalTest, SerialPathChargesNoSyncs) {
  Wal wal(DiskProfile::Null());
  for (int i = 0; i < 10; i++) {
    LogRecord r;
    r.type = LogRecordType::kCommit;
    wal.AppendCommit(r);
  }
  const WalStats stats = wal.wal_stats();
  EXPECT_EQ(stats.commits, 10u);
  EXPECT_EQ(stats.syncs, 0u);  // legacy behavior: plain appends
}

TEST(GroupCommitWalTest, SingleThreadGroupCommitStaysDurable) {
  Wal wal(DiskProfile::Null());
  wal.set_group_commit(true);
  Lsn last = 0;
  for (int i = 0; i < 20; i++) {
    LogRecord r;
    r.type = LogRecordType::kCommit;
    last = wal.AppendCommit(r);
  }
  const WalStats stats = wal.wal_stats();
  EXPECT_EQ(stats.commits, 20u);
  EXPECT_EQ(stats.syncs, 20u);  // no concurrency: every commit leads
  EXPECT_EQ(wal.tail_lsn(), last);
}

LogRecord CommitRecord() {
  LogRecord r;
  r.type = LogRecordType::kCommit;
  return r;
}

// Blocks until n committers wait inside AppendCommit.
void AwaitCommitWaiters(const Wal& wal, uint64_t n) {
  while (wal.backlog().commit_waiters < n) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

// Two window members, two commits: the first commit finds the second member
// still in flight and waits; the second finds the window empty and makes
// the one sync that covers both.
TEST(GroupCommitWalTest, WindowMembersShareOneSync) {
  Wal wal(DiskProfile::Null());
  wal.set_group_commit(true);
  ASSERT_TRUE(wal.JoinCommitWindow());
  ASSERT_TRUE(wal.JoinCommitWindow());
  EXPECT_EQ(wal.backlog().commit_window, 2u);
  Lsn first_lsn = kInvalidLsn;
  std::thread first(
      [&]() { first_lsn = wal.AppendCommit(CommitRecord(), true); });
  AwaitCommitWaiters(wal, 1);
  EXPECT_EQ(wal.wal_stats().syncs, 0u);
  EXPECT_EQ(wal.backlog().commit_window, 1u);
  const Lsn second_lsn = wal.AppendCommit(CommitRecord(), true);
  first.join();
  EXPECT_LT(first_lsn, second_lsn);
  const WalStats stats = wal.wal_stats();
  EXPECT_EQ(stats.commits, 2u);
  EXPECT_EQ(stats.syncs, 1u);
  EXPECT_EQ(stats.batched_commits, stats.commits - stats.syncs);
  const Wal::Backlog b = wal.backlog();
  EXPECT_EQ(b.commit_window, 0u);
  EXPECT_EQ(b.commit_waiters, 0u);
  EXPECT_EQ(b.unsynced_records, 0u);
}

// With group commit off nothing joins the window.
TEST(GroupCommitWalTest, SerialPathJoinsNoWindow) {
  Wal wal(DiskProfile::Null());
  EXPECT_FALSE(wal.JoinCommitWindow());
  EXPECT_EQ(wal.backlog().commit_window, 0u);
  LockManager locks;
  Transaction txn(1, &locks, &wal);
  txn.JoinCommitWindow();
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_EQ(wal.wal_stats().syncs, 0u);
  EXPECT_EQ(wal.backlog().commit_window, 0u);
}

// A member that leaves without a commit record — an abort, the destructor's
// abort, or a commit record the wal.append failpoint drops — releases the
// committer waiting on it, which then makes the batch's one sync.
TEST(GroupCommitWalTest, MemberLeavingWithoutCommitReleasesWaiters) {
  enum class Leave { kAbort, kDestructor, kDroppedCommit };
  for (Leave leave : {Leave::kAbort, Leave::kDestructor, Leave::kDroppedCommit}) {
    SCOPED_TRACE(int(leave));
    FaultInjector fault(1);
    Wal wal(DiskProfile::Null());
    wal.set_group_commit(true);
    wal.set_fault_injector(&fault);
    LockManager locks;
    Transaction committer(1, &locks, &wal);
    auto leaver = std::make_unique<Transaction>(2, &locks, &wal);
    committer.JoinCommitWindow();
    leaver->JoinCommitWindow();
    Status committed;
    std::thread t([&]() { committed = committer.Commit(); });
    AwaitCommitWaiters(wal, 1);
    switch (leave) {
      case Leave::kAbort:
        ASSERT_TRUE(leaver->Abort().ok());
        break;
      case Leave::kDestructor:
        leaver.reset();
        break;
      case Leave::kDroppedCommit:
        fault.Arm(failpoints::kWalAppend,
                  FaultSpec::ErrorNth(Status::IOError("drop"), 1));
        EXPECT_TRUE(leaver->Commit().IsIOError());
        EXPECT_EQ(leaver->state(), Transaction::State::kAborted);
        break;
    }
    t.join();
    EXPECT_TRUE(committed.ok());
    const WalStats stats = wal.wal_stats();
    EXPECT_EQ(stats.commits, 1u);
    EXPECT_EQ(stats.syncs, 1u);
    EXPECT_EQ(stats.batched_commits, 0u);
    EXPECT_EQ(wal.backlog().commit_window, 0u);
  }
}

// An explicit transaction never joins the window; its commit waits for the
// members in flight and completes with their sync.
TEST(GroupCommitWalTest, ExplicitCommitCompletesWhileMembersInFlight) {
  Wal wal(DiskProfile::Null());
  wal.set_group_commit(true);
  LockManager locks;
  Transaction member(1, &locks, &wal);
  member.JoinCommitWindow();
  Transaction explicit_txn(2, &locks, &wal);
  Status committed;
  std::thread t([&]() { committed = explicit_txn.Commit(); });
  AwaitCommitWaiters(wal, 1);
  ASSERT_TRUE(member.Commit().ok());
  t.join();
  EXPECT_TRUE(committed.ok());
  const WalStats stats = wal.wal_stats();
  EXPECT_EQ(stats.commits, 2u);
  EXPECT_EQ(stats.syncs, 1u);
  EXPECT_EQ(stats.batched_commits, 1u);
}

// Two writers into one dataset: each auto-commit op joins the window, so a
// commit made while another op is in flight shares that op's sync. The test
// holds one seat in the window until both writers wait in their first
// commit, so at least those two commits share one sync on any host — on a
// single CPU ops overlap only where the scheduler preempts one mid-op.
TEST(GroupCommitWalTest, TwoWriterDatasetBatchesSyncs) {
  Env env(TestEnv());
  DatasetOptions o;
  o.strategy = MaintenanceStrategy::kMutableBitmap;
  o.build_cc = BuildCcMethod::kLock;
  o.writer_threads = 2;
  o.mem_budget_bytes = 64 << 10;
  Dataset ds(&env, o);
  ASSERT_TRUE(ds.wal()->JoinCommitWindow());
  const uint64_t per_writer = 2000;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (uint64_t t = 0; t < 2; t++) {
    threads.emplace_back([&, t]() {
      for (uint64_t i = 0; i < per_writer; i++) {
        const uint64_t id = 1 + t * per_writer + i;
        if (!ds.Upsert(MakeTweet(id, id % 40, id)).ok()) failures++;
      }
    });
  }
  AwaitCommitWaiters(*ds.wal(), 2);
  EXPECT_EQ(ds.wal()->wal_stats().syncs, 0u);
  ds.wal()->LeaveCommitWindow();
  for (auto& th : threads) th.join();
  ASSERT_TRUE(ds.WaitForMaintenance().ok());
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(ds.num_records(), 2 * per_writer);
  const WalStats stats = ds.wal()->wal_stats();
  EXPECT_GE(stats.commits, 2 * per_writer);
  EXPECT_GT(stats.syncs, 0u);
  EXPECT_LT(stats.syncs, stats.commits);
  EXPECT_EQ(stats.batched_commits, stats.commits - stats.syncs);
  EXPECT_EQ(ds.wal()->backlog().commit_window, 0u);
}

}  // namespace
}  // namespace auxlsm
