// Sustained-overload stress for decoupled merge scheduling (PR 5): a small
// memory budget drives continuous flush cycles while merge work piles up on
// the scheduler's per-tree merge queues. The decoupled pipeline must
//   - keep sealing/flushing while merge jobs are backlogged (a stuck merge
//     on one queue never blocks the next install),
//   - keep the merge-round backlog bounded by merge_queue_depth (+1 for the
//     round the in-flight cycle enqueues),
//   - yield exactly the query-visible state the legacy serial path produces,
//     across all four maintenance strategies,
//   - surface merge-queue errors from ingest / Flush / WaitForMaintenance
//     and recover once TakeBackgroundError() clears them.
// This suite runs in the ThreadSanitizer CI job.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "core/dataset.h"
#include "exec/maintenance.h"

namespace auxlsm {
namespace {

EnvOptions TestEnv() {
  EnvOptions o;
  o.page_size = 1024;
  o.cache_pages = 1 << 16;
  o.cache_shards = 4;
  o.disk_profile = DiskProfile::Null();
  return o;
}

TweetRecord MakeTweet(uint64_t id, uint64_t user, uint64_t time) {
  TweetRecord r;
  r.id = id;
  r.user_id = user;
  r.location = "NV";
  r.creation_time = time;
  r.message = std::string(60, 'o');
  return r;
}

struct OverloadConfig {
  MaintenanceStrategy strategy;
  bool merge_repair;
  BuildCcMethod cc;
  const char* name;
};

class OverloadStrategyTest : public ::testing::TestWithParam<OverloadConfig> {
};

// Heavy ingest under a tiny budget with decoupled queues: parity with the
// serial path, bounded round backlog, clean drain. The sampler thread
// watches the backlog while writers run; its bound (depth + 1: `depth`
// admitted rounds plus the one the in-flight cycle enqueues) is the
// backpressure contract.
TEST_P(OverloadStrategyTest, DecoupledOverloadMatchesSerialAndBoundsBacklog) {
  const OverloadConfig cfg = GetParam();
  const uint64_t n = 3000;
  const uint64_t writers = 4;
  const size_t depth = 2;

  Env menv(TestEnv());
  DatasetOptions mo;
  mo.strategy = cfg.strategy;
  mo.merge_repair = cfg.merge_repair;
  mo.build_cc = cfg.cc;
  mo.writer_threads = writers;
  mo.merge_queue_depth = depth;
  mo.mem_budget_bytes = 32 << 10;  // sustained overload: flush every ~200 ops
  Dataset multi(&menv, mo);

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::atomic<size_t> max_rounds_seen{0};
  std::thread sampler([&]() {
    while (!done.load(std::memory_order_acquire)) {
      const size_t rounds = multi.maintenance()->PendingMergeRounds();
      size_t prev = max_rounds_seen.load();
      while (rounds > prev &&
             !max_rounds_seen.compare_exchange_weak(prev, rounds)) {
      }
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> threads;
  for (uint64_t t = 0; t < writers; t++) {
    threads.emplace_back([&, t]() {
      for (uint64_t id = 1 + t; id <= n; id += writers) {
        if (!multi.Upsert(MakeTweet(id, id % 50, id)).ok()) {
          failures.fetch_add(1);
        }
        if (id % 5 == 0 && !multi.Delete(id).ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  done.store(true, std::memory_order_release);
  sampler.join();
  EXPECT_EQ(failures.load(), 0);
  ASSERT_TRUE(multi.WaitForMaintenance().ok());
  EXPECT_TRUE(multi.TakeBackgroundError().ok());
  EXPECT_EQ(multi.maintenance()->PendingMergeJobs(), 0u);
  // Per-tree merge-pending accounting balances once the queues drain.
  EXPECT_EQ(multi.primary()->merge_pending_jobs(), 0u);
  EXPECT_GT(multi.ingest_stats().flushes, 1u);

  // Bounded backlog: writers wait at `depth` before launching a cycle, and
  // each of the <= `writers` threads parked between that wait and the
  // launch CAS can add one stale round.
  EXPECT_LE(max_rounds_seen.load(), depth + writers);

  // Serial reference over the same logical op stream.
  Env senv(TestEnv());
  DatasetOptions so = mo;
  so.writer_threads = 1;
  so.merge_queue_depth = 0;
  Dataset single(&senv, so);
  for (uint64_t id = 1; id <= n; id++) {
    ASSERT_TRUE(single.Upsert(MakeTweet(id, id % 50, id)).ok());
    if (id % 5 == 0) ASSERT_TRUE(single.Delete(id).ok());
  }

  EXPECT_EQ(multi.num_records(), single.num_records());
  for (uint64_t id = 1; id <= n; id += 97) {
    TweetRecord a, b;
    const Status sa = multi.GetById(id, &a);
    const Status sb = single.GetById(id, &b);
    ASSERT_EQ(sa.ok(), sb.ok()) << "id " << id;
    if (sa.ok()) EXPECT_EQ(a.user_id, b.user_id) << "id " << id;
  }
  SecondaryQueryOptions q;
  QueryResult ra, rb;
  ASSERT_TRUE(multi.QueryUserRange(0, 49, q, &ra).ok());
  ASSERT_TRUE(single.QueryUserRange(0, 49, q, &rb).ok());
  EXPECT_EQ(ra.records.size(), rb.records.size());
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, OverloadStrategyTest,
    ::testing::Values(
        OverloadConfig{MaintenanceStrategy::kEager, false, BuildCcMethod::kNone,
                       "eager"},
        OverloadConfig{MaintenanceStrategy::kValidation, true,
                       BuildCcMethod::kNone, "validation_repair"},
        OverloadConfig{MaintenanceStrategy::kMutableBitmap, false,
                       BuildCcMethod::kSideFile, "bitmap_sidefile"},
        OverloadConfig{MaintenanceStrategy::kMutableBitmap, false,
                       BuildCcMethod::kLock, "bitmap_lock"},
        OverloadConfig{MaintenanceStrategy::kDeletedKeyBtree, false,
                       BuildCcMethod::kNone, "deleted_key"}),
    [](const auto& info) { return std::string(info.param.name); });

// The decoupling property, deterministically: a merge job stuck on one queue
// must not prevent flush cycles (seal -> build -> install) from completing.
TEST(DecoupledMergeTest, StuckMergeJobDoesNotBlockFlushCycles) {
  Env env(TestEnv());
  DatasetOptions o;
  o.strategy = MaintenanceStrategy::kEager;
  o.writer_threads = 2;
  o.merge_queue_depth = 8;
  o.mem_budget_bytes = 16 << 10;
  Dataset ds(&env, o);

  // Occupy one merge queue with a job that blocks until released.
  std::promise<void> gate;
  std::shared_future<void> released = gate.get_future().share();
  int gate_key = 0;
  ds.maintenance()->EnqueueMergeRound(
      {MaintenanceScheduler::MergeJob{&gate_key, [released]() {
         released.wait();
         return Status::OK();
       }}});

  const uint64_t flushes_before = ds.ingest_stats().flushes;
  uint64_t id = 1;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (ds.ingest_stats().flushes < flushes_before + 3 &&
         std::chrono::steady_clock::now() < deadline) {
    ASSERT_TRUE(ds.Upsert(MakeTweet(id, id % 10, id)).ok());
    id++;
  }
  const bool progressed = ds.ingest_stats().flushes >= flushes_before + 3;
  const bool merge_still_stuck = ds.maintenance()->PendingMergeJobs() > 0;
  gate.set_value();
  ASSERT_TRUE(ds.WaitForMaintenance().ok());
  EXPECT_TRUE(progressed)
      << "flush cycles stalled behind a backlogged merge queue";
  EXPECT_TRUE(merge_still_stuck);
}

// Merge-queue failures are sticky and must surface everywhere the pipeline
// reports errors — the next ingest, Flush, WaitForMaintenance — and
// TakeBackgroundError() must clear them so the dataset recovers.
TEST(DecoupledMergeTest, MergeErrorsSurfaceAndClear) {
  Env env(TestEnv());
  DatasetOptions o;
  o.strategy = MaintenanceStrategy::kEager;
  o.writer_threads = 2;
  o.merge_queue_depth = 4;
  o.mem_budget_bytes = 1 << 20;
  Dataset ds(&env, o);
  ASSERT_TRUE(ds.Upsert(MakeTweet(1, 1, 1)).ok());

  int key = 0;
  ds.maintenance()->EnqueueMergeRound(
      {MaintenanceScheduler::MergeJob{&key, []() {
         return Status::InvalidArgument("injected merge failure");
       }}});
  ASSERT_TRUE(ds.maintenance()->DrainMerges().IsInvalidArgument());

  // Sticky: every pipeline surface reports it, repeatedly.
  EXPECT_TRUE(ds.Upsert(MakeTweet(2, 2, 2)).IsInvalidArgument());
  EXPECT_TRUE(ds.FlushAll().IsInvalidArgument());
  EXPECT_TRUE(ds.WaitForMaintenance().IsInvalidArgument());
  EXPECT_TRUE(ds.Upsert(MakeTweet(3, 3, 3)).IsInvalidArgument());

  // Taking the error re-arms the pipeline.
  EXPECT_TRUE(ds.TakeBackgroundError().IsInvalidArgument());
  EXPECT_TRUE(ds.TakeBackgroundError().ok());  // cleared
  EXPECT_TRUE(ds.Upsert(MakeTweet(4, 4, 4)).ok());
  EXPECT_TRUE(ds.FlushAll().ok());
  TweetRecord r;
  EXPECT_TRUE(ds.GetById(4, &r).ok());
}

// Regression (PR 6): a decoupled merge-queue job that fails AFTER capturing
// its range pick — here a concurrent bitmap build failing right after
// publishing its build links — must release the links, keep the per-tree
// merge accounting balanced, and leave the queue drainable. Before the fix,
// the failed job left the build links published and the round accounting
// wedged, so every later merge pick stalled behind a round that could never
// finish. Driven deterministically through the maintenance.concurrent_build
// failpoint with a permanent (non-retryable) error.
TEST(DecoupledMergeTest, FailedConcurrentBuildReleasesPicksAndQueue) {
  FaultInjector fault(17);
  EnvOptions eo = TestEnv();
  eo.fault_injector = &fault;
  Env env(eo);
  DatasetOptions o;
  o.strategy = MaintenanceStrategy::kMutableBitmap;
  o.build_cc = BuildCcMethod::kLock;
  o.writer_threads = 2;
  o.merge_queue_depth = 2;
  o.mem_budget_bytes = 24 << 10;
  o.fault_injector = &fault;
  o.maintenance_retry_limit = 3;  // permanent errors must not consume it
  Dataset ds(&env, o);

  fault.Arm(failpoints::kConcurrentBuild,
            FaultSpec::ErrorNth(Status::Corruption("injected build wreck"), 1));
  // Sustained ingest until merge rounds run; once the armed build fails the
  // dataset degrades and later ops fail fast — tolerated here.
  uint64_t committed = 0;
  for (uint64_t id = 1; id <= 4000; id++) {
    if (ds.Upsert(MakeTweet(id, id % 30, id)).ok()) committed++;
    if (fault.site_stats(failpoints::kConcurrentBuild).fires > 0 &&
        id % 200 == 0) {
      break;
    }
  }
  ASSERT_GT(fault.site_stats(failpoints::kConcurrentBuild).fires, 0u)
      << "workload never reached a concurrent merge build";

  // The failure surfaces through the pipeline's error plumbing...
  EXPECT_FALSE(ds.WaitForMaintenance().ok());
  // ...and permanent errors never burn retry budget.
  EXPECT_EQ(ds.maintenance_stats().retries_attempted.load(), 0u);

  // Take the sticky error(s); the queue must be fully drained — a wedged
  // round would leave PendingMergeRounds stuck above zero.
  for (int i = 0; i < 4 && !ds.TakeBackgroundError().ok(); i++) {
  }
  EXPECT_EQ(ds.health(), DatasetHealth::kHealthy);
  EXPECT_EQ(ds.maintenance()->PendingMergeRounds(), 0u);
  EXPECT_EQ(ds.maintenance()->PendingMergeJobs(), 0u);
  EXPECT_EQ(ds.primary()->merge_pending_jobs(), 0u);

  // The failed build's links must be gone from every surviving component:
  // a leaked link would redirect later bitmap deletes into a build that
  // will never install.
  for (const auto& c : ds.primary()->Components()) {
    EXPECT_EQ(c->build_link(), nullptr);
  }
  for (const auto& c : ds.primary_key_index()->Components()) {
    EXPECT_EQ(c->build_link(), nullptr);
  }

  // The pipeline re-arms end to end: ingest, maintenance, merges, reads.
  fault.DisarmAll();
  for (uint64_t id = 10000; id < 10400; id++) {
    ASSERT_TRUE(ds.Upsert(MakeTweet(id, id % 30, id)).ok());
  }
  ASSERT_TRUE(ds.WaitForMaintenance().ok());
  ASSERT_TRUE(ds.FlushAll().ok());
  ASSERT_TRUE(ds.MergeAllIndexes().ok());
  TweetRecord r;
  EXPECT_TRUE(ds.GetById(10001, &r).ok());
  EXPECT_GT(ds.num_records(), 0u);
}

// Explicit transactions under decoupled kLock overload: a writer holding
// record locks must never park on merge backpressure — the §5.3 Lock-method
// builder may be blocked on one of its locks, and waiting on the merge from
// inside the transaction would deadlock (no timeout breaks it). This test
// hangs (and trips the CI per-test timeout) if that wait is ever
// reintroduced for explicit-txn threads.
TEST(DecoupledMergeTest, ExplicitTxnsNeverParkOnMergeBackpressure) {
  Env env(TestEnv());
  DatasetOptions o;
  o.strategy = MaintenanceStrategy::kMutableBitmap;
  o.build_cc = BuildCcMethod::kLock;
  o.writer_threads = 3;
  o.merge_queue_depth = 1;  // saturates quickly under this load
  o.mem_budget_bytes = 24 << 10;
  Dataset ds(&env, o);

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (uint64_t t = 0; t < 3; t++) {
    threads.emplace_back([&, t]() {
      for (uint64_t batch = 0; batch < 40; batch++) {
        auto txn = ds.Begin();
        for (uint64_t i = 0; i < 25; i++) {
          const uint64_t id = 1 + t + 3 * (batch * 25 + i);
          if (!ds.UpsertTxn(MakeTweet(id, id % 30, id), txn.get()).ok()) {
            failures.fetch_add(1);
          }
        }
        if (batch % 4 == 3) {
          if (!txn->Abort().ok()) failures.fetch_add(1);
        } else if (!txn->Commit().ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  ASSERT_TRUE(ds.WaitForMaintenance().ok());
  EXPECT_TRUE(ds.TakeBackgroundError().ok());
  EXPECT_GT(ds.num_records(), 0u);
}

// Coupled configurations must not be affected by the new plumbing: with
// merge_queue_depth = 0 the queues stay unused and WaitForMaintenance /
// TakeBackgroundError are no-ops on a healthy dataset.
TEST(DecoupledMergeTest, CoupledPathKeepsQueuesIdle) {
  Env env(TestEnv());
  DatasetOptions o;
  o.strategy = MaintenanceStrategy::kEager;
  o.writer_threads = 4;
  o.mem_budget_bytes = 32 << 10;
  Dataset ds(&env, o);
  for (uint64_t id = 1; id <= 800; id++) {
    ASSERT_TRUE(ds.Upsert(MakeTweet(id, id % 10, id)).ok());
  }
  ASSERT_TRUE(ds.WaitForMaintenance().ok());
  ASSERT_NE(ds.maintenance(), nullptr);
  EXPECT_EQ(ds.maintenance()->PendingMergeJobs(), 0u);
  EXPECT_EQ(ds.maintenance()->PendingMergeRounds(), 0u);
  EXPECT_TRUE(ds.TakeBackgroundError().ok());
}

}  // namespace
}  // namespace auxlsm
