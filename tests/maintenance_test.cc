// Maintenance engine (exec/maintenance.h): on a multi-queue device (whose
// tasks bind to queues and whose large merges read key-range partitions) it
// must produce datasets indistinguishable from the single-queue engine, run
// every task inline, and stay correct under concurrent readers.
#include "exec/maintenance.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <thread>

#include "core/dataset.h"
#include "core/point_lookup.h"
#include "format/key_codec.h"
#include "io/io_engine.h"

namespace auxlsm {
namespace {

EnvOptions TestEnv(size_t cache_shards = 1) {
  EnvOptions o;
  o.page_size = 4096;
  o.cache_pages = 1 << 16;
  o.cache_shards = cache_shards;
  o.disk_profile = DiskProfile::Null();
  return o;
}

TweetRecord MakeTweet(uint64_t id, uint64_t user, uint64_t time) {
  TweetRecord r;
  r.id = id;
  r.user_id = user;
  r.location = "WA";
  r.creation_time = time;
  r.message = "m" + std::to_string(id);
  return r;
}

EnvOptions FourQueueEnv() {
  EnvOptions o = TestEnv();
  o.io_queues = 4;
  return o;
}

DatasetOptions BaseOptions(MaintenanceStrategy strategy) {
  DatasetOptions o;
  o.strategy = strategy;
  o.mem_budget_bytes = 64 << 10;  // frequent automatic flushes and merges
  o.max_mergeable_bytes = 4 << 20;
  return o;
}

// Ingests a deterministic workload of upserts and deletes. The padded
// messages make the primary tree's largest merges exceed the 1 MiB at which
// a multi-queue device partitions a merge.
void RunWorkload(Dataset* ds, uint64_t ops) {
  for (uint64_t i = 1; i <= ops; i++) {
    const uint64_t id = i % 700;
    if (i % 13 == 0) {
      ASSERT_TRUE(ds->Delete(id).ok());
    } else {
      TweetRecord r = MakeTweet(id, id % 50, i);
      r.message.append(1000, 'x');
      ASSERT_TRUE(ds->Upsert(r).ok());
    }
  }
}

// Reconciled view of the dataset: id -> user for every live record.
std::map<uint64_t, uint64_t> LiveRecords(Dataset* ds) {
  std::map<uint64_t, uint64_t> out;
  for (uint64_t id = 0; id < 700; id++) {
    TweetRecord rec;
    if (ds->GetById(id, &rec).ok()) out[id] = rec.user_id;
  }
  return out;
}

class MaintenanceParityTest
    : public ::testing::TestWithParam<MaintenanceStrategy> {};

TEST_P(MaintenanceParityTest, MultiQueueEngineMatchesSingleQueueEngine) {
  const MaintenanceStrategy strategy = GetParam();
  Env q1_env(TestEnv());
  Dataset q1(&q1_env, BaseOptions(strategy));
  ASSERT_NE(q1.maintenance(), nullptr);
  RunWorkload(&q1, 3000);
  EXPECT_GT(q1.ingest_stats().flushes, 0u);
  EXPECT_GT(q1.ingest_stats().merges, 0u);

  // The same engine on a 4-queue device: its tasks bind to different device
  // queues and its large merges read key-range partitions.
  Env q4_env(FourQueueEnv());
  Dataset q4(&q4_env, BaseOptions(strategy));
  RunWorkload(&q4, 3000);
  EXPECT_EQ(q4.ingest_stats().flushes, q1.ingest_stats().flushes);
  EXPECT_EQ(q4.ingest_stats().merges, q1.ingest_stats().merges);
  EXPECT_EQ(LiveRecords(&q4), LiveRecords(&q1));
  EXPECT_EQ(q4.num_records(), q1.num_records());

  // Secondary queries agree too (every user bucket).
  SecondaryQueryOptions q;
  for (uint64_t user = 0; user < 50; user++) {
    QueryResult r1, r4;
    ASSERT_TRUE(q1.QueryUserRange(user, user, q, &r1).ok());
    ASSERT_TRUE(q4.QueryUserRange(user, user, q, &r4).ok());
    std::set<uint64_t> ids_1, ids_4;
    for (const auto& r : r1.records) ids_1.insert(r.id);
    for (const auto& r : r4.records) ids_4.insert(r.id);
    EXPECT_EQ(ids_4, ids_1) << "user " << user;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, MaintenanceParityTest,
    ::testing::Values(MaintenanceStrategy::kEager,
                      MaintenanceStrategy::kValidation,
                      MaintenanceStrategy::kMutableBitmap,
                      MaintenanceStrategy::kDeletedKeyBtree),
    [](const auto& info) {
      std::string name = StrategyName(info.param);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(MaintenanceParityTest, MergeRepairParity) {
  // Validation with merge repair exercises the repair-in-task path, here on
  // a single-queue and a 4-queue device.
  DatasetOptions o = BaseOptions(MaintenanceStrategy::kValidation);
  o.merge_repair = true;
  Env e1(TestEnv()), e4(FourQueueEnv());
  Dataset q1(&e1, o);
  Dataset q4(&e4, o);
  RunWorkload(&q1, 3000);
  RunWorkload(&q4, 3000);
  EXPECT_GT(q4.ingest_stats().repairs, 0u);
  EXPECT_EQ(q4.ingest_stats().repairs, q1.ingest_stats().repairs);
  EXPECT_EQ(LiveRecords(&q4), LiveRecords(&q1));
}

TEST(MaintenanceStressTest, LookupsDuringConcurrentFlushAndMerge) {
  // Flush + merge on the writer thread while reader threads hammer point
  // lookups and bulk lookups; every observed answer must be a value the key
  // really had, and the final state must reconcile with a reader-free copy.
  Env env(TestEnv(/*cache_shards=*/8));
  DatasetOptions o = BaseOptions(MaintenanceStrategy::kEager);
  o.mem_budget_bytes = 16 << 10;  // small budget: maintenance churns
  Dataset ds(&env, o);
  ASSERT_NE(ds.maintenance(), nullptr);

  constexpr uint64_t kKeys = 1500;
  constexpr uint64_t kOps = 6000;
  std::atomic<uint64_t> watermark{0};  // ids < watermark are durably present
  std::atomic<bool> done{false};
  std::atomic<uint64_t> reader_checks{0};
  std::atomic<uint64_t> reader_errors{0};

  auto reader = [&]() {
    uint64_t seed = 12345;
    while (!done.load(std::memory_order_acquire)) {
      const uint64_t wm = watermark.load(std::memory_order_acquire);
      if (wm == 0) {
        std::this_thread::yield();
        continue;
      }
      seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
      const uint64_t id = (seed >> 33) % wm;
      TweetRecord rec;
      if (!ds.GetById(id, &rec).ok() || rec.id != id ||
          rec.user_id != id % 50) {
        reader_errors.fetch_add(1);
      }
      // Bulk lookup over a small sorted id range against the primary tree.
      std::vector<FetchRequest> reqs;
      for (uint64_t k = id; k < std::min(id + 16, wm); k++) {
        reqs.push_back(FetchRequest{EncodeU64(k), 0});
      }
      std::vector<FetchedEntry> out;
      PointLookupOptions lopts;
      if (!BulkPointLookup(*ds.primary(), reqs, lopts, &out).ok() ||
          out.size() != reqs.size()) {
        reader_errors.fetch_add(1);
      }
      reader_checks.fetch_add(1);
    }
  };
  // Secondary queries and scans during maintenance: every id a user-bucket
  // query returns must really belong to that bucket, and no query may fail.
  auto query_reader = [&]() {
    uint64_t user = 0;
    while (!done.load(std::memory_order_acquire)) {
      if (watermark.load(std::memory_order_acquire) == 0) {
        std::this_thread::yield();
        continue;
      }
      SecondaryQueryOptions q;
      QueryResult res;
      if (!ds.QueryUserRange(user, user, q, &res).ok()) {
        reader_errors.fetch_add(1);
      }
      for (const auto& r : res.records) {
        if (r.user_id != user || r.id % 50 != user) reader_errors.fetch_add(1);
      }
      ScanResult sr;
      if (!ds.ScanTimeRange(1, kOps, &sr).ok()) reader_errors.fetch_add(1);
      user = (user + 7) % 50;
      reader_checks.fetch_add(1);
    }
  };
  std::thread r1(reader), r2(query_reader);

  // Writer: insert each id exactly once (stable expected values), with the
  // shared memory budget driving automatic flushes and merges underneath
  // the readers.
  for (uint64_t i = 0; i < kOps; i++) {
    const uint64_t id = i % kKeys;
    if (id < watermark.load(std::memory_order_relaxed)) {
      // Re-upsert with identical contents (ts advances; value stable).
      ASSERT_TRUE(ds.Upsert(MakeTweet(id, id % 50, i + 1)).ok());
    } else {
      ASSERT_TRUE(ds.Upsert(MakeTweet(id, id % 50, i + 1)).ok());
      watermark.store(id + 1, std::memory_order_release);
    }
  }
  ASSERT_TRUE(ds.FlushAll().ok());
  done.store(true, std::memory_order_release);
  r1.join();
  r2.join();

  EXPECT_GT(reader_checks.load(), 0u);
  EXPECT_EQ(reader_errors.load(), 0u);
  EXPECT_GT(ds.ingest_stats().merges, 0u);

  // Final reconciled state matches a copy maintained without readers.
  Env env2(TestEnv());
  Dataset serial(&env2, o);
  for (uint64_t i = 0; i < kOps; i++) {
    const uint64_t id = i % kKeys;
    ASSERT_TRUE(serial.Upsert(MakeTweet(id, id % 50, i + 1)).ok());
  }
  ASSERT_TRUE(serial.FlushAll().ok());
  EXPECT_EQ(ds.num_records(), serial.num_records());
  for (uint64_t id = 0; id < kKeys; id++) {
    TweetRecord a, b;
    ASSERT_TRUE(ds.GetById(id, &a).ok());
    ASSERT_TRUE(serial.GetById(id, &b).ok());
    EXPECT_EQ(a.user_id, b.user_id);
    EXPECT_EQ(a.message, b.message);
  }
}

TEST(MaintenanceSchedulerTest, SerialSchedulerRunsInline) {
  IoEngine io(DeviceProfile::FromDisk(DiskProfile::Null(), 4));
  MaintenanceOptions mo;
  mo.io = &io;
  MaintenanceScheduler scheduler(mo);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> order;
  std::vector<uint32_t> queues;
  auto task = [&](int id, Status st) {
    return [&, id, st]() {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      order.push_back(id);
      queues.push_back(io.BoundQueue());
      return st;
    };
  };
  std::vector<std::function<Status()>> tasks;
  tasks.push_back(task(0, Status::OK()));
  tasks.push_back(task(1, Status::IOError("x")));
  // A nested RunAll, as CorrelatedMerge runs inside a RunMerges task: its
  // inner tasks run inline too, before the outer list moves on, each bound
  // by its own index.
  tasks.push_back([&]() {
    std::vector<std::function<Status()>> inner;
    for (int i = 0; i < 3; i++) inner.push_back(task(10 + i, Status::OK()));
    return scheduler.RunAll(std::move(inner));
  });
  tasks.push_back(task(3, Status::Busy("y")));
  tasks.push_back(task(4, Status::OK()));
  // All tasks run even past an error; the first error is returned.
  EXPECT_TRUE(scheduler.RunAll(std::move(tasks)).IsIOError());
  EXPECT_EQ(order, (std::vector<int>{0, 1, 10, 11, 12, 3, 4}));
  // Task i charges device queue i % 4, nested tasks included.
  EXPECT_EQ(queues, (std::vector<uint32_t>{0, 1, 0, 1, 2, 3, 0}));
  // Unbound again once RunAll returns.
  EXPECT_EQ(io.BoundQueue(), 0u);
}

}  // namespace
}  // namespace auxlsm
