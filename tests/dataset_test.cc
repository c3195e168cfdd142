// End-to-end correctness of the Dataset under every maintenance strategy:
// whatever the strategy, queries must return exactly the records a reference
// model (std::map) holds.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/random.h"
#include "core/dataset.h"
#include "workload/tweet_gen.h"

namespace auxlsm {
namespace {

EnvOptions TestEnv() {
  EnvOptions o;
  o.page_size = 1024;
  o.cache_pages = 1 << 16;
  o.disk_profile = DiskProfile::Null();
  return o;
}

DatasetOptions BaseOptions(MaintenanceStrategy s) {
  DatasetOptions o;
  o.strategy = s;
  o.mem_budget_bytes = 64 << 10;  // small budget: force flushes and merges
  o.max_mergeable_bytes = 1 << 30;
  if (s == MaintenanceStrategy::kValidation) o.merge_repair = true;
  return o;
}

TweetRecord MakeTweet(uint64_t id, uint64_t user, uint64_t time) {
  TweetRecord r;
  r.id = id;
  r.user_id = user;
  r.location = "CA";
  r.creation_time = time;
  r.message = std::string(60, 'm');
  return r;
}

class StrategyTest : public ::testing::TestWithParam<MaintenanceStrategy> {};

TEST_P(StrategyTest, InsertThenGetById) {
  Env env(TestEnv());
  Dataset ds(&env, BaseOptions(GetParam()));
  for (uint64_t i = 1; i <= 300; i++) {
    bool inserted = false;
    ASSERT_TRUE(ds.Insert(MakeTweet(i, i % 10, i), &inserted).ok());
    EXPECT_TRUE(inserted);
  }
  TweetRecord r;
  ASSERT_TRUE(ds.GetById(123, &r).ok());
  EXPECT_EQ(r.user_id, 123 % 10);
  EXPECT_TRUE(ds.GetById(999, &r).IsNotFound());
  EXPECT_EQ(ds.num_records(), 300u);
}

TEST_P(StrategyTest, DuplicateInsertIgnored) {
  Env env(TestEnv());
  Dataset ds(&env, BaseOptions(GetParam()));
  bool inserted = false;
  ASSERT_TRUE(ds.Insert(MakeTweet(1, 5, 1), &inserted).ok());
  EXPECT_TRUE(inserted);
  ASSERT_TRUE(ds.Insert(MakeTweet(1, 7, 2), &inserted).ok());
  EXPECT_FALSE(inserted);
  TweetRecord r;
  ASSERT_TRUE(ds.GetById(1, &r).ok());
  EXPECT_EQ(r.user_id, 5u);  // the original record survives
  EXPECT_EQ(ds.ingest_stats().duplicates_ignored, 1u);
}

TEST_P(StrategyTest, UpsertReplacesRecord) {
  Env env(TestEnv());
  Dataset ds(&env, BaseOptions(GetParam()));
  ASSERT_TRUE(ds.Upsert(MakeTweet(1, 5, 2015)).ok());
  ASSERT_TRUE(ds.FlushAll().ok());  // old version lands on disk
  ASSERT_TRUE(ds.Upsert(MakeTweet(1, 7, 2018)).ok());
  TweetRecord r;
  ASSERT_TRUE(ds.GetById(1, &r).ok());
  EXPECT_EQ(r.user_id, 7u);
  EXPECT_EQ(ds.num_records(), 1u);
}

TEST_P(StrategyTest, DeleteRemovesRecordAcrossFlush) {
  Env env(TestEnv());
  Dataset ds(&env, BaseOptions(GetParam()));
  ASSERT_TRUE(ds.Upsert(MakeTweet(1, 5, 1)).ok());
  ASSERT_TRUE(ds.Upsert(MakeTweet(2, 6, 2)).ok());
  ASSERT_TRUE(ds.FlushAll().ok());
  ASSERT_TRUE(ds.Delete(1).ok());
  TweetRecord r;
  EXPECT_TRUE(ds.GetById(1, &r).IsNotFound());
  ASSERT_TRUE(ds.GetById(2, &r).ok());
  EXPECT_EQ(ds.num_records(), 1u);
  // Deleting a missing key is a no-op.
  ASSERT_TRUE(ds.Delete(12345).ok());
}

TEST_P(StrategyTest, SecondaryQueryAfterUpdatesReturnsCurrentRecords) {
  Env env(TestEnv());
  Dataset ds(&env, BaseOptions(GetParam()));
  // Insert 200 records with user ids 0..19, then move half to user 50.
  for (uint64_t i = 1; i <= 200; i++) {
    ASSERT_TRUE(ds.Upsert(MakeTweet(i, i % 20, i)).ok());
  }
  ASSERT_TRUE(ds.FlushAll().ok());
  for (uint64_t i = 1; i <= 200; i += 2) {
    ASSERT_TRUE(ds.Upsert(MakeTweet(i, 50, 1000 + i)).ok());
  }
  ASSERT_TRUE(ds.FlushAll().ok());

  SecondaryQueryOptions q;
  QueryResult res;
  ASSERT_TRUE(ds.QueryUserRange(50, 50, q, &res).ok());
  EXPECT_EQ(res.records.size(), 100u);
  for (const auto& r : res.records) EXPECT_EQ(r.user_id, 50u);

  // Old user ids of moved records must not resurface.
  QueryResult res2;
  ASSERT_TRUE(ds.QueryUserRange(0, 19, q, &res2).ok());
  EXPECT_EQ(res2.records.size(), 100u);
  for (const auto& r : res2.records) EXPECT_EQ(r.id % 2, 0u);
}

TEST_P(StrategyTest, IndexOnlyQueryMatchesFullQuery) {
  Env env(TestEnv());
  Dataset ds(&env, BaseOptions(GetParam()));
  for (uint64_t i = 1; i <= 150; i++) {
    ASSERT_TRUE(ds.Upsert(MakeTweet(i, i % 7, i)).ok());
  }
  for (uint64_t i = 1; i <= 150; i += 3) {
    ASSERT_TRUE(ds.Upsert(MakeTweet(i, (i % 7) + 100, 500 + i)).ok());
  }
  ASSERT_TRUE(ds.FlushAll().ok());

  SecondaryQueryOptions q;
  QueryResult full;
  ASSERT_TRUE(ds.QueryUserRange(3, 3, q, &full).ok());
  q.index_only = true;
  QueryResult idx;
  ASSERT_TRUE(ds.QueryUserRange(3, 3, q, &idx).ok());
  EXPECT_EQ(idx.keys.size(), full.records.size());
}

TEST_P(StrategyTest, RandomizedWorkloadMatchesReferenceModel) {
  Env env(TestEnv());
  Dataset ds(&env, BaseOptions(GetParam()));
  std::map<uint64_t, TweetRecord> model;  // id -> current record
  Random rng(99);
  uint64_t time = 0;
  for (int i = 0; i < 3000; i++) {
    const uint64_t id = 1 + rng.Uniform(400);
    const double dice = rng.NextDouble();
    if (dice < 0.15) {
      ASSERT_TRUE(ds.Delete(id).ok());
      model.erase(id);
    } else {
      const TweetRecord r = MakeTweet(id, rng.Uniform(30), ++time);
      ASSERT_TRUE(ds.Upsert(r).ok());
      model[id] = r;
    }
  }
  EXPECT_EQ(ds.num_records(), model.size());

  // Point queries agree.
  for (uint64_t id = 1; id <= 400; id += 13) {
    TweetRecord got;
    const Status st = ds.GetById(id, &got);
    if (model.count(id)) {
      ASSERT_TRUE(st.ok()) << "id " << id;
      EXPECT_EQ(got.user_id, model[id].user_id);
    } else {
      EXPECT_TRUE(st.IsNotFound()) << "id " << id;
    }
  }

  // Secondary queries agree for every user id bucket.
  SecondaryQueryOptions q;
  for (uint64_t user = 0; user < 30; user += 5) {
    std::set<uint64_t> expected;
    for (const auto& [id, r] : model) {
      if (r.user_id == user) expected.insert(id);
    }
    QueryResult res;
    ASSERT_TRUE(ds.QueryUserRange(user, user, q, &res).ok());
    std::set<uint64_t> got;
    for (const auto& r : res.records) got.insert(r.id);
    EXPECT_EQ(got, expected) << "user " << user;
  }
}

TEST_P(StrategyTest, TimeRangeScanCountsMatchModel) {
  Env env(TestEnv());
  Dataset ds(&env, BaseOptions(GetParam()));
  std::map<uint64_t, TweetRecord> model;
  // Three "eras" of data with flushes in between, then update some old
  // records (the filter-correctness trap from §3.1's running example).
  uint64_t time = 0;
  for (uint64_t i = 1; i <= 90; i++) {
    const TweetRecord r = MakeTweet(i, i % 5, ++time);
    ASSERT_TRUE(ds.Upsert(r).ok());
    model[i] = r;
    if (i % 30 == 0) ASSERT_TRUE(ds.FlushAll().ok());
  }
  for (uint64_t i = 1; i <= 30; i += 2) {
    const TweetRecord r = MakeTweet(i, i % 5, ++time);
    ASSERT_TRUE(ds.Upsert(r).ok());
    model[i] = r;
  }
  auto count_model = [&](uint64_t lo, uint64_t hi) {
    uint64_t n = 0;
    for (const auto& [id, r] : model) {
      if (r.creation_time >= lo && r.creation_time <= hi) n++;
    }
    return n;
  };
  for (auto [lo, hi] : std::vector<std::pair<uint64_t, uint64_t>>{
           {1, 30}, {31, 60}, {61, 90}, {91, 200}, {1, 200}}) {
    ScanResult res;
    ASSERT_TRUE(ds.ScanTimeRange(lo, hi, &res).ok());
    EXPECT_EQ(res.records_matched, count_model(lo, hi))
        << "range " << lo << "-" << hi;
  }
}

TEST_P(StrategyTest, MultipleSecondaryIndexesStayConsistent) {
  Env env(TestEnv());
  DatasetOptions o = BaseOptions(GetParam());
  o.secondary_indexes = {SecondaryIndexDef::UserId(),
                         SecondaryIndexDef::SyntheticAttribute(1),
                         SecondaryIndexDef::SyntheticAttribute(2)};
  Dataset ds(&env, o);
  for (uint64_t i = 1; i <= 120; i++) {
    ASSERT_TRUE(ds.Upsert(MakeTweet(i, i % 8, i)).ok());
  }
  for (uint64_t i = 1; i <= 120; i += 4) {
    ASSERT_TRUE(ds.Upsert(MakeTweet(i, (i % 8) + 200, 500 + i)).ok());
  }
  ASSERT_TRUE(ds.FlushAll().ok());
  SecondaryQueryOptions q;
  QueryResult res;
  ASSERT_TRUE(ds.QueryUserRange(200, 208, q, &res).ok());
  EXPECT_EQ(res.records.size(), 30u);
  EXPECT_EQ(ds.secondaries().size(), 3u);
}

TEST_P(StrategyTest, FullScanMatchesSecondaryQuery) {
  Env env(TestEnv());
  Dataset ds(&env, BaseOptions(GetParam()));
  for (uint64_t i = 1; i <= 250; i++) {
    ASSERT_TRUE(ds.Upsert(MakeTweet(i, i % 25, i)).ok());
  }
  ASSERT_TRUE(ds.FlushAll().ok());
  SecondaryQueryOptions q;
  QueryResult res;
  ASSERT_TRUE(ds.QueryUserRange(0, 4, q, &res).ok());
  ScanResult scan;
  ASSERT_TRUE(ds.FullScanUserRange(0, 4, &scan).ok());
  EXPECT_EQ(scan.records_matched, res.records.size());
  EXPECT_EQ(scan.records_scanned, 250u);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, StrategyTest,
    ::testing::Values(MaintenanceStrategy::kEager,
                      MaintenanceStrategy::kValidation,
                      MaintenanceStrategy::kMutableBitmap,
                      MaintenanceStrategy::kDeletedKeyBtree),
    [](const ::testing::TestParamInfo<MaintenanceStrategy>& info) {
      std::string name = StrategyName(info.param);
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(DatasetTest, EagerDoesIngestPointLookupsValidationDoesNot) {
  Env env(TestEnv());
  Dataset eager(&env, BaseOptions(MaintenanceStrategy::kEager));
  Dataset val(&env, BaseOptions(MaintenanceStrategy::kValidation));
  for (uint64_t i = 1; i <= 100; i++) {
    ASSERT_TRUE(eager.Upsert(MakeTweet(i, 1, i)).ok());
    ASSERT_TRUE(val.Upsert(MakeTweet(i, 1, i)).ok());
  }
  // Eager: one point lookup per upsert. Validation: none for upserts.
  EXPECT_EQ(eager.ingest_stats().ingest_point_lookups, 100u);
  EXPECT_EQ(val.ingest_stats().ingest_point_lookups, 0u);
}

TEST(DatasetTest, MutableBitmapMarksOldDiskEntries) {
  Env env(TestEnv());
  Dataset ds(&env, BaseOptions(MaintenanceStrategy::kMutableBitmap));
  for (uint64_t i = 1; i <= 50; i++) {
    ASSERT_TRUE(ds.Upsert(MakeTweet(i, 1, i)).ok());
  }
  ASSERT_TRUE(ds.FlushAll().ok());
  ASSERT_TRUE(ds.Upsert(MakeTweet(7, 2, 100)).ok());
  const auto comps = ds.primary()->Components();
  ASSERT_FALSE(comps.empty());
  ASSERT_NE(comps.back()->bitmap(), nullptr);
  EXPECT_EQ(comps.back()->bitmap()->CountSet(), 1u);
  // Primary and primary key index share the bitmap (§5.1).
  const auto kcomps = ds.primary_key_index()->Components();
  EXPECT_EQ(kcomps.back()->bitmap().get(), comps.back()->bitmap().get());
}

TEST(DatasetTest, MemBudgetTriggersSharedFlush) {
  Env env(TestEnv());
  DatasetOptions o = BaseOptions(MaintenanceStrategy::kEager);
  o.mem_budget_bytes = 16 << 10;
  Dataset ds(&env, o);
  for (uint64_t i = 1; i <= 500; i++) {
    ASSERT_TRUE(ds.Upsert(MakeTweet(i, 1, i)).ok());
  }
  EXPECT_GT(ds.ingest_stats().flushes, 0u);
  EXPECT_GT(ds.primary()->NumDiskComponents(), 0u);
  // All indexes flush together: component counts match.
  EXPECT_EQ(ds.primary()->NumDiskComponents(),
            ds.primary_key_index()->NumDiskComponents());
}

TEST(DatasetTest, NoPkIndexFallsBackToPrimaryForUniqueness) {
  Env env(TestEnv());
  DatasetOptions o = BaseOptions(MaintenanceStrategy::kEager);
  o.enable_primary_key_index = false;
  Dataset ds(&env, o);
  bool inserted = false;
  ASSERT_TRUE(ds.Insert(MakeTweet(1, 1, 1), &inserted).ok());
  EXPECT_TRUE(inserted);
  ASSERT_TRUE(ds.Insert(MakeTweet(1, 2, 2), &inserted).ok());
  EXPECT_FALSE(inserted);
  EXPECT_EQ(ds.primary_key_index(), nullptr);
}

TEST(DatasetTest, CorrelatedMergesKeepComponentsAligned) {
  Env env(TestEnv());
  DatasetOptions o = BaseOptions(MaintenanceStrategy::kValidation);
  o.correlated_merges = true;
  o.merge_repair = true;
  o.repair_bloom_opt = true;
  o.mem_budget_bytes = 16 << 10;
  Dataset ds(&env, o);
  for (uint64_t i = 1; i <= 800; i++) {
    ASSERT_TRUE(ds.Upsert(MakeTweet(i % 300 + 1, i % 10, i)).ok());
  }
  ASSERT_TRUE(ds.FlushAll().ok());
  EXPECT_EQ(ds.primary()->NumDiskComponents(),
            ds.primary_key_index()->NumDiskComponents());
  EXPECT_EQ(ds.primary()->NumDiskComponents(),
            ds.secondary(0)->tree->NumDiskComponents());
  // Queries remain correct.
  SecondaryQueryOptions q;
  QueryResult res;
  ASSERT_TRUE(ds.QueryUserRange(0, 9, q, &res).ok());
  EXPECT_EQ(res.records.size(), ds.num_records());
}

TEST(DatasetTest, TxnAbortRollsBackIngest) {
  Env env(TestEnv());
  Dataset ds(&env, BaseOptions(MaintenanceStrategy::kEager));
  ASSERT_TRUE(ds.Upsert(MakeTweet(1, 5, 1)).ok());
  auto txn = ds.Begin();
  ASSERT_TRUE(ds.UpsertTxn(MakeTweet(1, 9, 2), txn.get()).ok());
  ASSERT_TRUE(ds.UpsertTxn(MakeTweet(2, 9, 3), txn.get()).ok());
  ASSERT_TRUE(txn->Abort().ok());
  TweetRecord r;
  ASSERT_TRUE(ds.GetById(1, &r).ok());
  EXPECT_EQ(r.user_id, 5u);  // original value restored
  EXPECT_TRUE(ds.GetById(2, &r).IsNotFound());
}

TEST(DatasetTest, TxnAbortUnsetsMutableBitmapBit) {
  Env env(TestEnv());
  Dataset ds(&env, BaseOptions(MaintenanceStrategy::kMutableBitmap));
  ASSERT_TRUE(ds.Upsert(MakeTweet(1, 5, 1)).ok());
  ASSERT_TRUE(ds.FlushAll().ok());
  auto comps = ds.primary()->Components();
  ASSERT_EQ(comps.front()->bitmap()->CountSet(), 0u);
  auto txn = ds.Begin();
  ASSERT_TRUE(ds.DeleteTxn(1, txn.get()).ok());
  EXPECT_EQ(comps.front()->bitmap()->CountSet(), 1u);
  ASSERT_TRUE(txn->Abort().ok());
  EXPECT_EQ(comps.front()->bitmap()->CountSet(), 0u);
  TweetRecord r;
  ASSERT_TRUE(ds.GetById(1, &r).ok());
}

// Merges read their inputs around the buffer cache: a primary merge over a
// cache far smaller than its inputs leaves the primary-key index's cached
// pages resident, so the uniqueness check's next probe is still a hit.
TEST(DatasetTest, PrimaryMergeKeepsPkIndexPagesCached) {
  EnvOptions eo = TestEnv();
  eo.cache_pages = 48;  // far fewer pages than the merge's three inputs
  eo.cache_shards = 1;
  Env env(eo);
  DatasetOptions o = BaseOptions(MaintenanceStrategy::kEager);
  o.mem_budget_bytes = 1 << 30;  // flushes and merges only when asked
  Dataset ds(&env, o);
  for (uint64_t round = 0; round < 3; round++) {
    for (uint64_t i = 1; i <= 400; i++) {
      ASSERT_TRUE(ds.Upsert(MakeTweet(round * 1000 + i, i % 10, i)).ok());
    }
    ASSERT_TRUE(ds.FlushAll().ok());
  }
  ASSERT_EQ(ds.primary()->NumDiskComponents(), 3u);
  const Btree& pk = ds.primary_key_index()->Components().front()->tree();
  LeafEntry e;
  std::string backing;
  ASSERT_TRUE(pk.Get(Slice(pk.meta().min_key), &e, &backing).ok());
  const BufferCacheStats before = env.cache()->stats();

  ASSERT_TRUE(ds.primary()->MergeAll().ok());
  ASSERT_EQ(ds.primary()->NumDiskComponents(), 1u);
  const BufferCacheStats merged = env.cache()->stats();
  EXPECT_GT(merged.bypassed, before.bypassed + 100);

  ASSERT_TRUE(pk.Get(Slice(pk.meta().min_key), &e, &backing).ok());
  const BufferCacheStats after = env.cache()->stats();
  EXPECT_EQ(after.misses, merged.misses);
  EXPECT_EQ(after.hits, merged.hits + pk.meta().height);
  EXPECT_EQ(ds.num_records(), 1200u);
}

}  // namespace
}  // namespace auxlsm
