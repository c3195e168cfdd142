// Query-processing tests: every combination of the §3.2 point-lookup
// optimizations must return the same answer; §4.3's validation methods must
// agree with each other and with the Eager ground truth.
#include <gtest/gtest.h>

#include <set>

#include "common/random.h"
#include "core/dataset.h"
#include "core/point_lookup.h"
#include "format/key_codec.h"

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
  r.location = "NY";
  r.creation_time = time;
  r.message = std::string(50, 'x');
  return r;
}

// Loads a dataset with several components and some updates; returns expected
// ids per user bucket.
std::map<uint64_t, std::set<uint64_t>> Load(Dataset* ds) {
  std::map<uint64_t, std::set<uint64_t>> expected;
  std::map<uint64_t, uint64_t> current_user;
  uint64_t time = 0;
  for (uint64_t i = 1; i <= 400; i++) {
    const uint64_t user = i % 16;
    EXPECT_TRUE(ds->Upsert(MakeTweet(i, user, ++time)).ok());
    current_user[i] = user;
    if (i % 100 == 0) EXPECT_TRUE(ds->FlushAll().ok());
  }
  for (uint64_t i = 1; i <= 400; i += 5) {
    const uint64_t user = (i % 16) + 16;
    EXPECT_TRUE(ds->Upsert(MakeTweet(i, user, ++time)).ok());
    current_user[i] = user;
  }
  EXPECT_TRUE(ds->FlushAll().ok());
  for (const auto& [id, user] : current_user) expected[user].insert(id);
  return expected;
}

std::set<uint64_t> Ids(const QueryResult& res) {
  std::set<uint64_t> out;
  for (const auto& r : res.records) out.insert(r.id);
  return out;
}

struct LookupVariant {
  const char* name;
  SecondaryQueryOptions::LookupAlgo algo;
  bool stateful;
  bool blocked_bloom;
  bool pid;
  size_t batch_bytes;
};

class LookupVariantTest : public ::testing::TestWithParam<LookupVariant> {};

TEST_P(LookupVariantTest, AllVariantsReturnSameResult) {
  Env env(TestEnv());
  DatasetOptions o;
  o.maintenance_threads = 1;
  o.strategy = MaintenanceStrategy::kEager;
  o.mem_budget_bytes = 1 << 30;  // manual flushes only
  Dataset ds(&env, o);
  const auto expected = Load(&ds);

  const LookupVariant v = GetParam();
  SecondaryQueryOptions q;
  q.lookup = v.algo;
  q.stateful_btree_lookup = v.stateful;
  q.use_blocked_bloom = v.blocked_bloom;
  q.propagate_component_id = v.pid;
  q.batch_memory_bytes = v.batch_bytes;

  for (uint64_t user : {0u, 7u, 16u, 31u}) {
    QueryResult res;
    ASSERT_TRUE(ds.QueryUserRange(user, user, q, &res).ok());
    auto it = expected.find(user);
    const std::set<uint64_t> want =
        it == expected.end() ? std::set<uint64_t>{} : it->second;
    EXPECT_EQ(Ids(res), want) << v.name << " user " << user;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Variants, LookupVariantTest,
    ::testing::Values(
        LookupVariant{"naive", SecondaryQueryOptions::LookupAlgo::kNaive,
                      false, false, false, 16u << 20},
        LookupVariant{"batch", SecondaryQueryOptions::LookupAlgo::kBatched,
                      false, false, false, 16u << 20},
        LookupVariant{"batch_sLookup",
                      SecondaryQueryOptions::LookupAlgo::kBatched, true, false,
                      false, 16u << 20},
        LookupVariant{"batch_sLookup_bBF",
                      SecondaryQueryOptions::LookupAlgo::kBatched, true, true,
                      false, 16u << 20},
        LookupVariant{"batch_sLookup_bBF_pID",
                      SecondaryQueryOptions::LookupAlgo::kBatched, true, true,
                      true, 16u << 20},
        LookupVariant{"tiny_batches",
                      SecondaryQueryOptions::LookupAlgo::kBatched, true, true,
                      false, 1u << 10}),
    [](const auto& info) { return info.param.name; });

TEST(ValidationMethodTest, DirectAndTimestampAgreeUnderUpdates) {
  Env env(TestEnv());
  DatasetOptions o;
  o.maintenance_threads = 1;
  o.strategy = MaintenanceStrategy::kValidation;
  o.merge_repair = false;  // keep obsolete entries around
  o.mem_budget_bytes = 1 << 30;
  Dataset ds(&env, o);
  const auto expected = Load(&ds);

  for (uint64_t user : {3u, 19u}) {
    SecondaryQueryOptions direct;
    direct.validation = SecondaryQueryOptions::Validation::kDirect;
    QueryResult dres;
    ASSERT_TRUE(ds.QueryUserRange(user, user, direct, &dres).ok());

    SecondaryQueryOptions tsq;
    tsq.validation = SecondaryQueryOptions::Validation::kTimestamp;
    QueryResult tres;
    ASSERT_TRUE(ds.QueryUserRange(user, user, tsq, &tres).ok());

    auto it = expected.find(user);
    const std::set<uint64_t> want =
        it == expected.end() ? std::set<uint64_t>{} : it->second;
    EXPECT_EQ(Ids(dres), want) << "direct user " << user;
    EXPECT_EQ(Ids(tres), want) << "ts user " << user;
  }
}

TEST(ValidationMethodTest, ObsoleteEntriesAreFilteredNotReturned) {
  Env env(TestEnv());
  DatasetOptions o;
  o.maintenance_threads = 1;
  o.strategy = MaintenanceStrategy::kValidation;
  o.merge_repair = false;
  o.mem_budget_bytes = 1 << 30;
  Dataset ds(&env, o);
  ASSERT_TRUE(ds.Upsert(MakeTweet(1, 5, 1)).ok());
  ASSERT_TRUE(ds.FlushAll().ok());
  ASSERT_TRUE(ds.Upsert(MakeTweet(1, 9, 2)).ok());  // moves user 5 -> 9
  ASSERT_TRUE(ds.FlushAll().ok());

  SecondaryQueryOptions q;
  QueryResult res;
  ASSERT_TRUE(ds.QueryUserRange(5, 5, q, &res).ok());
  EXPECT_EQ(res.records.size(), 0u);
  EXPECT_EQ(res.candidates, 1u);      // the obsolete entry surfaced...
  EXPECT_EQ(res.validated_out, 1u);   // ...and validation killed it
}

TEST(ValidationMethodTest, IndexOnlyTimestampValidation) {
  Env env(TestEnv());
  DatasetOptions o;
  o.maintenance_threads = 1;
  o.strategy = MaintenanceStrategy::kValidation;
  o.merge_repair = false;
  o.mem_budget_bytes = 1 << 30;
  Dataset ds(&env, o);
  for (uint64_t i = 1; i <= 60; i++) {
    ASSERT_TRUE(ds.Upsert(MakeTweet(i, 4, i)).ok());
  }
  ASSERT_TRUE(ds.FlushAll().ok());
  for (uint64_t i = 1; i <= 60; i += 2) {
    ASSERT_TRUE(ds.Upsert(MakeTweet(i, 8, 100 + i)).ok());  // leave user 4
  }
  ASSERT_TRUE(ds.FlushAll().ok());

  SecondaryQueryOptions q;
  q.index_only = true;
  QueryResult res;
  ASSERT_TRUE(ds.QueryUserRange(4, 4, q, &res).ok());
  EXPECT_EQ(res.keys.size(), 30u);
  for (const auto& k : res.keys) {
    EXPECT_EQ(DecodeU64(k) % 2, 0u);  // only even (un-updated) ids remain
  }
}

TEST(ValidationMethodTest, DeletesInvalidateThroughPkIndexAntimatter) {
  Env env(TestEnv());
  DatasetOptions o;
  o.maintenance_threads = 1;
  o.strategy = MaintenanceStrategy::kValidation;
  o.merge_repair = false;
  o.mem_budget_bytes = 1 << 30;
  Dataset ds(&env, o);
  ASSERT_TRUE(ds.Upsert(MakeTweet(1, 5, 1)).ok());
  ASSERT_TRUE(ds.FlushAll().ok());
  ASSERT_TRUE(ds.Delete(1).ok());
  ASSERT_TRUE(ds.FlushAll().ok());
  SecondaryQueryOptions q;
  QueryResult res;
  ASSERT_TRUE(ds.QueryUserRange(5, 5, q, &res).ok());
  EXPECT_EQ(res.records.size(), 0u);
  q.index_only = true;
  QueryResult ires;
  ASSERT_TRUE(ds.QueryUserRange(5, 5, q, &ires).ok());
  EXPECT_EQ(ires.keys.size(), 0u);
}

TEST(BulkPointLookupTest, RawModeSurfacesDeadEntries) {
  Env env(TestEnv());
  LsmTreeOptions topts;
  LsmTree tree(&env, topts);
  tree.Put(EncodeU64(1), "v", 1);
  ASSERT_TRUE(tree.Flush().ok());
  tree.PutAntimatter(EncodeU64(1), 2);
  ASSERT_TRUE(tree.Flush().ok());

  std::vector<FetchRequest> reqs{{EncodeU64(1), 0}};
  PointLookupOptions alive_opts;
  std::vector<FetchedEntry> out;
  ASSERT_TRUE(BulkPointLookup(tree, reqs, alive_opts, &out).ok());
  EXPECT_TRUE(out.empty());  // newest entry is anti-matter

  PointLookupOptions raw_opts;
  raw_opts.raw = true;
  out.clear();
  ASSERT_TRUE(BulkPointLookup(tree, reqs, raw_opts, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_FALSE(out[0].alive);
  EXPECT_EQ(out[0].ts, 2u);
}

TEST(BulkPointLookupTest, StatsCountBloomAndBatches) {
  Env env(TestEnv());
  LsmTreeOptions topts;
  LsmTree tree(&env, topts);
  for (uint64_t i = 0; i < 100; i++) tree.Put(EncodeU64(i), "v", i + 1);
  ASSERT_TRUE(tree.Flush().ok());
  for (uint64_t i = 100; i < 200; i++) tree.Put(EncodeU64(i), "v", i + 1);
  ASSERT_TRUE(tree.Flush().ok());

  std::vector<FetchRequest> reqs;
  for (uint64_t i = 0; i < 200; i += 2) reqs.push_back({EncodeU64(i), 0});
  PointLookupOptions opts;
  opts.batch_memory_bytes = 32 * 10;  // 10 keys per batch
  std::vector<FetchedEntry> out;
  PointLookupStats stats;
  ASSERT_TRUE(BulkPointLookup(tree, reqs, opts, &out, &stats).ok());
  EXPECT_EQ(out.size(), 100u);
  EXPECT_EQ(stats.keys, 100u);
  EXPECT_EQ(stats.found, 100u);
  EXPECT_EQ(stats.batches, 10u);
  EXPECT_GT(stats.bloom_negatives, 0u);  // half the probes hit wrong component
}

TEST(BulkPointLookupTest, BatchedIoIsMoreSequentialThanNaive) {
  EnvOptions eo = TestEnv();
  eo.cache_pages = 0;  // observe raw I/O pattern
  eo.disk_profile = DiskProfile::Hdd();

  auto run = [&](bool batched) {
    Env env(eo);
    LsmTreeOptions topts;
    LsmTree tree(&env, topts);
    // Two overlapping components so sorted keys interleave between files.
    for (uint64_t i = 0; i < 2000; i += 2) {
      tree.Put(EncodeU64(i), std::string(100, 'v'), i + 1);
    }
    EXPECT_TRUE(tree.Flush().ok());
    for (uint64_t i = 1; i < 2000; i += 2) {
      tree.Put(EncodeU64(i), std::string(100, 'v'), 3000 + i);
    }
    EXPECT_TRUE(tree.Flush().ok());

    std::vector<FetchRequest> reqs;
    for (uint64_t i = 0; i < 2000; i += 3) reqs.push_back({EncodeU64(i), 0});
    PointLookupOptions opts;
    opts.batched = batched;
    const IoStats before = env.stats();
    std::vector<FetchedEntry> out;
    EXPECT_TRUE(BulkPointLookup(tree, reqs, opts, &out).ok());
    EXPECT_EQ(out.size(), reqs.size());
    return env.stats() - before;
  };

  const IoStats naive = run(false);
  const IoStats batched = run(true);
  EXPECT_LT(batched.random_reads, naive.random_reads);
}

TEST(BulkPointLookupTest, BatchedPathSortsUnsortedRequests) {
  // The §3.2 batched algorithm promises per-component probes in ascending
  // key order; since it now sorts each batch itself, a shuffled request
  // vector must produce exactly the I/O pattern of a pre-sorted one.
  EnvOptions eo = TestEnv();
  eo.cache_pages = 0;  // observe raw I/O pattern
  eo.disk_profile = DiskProfile::Hdd();

  auto run = [&](bool shuffle) {
    Env env(eo);
    LsmTreeOptions topts;
    LsmTree tree(&env, topts);
    for (uint64_t i = 0; i < 2000; i += 2) {
      tree.Put(EncodeU64(i), std::string(100, 'v'), i + 1);
    }
    EXPECT_TRUE(tree.Flush().ok());
    for (uint64_t i = 1; i < 2000; i += 2) {
      tree.Put(EncodeU64(i), std::string(100, 'v'), 3000 + i);
    }
    EXPECT_TRUE(tree.Flush().ok());

    std::vector<FetchRequest> reqs;
    for (uint64_t i = 0; i < 2000; i += 3) reqs.push_back({EncodeU64(i), 0});
    if (shuffle) {
      Random rng(42);
      for (size_t i = reqs.size() - 1; i > 0; i--) {
        std::swap(reqs[i], reqs[rng.Uniform(i + 1)]);
      }
    }
    PointLookupOptions opts;  // batched, one batch (default batch memory)
    const IoStats before = env.stats();
    std::vector<FetchedEntry> out;
    EXPECT_TRUE(BulkPointLookup(tree, reqs, opts, &out).ok());
    EXPECT_EQ(out.size(), reqs.size());
    return env.stats() - before;
  };

  const IoStats sorted = run(false);
  const IoStats shuffled = run(true);
  EXPECT_EQ(shuffled.random_reads, sorted.random_reads);
  EXPECT_EQ(shuffled.pages_read, sorted.pages_read);
}

TEST(QuerySortTest, SortedResultsAreInPkOrder) {
  Env env(TestEnv());
  DatasetOptions o;
  o.maintenance_threads = 1;
  o.strategy = MaintenanceStrategy::kEager;
  o.mem_budget_bytes = 1 << 30;
  Dataset ds(&env, o);
  Load(&ds);
  SecondaryQueryOptions q;
  q.sort_results_by_pk = true;
  QueryResult res;
  ASSERT_TRUE(ds.QueryUserRange(0, 15, q, &res).ok());
  for (size_t i = 1; i < res.records.size(); i++) {
    EXPECT_LT(res.records[i - 1].id, res.records[i].id);
  }
}

}  // namespace
}  // namespace auxlsm
