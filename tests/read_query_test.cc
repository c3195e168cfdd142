// Unified read API tests: cursor/legacy parity (rows *and* order, counters)
// across all four maintenance strategies, pagination-resume stability while
// concurrent writers ingest, early termination of Limit(k) queries
// (strictly fewer candidates and strictly less simulated I/O), and the
// secondary-index name catalog.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <map>
#include <set>
#include <thread>

#include "common/random.h"
#include "core/dataset.h"
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

// Loads several components' worth of data with updates and deletes; returns
// the expected live ids per user.
std::map<uint64_t, std::set<uint64_t>> Load(Dataset* ds) {
  std::map<uint64_t, uint64_t> current_user;
  uint64_t time = 0;
  for (uint64_t i = 1; i <= 400; i++) {
    const uint64_t user = i % 16;
    EXPECT_TRUE(ds->Upsert(MakeTweet(i, user, ++time)).ok());
    current_user[i] = user;
    if (i % 100 == 0) EXPECT_TRUE(ds->FlushAll().ok());
  }
  for (uint64_t i = 1; i <= 400; i += 5) {
    const uint64_t user = (i % 16) + 16;  // move to a high-user bucket
    EXPECT_TRUE(ds->Upsert(MakeTweet(i, user, ++time)).ok());
    current_user[i] = user;
  }
  for (uint64_t i = 3; i <= 400; i += 50) {
    EXPECT_TRUE(ds->Delete(i).ok());
    current_user.erase(i);
  }
  EXPECT_TRUE(ds->FlushAll().ok());
  std::map<uint64_t, std::set<uint64_t>> expected;
  for (const auto& [id, user] : current_user) expected[user].insert(id);
  return expected;
}

std::set<uint64_t> ExpectedInRange(
    const std::map<uint64_t, std::set<uint64_t>>& expected, uint64_t lo,
    uint64_t hi) {
  std::set<uint64_t> out;
  for (const auto& [user, ids] : expected) {
    if (user < lo || user > hi) continue;
    out.insert(ids.begin(), ids.end());
  }
  return out;
}

class StrategyTest : public ::testing::TestWithParam<MaintenanceStrategy> {};

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, StrategyTest,
    ::testing::Values(MaintenanceStrategy::kEager,
                      MaintenanceStrategy::kValidation,
                      MaintenanceStrategy::kMutableBitmap,
                      MaintenanceStrategy::kDeletedKeyBtree),
    [](const auto& info) {
      std::string name = StrategyName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// The paginated cursor must deliver exactly the legacy wrapper's rows, in
// the legacy order, with the legacy counters — for records, index-only
// keys, and both scan shapes — under every maintenance strategy.
TEST_P(StrategyTest, CursorMatchesLegacyRowsOrderAndCounters) {
  Env env(TestEnv());
  DatasetOptions o;
  o.strategy = GetParam();
  o.mem_budget_bytes = 1 << 30;  // manual flushes only
  Dataset ds(&env, o);
  const auto expected = Load(&ds);

  for (const auto& [lo, hi] :
       std::vector<std::pair<uint64_t, uint64_t>>{{0, 15}, {16, 31},
                                                  {5, 20}, {40, 50}}) {
    SecondaryQueryOptions qopts;
    QueryResult legacy;
    ASSERT_TRUE(ds.QueryUserRange(lo, hi, qopts, &legacy).ok());

    // Paginated cursor over the same range (unlimited): page slicing must
    // not change rows, order, or counters.
    ReadOptions ro;
    ro.secondary = qopts;
    auto cursor_or = ds.NewCursor(
        Query().Secondary().Range(lo, hi).PageSize(7).Options(ro));
    ASSERT_TRUE(cursor_or.ok());
    auto cursor = std::move(cursor_or).value();
    std::vector<uint64_t> cursor_ids;
    QueryPage page;
    while (!cursor->done()) {
      ASSERT_TRUE(cursor->Next(&page).ok());
      EXPECT_LE(page.rows(), 7u);
      for (const auto& r : page.records) cursor_ids.push_back(r.id);
    }
    std::vector<uint64_t> legacy_ids;
    for (const auto& r : legacy.records) legacy_ids.push_back(r.id);
    EXPECT_EQ(cursor_ids, legacy_ids) << "users [" << lo << "," << hi << "]";
    EXPECT_EQ(cursor->stats().candidates, legacy.candidates);
    EXPECT_EQ(cursor->stats().validated_out, legacy.validated_out);

    // Ground truth: the reconciled live set.
    EXPECT_EQ(std::set<uint64_t>(cursor_ids.begin(), cursor_ids.end()),
              ExpectedInRange(expected, lo, hi));

    // Index-only projection parity (via the builder flag, which must fold
    // into the legacy option).
    SecondaryQueryOptions iopts;
    iopts.index_only = true;
    QueryResult ilegacy;
    ASSERT_TRUE(ds.QueryUserRange(lo, hi, iopts, &ilegacy).ok());
    auto icur_or = ds.NewCursor(
        Query().Secondary().Range(lo, hi).PageSize(3).IndexOnly());
    ASSERT_TRUE(icur_or.ok());
    auto icur = std::move(icur_or).value();
    std::vector<std::string> ikeys;
    while (!icur->done()) {
      ASSERT_TRUE(icur->Next(&page).ok());
      for (auto& k : page.keys) ikeys.push_back(k);
    }
    EXPECT_EQ(ikeys, ilegacy.keys);
  }

  // Scan parity: legacy counters vs a row-producing paginated scan cursor.
  ScanResult time_scan;
  ASSERT_TRUE(ds.ScanTimeRange(100, 500, &time_scan).ok());
  auto scan_or = ds.NewCursor(Query().TimeRange(100, 500).PageSize(11));
  ASSERT_TRUE(scan_or.ok());
  auto scan = std::move(scan_or).value();
  uint64_t rows = 0;
  QueryPage page;
  while (!scan->done()) {
    ASSERT_TRUE(scan->Next(&page).ok());
    for (const auto& r : page.records) {
      EXPECT_GE(r.creation_time, 100u);
      EXPECT_LE(r.creation_time, 500u);
      rows++;
    }
  }
  EXPECT_EQ(rows, time_scan.records_matched);
  EXPECT_EQ(scan->stats().records_scanned, time_scan.records_scanned);
  EXPECT_EQ(scan->stats().components_pruned, time_scan.components_pruned);
  EXPECT_EQ(scan->stats().components_scanned, time_scan.components_scanned);

  ScanResult full;
  ASSERT_TRUE(ds.FullScanUserRange(0, 15, &full).ok());
  auto full_or = ds.NewCursor(Query().Range(0, 15).PageSize(11));
  ASSERT_TRUE(full_or.ok());
  auto fcur = std::move(full_or).value();
  std::set<uint64_t> fids;
  while (!fcur->done()) {
    ASSERT_TRUE(fcur->Next(&page).ok());
    for (const auto& r : page.records) fids.insert(r.id);
  }
  EXPECT_EQ(fids.size(), full.records_matched);
  EXPECT_EQ(fids, ExpectedInRange(expected, 0, 15));
}

// A Limit(k) cursor stops early under every strategy and never duplicates
// a primary key even when obsolete secondary entries for the same record
// sit in different candidate chunks.
TEST_P(StrategyTest, LimitedCursorPaginatesWithoutDuplicates) {
  Env env(TestEnv());
  DatasetOptions o;
  o.strategy = GetParam();
  o.mem_budget_bytes = 1 << 30;
  Dataset ds(&env, o);
  const auto expected = Load(&ds);
  const auto want = ExpectedInRange(expected, 0, 31);  // old + new buckets

  for (uint64_t limit : {1u, 7u, 50u, 1000u}) {
    auto cur_or =
        ds.NewCursor(Query().Secondary().Range(0, 31).Limit(limit).PageSize(4));
    ASSERT_TRUE(cur_or.ok());
    auto cur = std::move(cur_or).value();
    std::set<uint64_t> seen;
    QueryPage page;
    while (!cur->done()) {
      ASSERT_TRUE(cur->Next(&page).ok());
      for (const auto& r : page.records) {
        EXPECT_TRUE(seen.insert(r.id).second) << "duplicate id " << r.id;
        EXPECT_TRUE(want.count(r.id)) << "unexpected id " << r.id;
      }
    }
    EXPECT_EQ(seen.size(), std::min<uint64_t>(limit, want.size()));
  }

  // Direct validation keeps working across chunks (it relies on the
  // cross-chunk emitted-pk dedup).
  SecondaryQueryOptions direct;
  direct.validation = SecondaryQueryOptions::Validation::kDirect;
  ReadOptions ro;
  ro.secondary = direct;
  auto cur_or = ds.NewCursor(
      Query().Secondary().Range(0, 31).Limit(1000).PageSize(4).Options(ro));
  ASSERT_TRUE(cur_or.ok());
  auto cur = std::move(cur_or).value();
  std::set<uint64_t> seen;
  QueryPage page;
  while (!cur->done()) {
    ASSERT_TRUE(cur->Next(&page).ok());
    for (const auto& r : page.records) {
      EXPECT_TRUE(seen.insert(r.id).second) << "duplicate id " << r.id;
    }
  }
  EXPECT_EQ(seen, want);
}

// A seeded multi-component dataset: 2,400 inserts over 48 users flushed
// every 400, then 600 upserts (most move their record to another user) and
// 120 deletes, each half flushed and half left in the memtable.
void LoadSeeded(Dataset* ds) {
  Random rng(20190701);
  uint64_t time = 0;
  for (uint64_t id = 1; id <= 2400; id++) {
    ASSERT_TRUE(ds->Upsert(MakeTweet(id, rng.Uniform(48), ++time)).ok());
    if (id % 400 == 0) {
      ASSERT_TRUE(ds->FlushAll().ok());
    }
  }
  for (int i = 0; i < 600; i++) {
    const uint64_t id = rng.Range(1, 2400);
    ASSERT_TRUE(ds->Upsert(MakeTweet(id, rng.Uniform(48), ++time)).ok());
    if (i == 299) {
      ASSERT_TRUE(ds->FlushAll().ok());
    }
  }
  std::set<uint64_t> deleted;
  while (deleted.size() < 120) {
    const uint64_t id = rng.Range(1, 2400);
    if (!deleted.insert(id).second) continue;
    ASSERT_TRUE(ds->Delete(id).ok());
    if (deleted.size() == 60) {
      ASSERT_TRUE(ds->FlushAll().ok());
    }
  }
}

/// Order-sensitive FNV-1a fold of emitted ids.
uint64_t FoldIds(const std::vector<uint64_t>& ids) {
  uint64_t h = 1469598103934665603ull;
  for (uint64_t id : ids) {
    h ^= id;
    h *= 1099511628211ull;
  }
  return h;
}

struct LimitPin {
  const char* strategy;
  const char* shape;
  uint64_t rows;
  uint64_t fold;  ///< FoldIds of the ids in emission order
};

// Rows of limited cursors over LoadSeeded, captured from the pipeline that
// fetched every candidate of a chunk (before the fetch stopped at the
// remaining limit). The sorted / direct / timerange shapes opt out of the
// fetch quota; the others run with it.
constexpr LimitPin kLimitPins[] = {
    {"eager", "limit1_page1", 1, 0x44bd79d473cd7c23ull},
    {"eager", "limit7_page4", 7, 0x53d9c871568af9c0ull},
    {"eager", "limit30_page10", 30, 0x20952b2a59a6d41bull},
    {"eager", "limit1000_page64", 1000, 0xa4c0de9db8bf6397ull},
    {"eager", "sorted_limit30", 30, 0xc2e07c8efa46274bull},
    {"eager", "direct_limit30", 30, 0x20952b2a59a6d41bull},
    {"eager", "timerange_limit30", 30, 0x6e5322703de8d88full},
    {"validation", "limit1_page1", 1, 0x44bd79d473cd7c23ull},
    {"validation", "limit7_page4", 7, 0x53d3ec71568104ecull},
    {"validation", "limit30_page10", 30, 0xc1083a5c0e13d1fdull},
    {"validation", "limit1000_page64", 1000, 0x68699ed8e2ca3503ull},
    {"validation", "sorted_limit30", 30, 0x91218b7512d5edceull},
    {"validation", "direct_limit30", 30, 0x56cb4ead74e538acull},
    {"validation", "timerange_limit30", 30, 0xe0922e5896e5d512ull},
    {"mutable-bitmap", "limit1_page1", 1, 0x44bd79d473cd7c23ull},
    {"mutable-bitmap", "limit7_page4", 7, 0x53d3ec71568104ecull},
    {"mutable-bitmap", "limit30_page10", 30, 0xc1083a5c0e13d1fdull},
    {"mutable-bitmap", "limit1000_page64", 1000, 0x68699ed8e2ca3503ull},
    {"mutable-bitmap", "sorted_limit30", 30, 0x91218b7512d5edceull},
    {"mutable-bitmap", "direct_limit30", 30, 0x56cb4ead74e538acull},
    {"mutable-bitmap", "timerange_limit30", 30, 0xe0922e5896e5d512ull},
    {"deleted-key-btree", "limit1_page1", 1, 0x44bd79d473cd7c23ull},
    {"deleted-key-btree", "limit7_page4", 7, 0x53d3ec71568104ecull},
    {"deleted-key-btree", "limit30_page10", 30, 0xc1083a5c0e13d1fdull},
    {"deleted-key-btree", "limit1000_page64", 1000, 0x68699ed8e2ca3503ull},
    {"deleted-key-btree", "sorted_limit30", 30, 0x91218b7512d5edceull},
    {"deleted-key-btree", "direct_limit30", 30, 0x56cb4ead74e538acull},
    {"deleted-key-btree", "timerange_limit30", 30, 0xe0922e5896e5d512ull},
};

// A limited cursor emits exactly the pinned rows in the pinned order, under
// every strategy, whether or not its fetch carries the live-record quota.
TEST_P(StrategyTest, LimitedCursorRowsMatchPinnedIds) {
  Env env(TestEnv());
  DatasetOptions o;
  o.strategy = GetParam();
  o.mem_budget_bytes = 1 << 30;
  Dataset ds(&env, o);
  LoadSeeded(&ds);

  struct Shape {
    const char* name;
    uint64_t limit;
    size_t page;
    SecondaryQueryOptions q;
    bool time_range = false;
  };
  SecondaryQueryOptions sorted;
  sorted.sort_results_by_pk = true;
  SecondaryQueryOptions direct;
  direct.validation = SecondaryQueryOptions::Validation::kDirect;
  const Shape shapes[] = {
      {"limit1_page1", 1, 1, {}},
      {"limit7_page4", 7, 4, {}},
      {"limit30_page10", 30, 10, {}},
      {"limit1000_page64", 1000, 64, {}},
      {"sorted_limit30", 30, 10, sorted},
      {"direct_limit30", 30, 10, direct},
      {"timerange_limit30", 30, 10, {}, true},
  };
  const std::string strategy = StrategyName(GetParam());
  for (const Shape& shape : shapes) {
    SCOPED_TRACE(shape.name);
    ReadOptions ro;
    ro.secondary = shape.q;
    ReadQuery q = Query().Secondary().Range(0, 23).Limit(shape.limit)
                      .PageSize(shape.page).Options(ro);
    if (shape.time_range) q.TimeRange(0, 1500);
    auto cur_or = ds.NewCursor(q);
    ASSERT_TRUE(cur_or.ok());
    auto cur = std::move(cur_or).value();
    std::vector<uint64_t> ids;
    QueryPage page;
    while (!cur->done()) {
      ASSERT_TRUE(cur->Next(&page).ok());
      EXPECT_LE(page.rows(), shape.page);
      for (const auto& r : page.records) ids.push_back(r.id);
    }
    char actual[160];
    std::snprintf(actual, sizeof(actual),
                  "{\"%s\", \"%s\", %zu, 0x%016llxull},", strategy.c_str(),
                  shape.name, ids.size(), (unsigned long long)FoldIds(ids));
    const LimitPin* pin = nullptr;
    for (const auto& p : kLimitPins) {
      if (strategy == p.strategy && std::string(shape.name) == p.shape) {
        pin = &p;
      }
    }
    if (pin == nullptr) {
      ADD_FAILURE() << "no pin; actual " << actual;
      continue;
    }
    EXPECT_EQ(ids.size(), pin->rows) << "actual " << actual;
    EXPECT_EQ(FoldIds(ids), pin->fold) << "actual " << actual;
  }
}

// Acceptance: a Limit(k) secondary query does strictly less work than the
// unlimited query — fewer candidates pulled and fewer simulated-I/O
// microseconds — on identically rebuilt datasets, each queried from a cold
// buffer cache. No limit, however close to the result size, charges more
// modeled I/O than the unlimited query.
TEST(LimitWorkTest, LimitDoesStrictlyLessWork) {
  EnvOptions eo;
  eo.page_size = 1024;
  eo.cache_pages = 64;  // tiny cache: fetches pay modeled I/O
  eo.disk_profile = DiskProfile::Hdd();

  struct Run {
    uint64_t rows = 0;
    uint64_t candidates = 0;
    double sim_us = 0;
  };
  auto run = [&](uint64_t limit) {
    Env env(eo);
    DatasetOptions o;
    o.strategy = MaintenanceStrategy::kEager;
    o.mem_budget_bytes = 1 << 30;
    Dataset ds(&env, o);
    uint64_t time = 0;
    for (uint64_t i = 1; i <= 3000; i++) {
      EXPECT_TRUE(ds.Upsert(MakeTweet(i, i % 100, ++time)).ok());
      if (i % 600 == 0) EXPECT_TRUE(ds.FlushAll().ok());
    }
    EXPECT_TRUE(ds.FlushAll().ok());
    env.cache()->Clear();
    auto cur_or =
        ds.NewCursor(Query().Secondary().Range(0, 49).Limit(limit).PageSize(16));
    EXPECT_TRUE(cur_or.ok());
    auto cur = std::move(cur_or).value();
    QueryPage page;
    Run r;
    while (!cur->done()) {
      EXPECT_TRUE(cur->Next(&page).ok());
      r.rows += page.rows();
    }
    r.candidates = cur->stats().candidates;
    r.sim_us = cur->stats().io_simulated_us;
    return r;
  };

  const Run unlimited = run(0);
  const Run limited = run(10);
  EXPECT_EQ(limited.rows, 10u);
  EXPECT_GT(unlimited.rows, 100u);
  EXPECT_LT(limited.candidates, unlimited.candidates);  // strictly fewer
  EXPECT_GT(limited.sim_us, 0.0);
  EXPECT_LT(limited.sim_us, unlimited.sim_us);  // strictly less modeled I/O

  for (uint64_t limit : {1u, 100u, 1000u, 1400u, 1500u, 5000u}) {
    const Run r = run(limit);
    EXPECT_EQ(r.rows, std::min<uint64_t>(limit, unlimited.rows));
    EXPECT_LE(r.sim_us, unlimited.sim_us) << "limit " << limit;
  }
}

// Pagination-resume stability: a cursor opened before concurrent writers
// start must deliver exactly the pre-open rows — new inserts, background
// flushes, and merges happening between pulls neither add, drop, nor
// duplicate rows (the snapshot pins memtable entries and components).
TEST(ConcurrentReadTest, PaginationStableUnderConcurrentWriters) {
  Env env(TestEnv());
  DatasetOptions o;
  o.strategy = MaintenanceStrategy::kEager;
  o.writer_threads = 4;
  o.mem_budget_bytes = 64 << 10;  // frequent background cycles
  Dataset ds(&env, o);

  std::set<uint64_t> want;
  uint64_t time = 0;
  for (uint64_t i = 1; i <= 600; i++) {
    ASSERT_TRUE(ds.Upsert(MakeTweet(i, i % 8, ++time)).ok());
    want.insert(i);
  }

  auto cur_or = ds.NewCursor(Query().Secondary().Range(0, 7).PageSize(16));
  ASSERT_TRUE(cur_or.ok());
  auto cur = std::move(cur_or).value();

  // Writers insert fresh ids into users outside the query range while the
  // cursor paginates.
  std::atomic<uint64_t> next_id{100000};
  std::atomic<uint64_t> next_ts{100000};
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; w++) {
    writers.emplace_back([&]() {
      for (int i = 0; i < 500; i++) {
        const uint64_t id = next_id.fetch_add(1);
        const uint64_t ts = next_ts.fetch_add(1);
        ASSERT_TRUE(ds.Upsert(MakeTweet(id, 100 + id % 8, ts)).ok());
      }
    });
  }

  std::set<uint64_t> got;
  QueryPage page;
  while (!cur->done()) {
    ASSERT_TRUE(cur->Next(&page).ok());
    for (const auto& r : page.records) {
      EXPECT_TRUE(got.insert(r.id).second) << "duplicate id " << r.id;
    }
    std::this_thread::yield();
  }
  for (auto& t : writers) t.join();
  EXPECT_TRUE(ds.WaitForMaintenance().ok());
  EXPECT_EQ(got, want);

  // And the writers' rows are queryable afterwards.
  QueryResult after;
  ASSERT_TRUE(ds.QueryUserRange(100, 107, SecondaryQueryOptions(), &after).ok());
  EXPECT_EQ(after.records.size(), 2000u);
}

// The secondary-index catalog: selection by name, proper errors on unknown
// names, and bounds-checked positional access.
TEST(CatalogTest, SecondaryByNameAndCheckedIndexing) {
  Env env(TestEnv());
  DatasetOptions o;
  o.strategy = MaintenanceStrategy::kEager;
  o.mem_budget_bytes = 1 << 30;
  o.secondary_indexes = {SecondaryIndexDef::UserId(),
                         SecondaryIndexDef::SyntheticAttribute(1),
                         SecondaryIndexDef::SyntheticAttribute(2)};
  Dataset ds(&env, o);
  for (uint64_t i = 1; i <= 200; i++) {
    ASSERT_TRUE(ds.Upsert(MakeTweet(i, i % 10, i)).ok());
  }
  ASSERT_TRUE(ds.FlushAll().ok());

  auto by_name = ds.secondary_by_name("attr1");
  ASSERT_TRUE(by_name.ok());
  EXPECT_EQ(by_name.value()->def.name, "attr1");
  EXPECT_EQ(by_name.value(), ds.secondary(1));

  auto missing = ds.secondary_by_name("no_such_index");
  EXPECT_FALSE(missing.ok());
  EXPECT_TRUE(missing.status().IsInvalidArgument());
  EXPECT_EQ(ds.secondary(99), nullptr);

  // Planning resolves names through the catalog: a full-domain query on a
  // synthetic attribute sees every record; an unknown name fails cleanly.
  auto cur_or = ds.NewCursor(Query().Secondary("attr2").Range(0, UINT64_MAX));
  ASSERT_TRUE(cur_or.ok());
  auto cur = std::move(cur_or).value();
  QueryResult res;
  ASSERT_TRUE(cur->Drain(&res).ok());
  EXPECT_EQ(res.records.size(), 200u);

  EXPECT_FALSE(ds.NewCursor(Query().Secondary("typo").Range(0, 1)).ok());
}

// TimeRange composes with a secondary query: the record fetch applies the
// creation_time predicate, and the counter reports the filtered rows.
TEST(ComposeTest, SecondaryQueryWithTimeRange) {
  Env env(TestEnv());
  DatasetOptions o;
  o.strategy = MaintenanceStrategy::kValidation;
  o.mem_budget_bytes = 1 << 30;
  Dataset ds(&env, o);
  const auto expected = Load(&ds);

  auto cur_or =
      ds.NewCursor(Query().Secondary().Range(0, 15).TimeRange(1, 200));
  ASSERT_TRUE(cur_or.ok());
  auto cur = std::move(cur_or).value();
  QueryResult res;
  ASSERT_TRUE(cur->Drain(&res).ok());
  std::set<uint64_t> got;
  for (const auto& r : res.records) {
    EXPECT_GE(r.creation_time, 1u);
    EXPECT_LE(r.creation_time, 200u);
    got.insert(r.id);
  }
  EXPECT_GT(got.size(), 0u);
  EXPECT_GT(cur->stats().time_filtered, 0u);
  for (uint64_t id : ExpectedInRange(expected, 0, 15)) {
    TweetRecord rec;
    ASSERT_TRUE(ds.GetById(id, &rec).ok());
    EXPECT_EQ(got.count(id) > 0,
              rec.creation_time >= 1 && rec.creation_time <= 200)
        << "id " << id;
  }
}

// CountOnly on a secondary query reports the match count through
// records_matched and stops the candidate stream exactly at the Limit.
TEST(CountOnlyTest, SecondaryCountOnlyReportsAndHonorsLimit) {
  Env env(TestEnv());
  DatasetOptions o;
  o.strategy = MaintenanceStrategy::kEager;
  o.mem_budget_bytes = 1 << 30;
  Dataset ds(&env, o);
  const auto expected = Load(&ds);
  const uint64_t want = ExpectedInRange(expected, 0, 15).size();

  auto all_or = ds.NewCursor(Query().Secondary().Range(0, 15).CountOnly());
  ASSERT_TRUE(all_or.ok());
  auto all = std::move(all_or).value();
  QueryPage page;
  while (!all->done()) {
    ASSERT_TRUE(all->Next(&page).ok());
    EXPECT_TRUE(page.empty());
  }
  EXPECT_EQ(all->stats().records_matched, want);
  EXPECT_EQ(all->stats().rows, 0u);

  auto lim_or =
      ds.NewCursor(Query().Secondary().Range(0, 15).CountOnly().Limit(5));
  ASSERT_TRUE(lim_or.ok());
  auto lim = std::move(lim_or).value();
  while (!lim->done()) {
    ASSERT_TRUE(lim->Next(&page).ok());
  }
  EXPECT_EQ(lim->stats().records_matched, 5u);
  EXPECT_LT(lim->stats().candidates, all->stats().candidates);
}

// Point reads through the builder, and plan validation errors.
TEST(PlanTest, PointReadsAndInvalidPlans) {
  Env env(TestEnv());
  DatasetOptions o;
  o.mem_budget_bytes = 1 << 30;
  Dataset ds(&env, o);
  ASSERT_TRUE(ds.Upsert(MakeTweet(42, 7, 1)).ok());
  ASSERT_TRUE(ds.FlushAll().ok());

  auto cur_or = ds.NewCursor(Query().Primary(42));
  ASSERT_TRUE(cur_or.ok());
  QueryResult res;
  ASSERT_TRUE(std::move(cur_or).value()->Drain(&res).ok());
  ASSERT_EQ(res.records.size(), 1u);
  EXPECT_EQ(res.records[0].user_id, 7u);

  auto miss_or = ds.NewCursor(Query().Primary(43));
  ASSERT_TRUE(miss_or.ok());
  QueryResult miss;
  ASSERT_TRUE(std::move(miss_or).value()->Drain(&miss).ok());
  EXPECT_TRUE(miss.records.empty());

  TweetRecord rec;
  EXPECT_TRUE(ds.GetById(43, &rec).IsNotFound());

  EXPECT_FALSE(ds.NewCursor(Query().Primary(1).Range(0, 9)).ok());
  EXPECT_FALSE(ds.NewCursor(Query().Range(0, 9).IndexOnly()).ok());
  EXPECT_FALSE(ds.NewCursor(Query().Primary(1).IndexOnly()).ok());
}

}  // namespace
}  // namespace auxlsm
