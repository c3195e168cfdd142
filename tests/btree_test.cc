#include <gtest/gtest.h>

#include <map>
#include <tuple>
#include <vector>

#include "btree/btree.h"
#include "btree/btree_builder.h"
#include "btree/btree_cursor.h"
#include "common/random.h"
#include "format/key_codec.h"

namespace auxlsm {
namespace {

EnvOptions TestEnv() {
  EnvOptions o;
  o.page_size = 512;
  o.cache_pages = 1 << 16;
  o.disk_profile = DiskProfile::Null();
  return o;
}

// Builds a tree of n entries with keys EncodeU64(i * stride) and values
// "v<i>".
BtreeMeta BuildTree(Env* env, uint64_t n, uint64_t stride = 1,
                    uint64_t ts_base = 100) {
  BtreeBuilder b(env);
  for (uint64_t i = 0; i < n; i++) {
    EXPECT_TRUE(b.Add(EncodeU64(i * stride), "v" + std::to_string(i),
                      ts_base + i, false)
                    .ok());
  }
  BtreeMeta meta;
  EXPECT_TRUE(b.Finish(&meta).ok());
  return meta;
}

TEST(BtreeBuilderTest, EmptyTree) {
  Env env(TestEnv());
  BtreeBuilder b(&env);
  BtreeMeta meta;
  ASSERT_TRUE(b.Finish(&meta).ok());
  EXPECT_EQ(meta.num_entries, 0u);
  Btree tree(&env, meta);
  LeafEntry e;
  std::string back;
  EXPECT_TRUE(tree.Get(EncodeU64(1), &e, &back).IsNotFound());
  auto it = tree.NewIterator();
  ASSERT_TRUE(it.SeekToFirst().ok());
  EXPECT_FALSE(it.Valid());
}

TEST(BtreeBuilderTest, RejectsOutOfOrderKeys) {
  Env env(TestEnv());
  BtreeBuilder b(&env);
  ASSERT_TRUE(b.Add(EncodeU64(5), "a", 1, false).ok());
  EXPECT_TRUE(b.Add(EncodeU64(3), "b", 2, false).IsInvalidArgument());
}

TEST(BtreeBuilderTest, MetaBounds) {
  Env env(TestEnv());
  const BtreeMeta meta = BuildTree(&env, 1000);
  EXPECT_EQ(meta.num_entries, 1000u);
  EXPECT_EQ(meta.min_key, EncodeU64(0));
  EXPECT_EQ(meta.max_key, EncodeU64(999));
  EXPECT_GT(meta.height, 1);
  EXPECT_GT(meta.num_leaf_pages, 1u);
  EXPECT_EQ(meta.first_leaf_page, 0u);
}

TEST(BtreeTest, GetEveryKey) {
  Env env(TestEnv());
  const BtreeMeta meta = BuildTree(&env, 5000, /*stride=*/3);
  Btree tree(&env, meta);
  for (uint64_t i = 0; i < 5000; i += 97) {
    LeafEntry e;
    std::string back;
    ASSERT_TRUE(tree.Get(EncodeU64(i * 3), &e, &back).ok()) << i;
    EXPECT_EQ(e.value.ToString(), "v" + std::to_string(i));
    EXPECT_EQ(e.ts, 100 + i);
  }
}

TEST(BtreeTest, GetMissesBetweenKeys) {
  Env env(TestEnv());
  const BtreeMeta meta = BuildTree(&env, 1000, /*stride=*/2);
  Btree tree(&env, meta);
  LeafEntry e;
  std::string back;
  EXPECT_TRUE(tree.Get(EncodeU64(1), &e, &back).IsNotFound());
  EXPECT_TRUE(tree.Get(EncodeU64(999), &e, &back).IsNotFound());
  EXPECT_TRUE(tree.Get(EncodeU64(5000), &e, &back).IsNotFound());
}

TEST(BtreeTest, OrdinalsAreDense) {
  Env env(TestEnv());
  const BtreeMeta meta = BuildTree(&env, 2000);
  Btree tree(&env, meta);
  for (uint64_t i : {0u, 1u, 777u, 1999u}) {
    LeafEntry e;
    std::string back;
    uint64_t ordinal = 0;
    ASSERT_TRUE(
        tree.GetWithOrdinal(EncodeU64(i), &e, &back, &ordinal).ok());
    EXPECT_EQ(ordinal, i);
  }
}

TEST(BtreeTest, AntimatterFlagRoundTrip) {
  Env env(TestEnv());
  BtreeBuilder b(&env);
  ASSERT_TRUE(b.Add(EncodeU64(1), "", 5, true).ok());
  ASSERT_TRUE(b.Add(EncodeU64(2), "alive", 6, false).ok());
  BtreeMeta meta;
  ASSERT_TRUE(b.Finish(&meta).ok());
  Btree tree(&env, meta);
  LeafEntry e;
  std::string back;
  ASSERT_TRUE(tree.Get(EncodeU64(1), &e, &back).ok());
  EXPECT_TRUE(e.antimatter);
  ASSERT_TRUE(tree.Get(EncodeU64(2), &e, &back).ok());
  EXPECT_FALSE(e.antimatter);
}

TEST(BtreeIteratorTest, FullScanInOrder) {
  Env env(TestEnv());
  const BtreeMeta meta = BuildTree(&env, 3000);
  Btree tree(&env, meta);
  auto it = tree.NewIterator(/*readahead=*/8);
  ASSERT_TRUE(it.SeekToFirst().ok());
  uint64_t count = 0;
  std::string prev;
  while (it.Valid()) {
    if (count > 0) EXPECT_LT(prev, it.key().ToString());
    prev = it.key().ToString();
    EXPECT_EQ(it.ordinal(), count);
    count++;
    ASSERT_TRUE(it.Next().ok());
  }
  EXPECT_EQ(count, 3000u);
}

TEST(BtreeIteratorTest, SeekLandsOnLowerBound) {
  Env env(TestEnv());
  const BtreeMeta meta = BuildTree(&env, 1000, /*stride=*/10);
  Btree tree(&env, meta);
  auto it = tree.NewIterator();
  ASSERT_TRUE(it.Seek(EncodeU64(95)).ok());  // between 90 and 100
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(DecodeU64(it.key()), 100u);
  ASSERT_TRUE(it.Seek(EncodeU64(0)).ok());
  EXPECT_EQ(DecodeU64(it.key()), 0u);
  ASSERT_TRUE(it.Seek(EncodeU64(99999)).ok());
  EXPECT_FALSE(it.Valid());
}

TEST(BtreeIteratorTest, SeekExactBoundaryOfLeaf) {
  Env env(TestEnv());
  const BtreeMeta meta = BuildTree(&env, 5000);
  Btree tree(&env, meta);
  auto it = tree.NewIterator();
  // Scan to find a leaf boundary, then Seek to it.
  ASSERT_TRUE(it.Seek(EncodeU64(4999)).ok());
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(DecodeU64(it.key()), 4999u);
  ASSERT_TRUE(it.Next().ok());
  EXPECT_FALSE(it.Valid());
}

class StatefulCursorTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StatefulCursorTest, AscendingProbesMatchPlainGet) {
  Env env(TestEnv());
  const uint64_t n = GetParam();
  const BtreeMeta meta = BuildTree(&env, n, /*stride=*/2);
  Btree tree(&env, meta);
  StatefulBtreeCursor cursor(&tree);
  // Probe both present and absent keys in ascending order.
  for (uint64_t k = 0; k < 2 * n; k += 3) {
    LeafEntry e;
    std::string back;
    bool found = false;
    ASSERT_TRUE(cursor.SeekExact(EncodeU64(k), &e, &back, &found).ok());
    const bool expected = (k % 2 == 0) && (k / 2 < n);
    EXPECT_EQ(found, expected) << "key " << k;
    if (found) {
      EXPECT_EQ(e.value.ToString(), "v" + std::to_string(k / 2));
    }
  }
}

TEST_P(StatefulCursorTest, RandomProbesRemainCorrect) {
  Env env(TestEnv());
  const uint64_t n = GetParam();
  const BtreeMeta meta = BuildTree(&env, n, /*stride=*/2);
  Btree tree(&env, meta);
  StatefulBtreeCursor cursor(&tree);
  Random rng(11);
  for (int i = 0; i < 500; i++) {
    const uint64_t k = rng.Uniform(2 * n + 10);
    LeafEntry e;
    std::string back;
    bool found = false;
    ASSERT_TRUE(cursor.SeekExact(EncodeU64(k), &e, &back, &found).ok());
    const bool expected = (k % 2 == 0) && (k / 2 < n);
    EXPECT_EQ(found, expected) << "key " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, StatefulCursorTest,
                         ::testing::Values(10, 500, 5000, 20000));

TEST(StatefulCursorTest, OrdinalMatchesGet) {
  Env env(TestEnv());
  const BtreeMeta meta = BuildTree(&env, 1000);
  Btree tree(&env, meta);
  StatefulBtreeCursor cursor(&tree);
  for (uint64_t k : {0u, 500u, 999u}) {
    LeafEntry e;
    std::string back;
    bool found = false;
    uint64_t ordinal = 0;
    ASSERT_TRUE(cursor
                    .SeekExactWithOrdinal(EncodeU64(k), &e, &back, &found,
                                          &ordinal)
                    .ok());
    ASSERT_TRUE(found);
    EXPECT_EQ(ordinal, k);
  }
}

TEST(BtreeIoTest, ScanReadsLeavesSequentially) {
  EnvOptions o = TestEnv();
  o.cache_pages = 0;  // observe raw I/O
  o.disk_profile = DiskProfile::Hdd();
  Env env(o);
  const BtreeMeta meta = BuildTree(&env, 5000);
  Btree tree(&env, meta);
  const IoStats before = env.stats();
  auto it = tree.NewIterator();
  ASSERT_TRUE(it.SeekToFirst().ok());
  while (it.Valid()) ASSERT_TRUE(it.Next().ok());
  const IoStats delta = env.stats() - before;
  // Leaves are contiguous from page 0: all but the first read sequential.
  EXPECT_EQ(delta.random_reads, 1u);
  EXPECT_EQ(delta.sequential_reads, delta.pages_read - 1);
}

// A no-fill iterator (merge inputs) yields exactly the entries of a filling
// one, with the same kEnvReadPage consult per leaf load, the same
// kCacheMissFill consult per miss and the same modeled charges — it only
// leaves the buffer cache as it found it.
TEST(BtreeIoTest, NoFillIteratorMatchesFillingIterator) {
  struct Scan {
    std::vector<std::tuple<std::string, std::string, uint64_t>> entries;
    uint64_t read_consults = 0, fill_consults = 0;
    IoStats io;
    size_t resident = 0;
    uint64_t bypassed = 0;
  };
  // Each scan gets its own identically built Env, so both start from the
  // same cold cache and the same device head position.
  auto scan = [](bool fill_cache, const std::string& from) {
    FaultInjector fault(1);
    EnvOptions o = TestEnv();
    o.disk_profile = DiskProfile::Hdd();
    o.fault_injector = &fault;
    Env env(o);
    Btree tree(&env, BuildTree(&env, 5000));
    // Armed but never firing: the sites only count their consults.
    for (const char* site :
         {failpoints::kEnvReadPage, failpoints::kCacheMissFill}) {
      fault.Arm(site, FaultSpec::Error(Status::IOError("unused"), 0.0));
    }
    const IoStats before = env.stats();
    Scan out;
    auto it = tree.NewIterator(/*readahead_pages=*/8, fill_cache);
    EXPECT_TRUE((from.empty() ? it.SeekToFirst() : it.Seek(from)).ok());
    while (it.Valid()) {
      out.entries.emplace_back(it.key().ToString(), it.value().ToString(),
                               it.ordinal());
      EXPECT_TRUE(it.Next().ok());
    }
    out.read_consults = fault.site_stats(failpoints::kEnvReadPage).hits;
    out.fill_consults = fault.site_stats(failpoints::kCacheMissFill).hits;
    out.io = env.stats() - before;
    out.resident = env.cache()->size();
    out.bypassed = env.cache()->stats().bypassed;
    return out;
  };
  for (const std::string& from : {std::string(), EncodeU64(1234)}) {
    const Scan filled = scan(/*fill_cache=*/true, from);
    const Scan bypassed = scan(/*fill_cache=*/false, from);
    EXPECT_GT(filled.entries.size(), 3000u);
    EXPECT_EQ(filled.entries, bypassed.entries);
    EXPECT_EQ(filled.read_consults, bypassed.read_consults);
    EXPECT_EQ(filled.fill_consults, bypassed.fill_consults);
    EXPECT_EQ(filled.io.pages_read, bypassed.io.pages_read);
    EXPECT_EQ(filled.io.random_reads, bypassed.io.random_reads);
    EXPECT_EQ(filled.io.cache_misses, bypassed.io.cache_misses);
    EXPECT_EQ(filled.io.simulated_us, bypassed.io.simulated_us);
    EXPECT_GT(filled.resident, 100u);
    EXPECT_EQ(filled.bypassed, 0u);
    // Only Seek's root-to-leaf descent reads through the cache.
    EXPECT_LE(bypassed.resident, 4u);
    EXPECT_GT(bypassed.bypassed, 100u);
  }
}

// The split leaves are read around the buffer cache (a partitioned merge
// asks, and it retires the tree), with the charges a filling read of the
// same leaves makes on a cold cache.
TEST(BtreeIoTest, ApproximateSplitKeysLeavesCacheUnchanged) {
  EnvOptions o = TestEnv();
  o.disk_profile = DiskProfile::Hdd();
  Env env(o);
  Btree tree(&env, BuildTree(&env, 5000));
  Env twin(o);
  Btree twin_tree(&twin, BuildTree(&twin, 5000));

  const size_t resident0 = env.cache()->size();
  const IoStats before = env.stats();
  std::vector<std::string> keys;
  ASSERT_TRUE(tree.ApproximateSplitKeys(4, &keys).ok());
  const IoStats charged = env.stats() - before;
  EXPECT_EQ(keys.size(), 3u);
  EXPECT_EQ(env.cache()->size(), resident0);

  // The same leaves read through the cache on the twin Env: same keys,
  // same modeled charges, but the cache keeps them.
  const BtreeMeta& m = twin_tree.meta();
  const IoStats twin_before = twin.stats();
  std::vector<std::string> filled_keys;
  for (uint32_t i = 1; i < 4; i++) {
    PageData data;
    ASSERT_TRUE(twin.ReadPage(m.file_id,
                              m.first_leaf_page + m.num_leaf_pages * i / 4,
                              &data)
                    .ok());
    filled_keys.push_back(
        BtreePage(std::move(data), twin.page_size()).KeyAt(0).ToString());
  }
  const IoStats twin_charged = twin.stats() - twin_before;
  EXPECT_EQ(keys, filled_keys);
  EXPECT_EQ(charged.pages_read, twin_charged.pages_read);
  EXPECT_EQ(charged.random_reads, twin_charged.random_reads);
  EXPECT_EQ(charged.sequential_reads, twin_charged.sequential_reads);
  EXPECT_EQ(charged.cache_misses, twin_charged.cache_misses);
  EXPECT_DOUBLE_EQ(charged.simulated_us, twin_charged.simulated_us);
  EXPECT_EQ(twin.cache()->size(), resident0 + 3);
}

TEST(BtreeTest, LargeValuesSpanPages) {
  Env env(TestEnv());
  BtreeBuilder b(&env);
  // Values close to page size force one entry per leaf.
  for (uint64_t i = 0; i < 50; i++) {
    ASSERT_TRUE(b.Add(EncodeU64(i), std::string(300, 'x'), i, false).ok());
  }
  BtreeMeta meta;
  ASSERT_TRUE(b.Finish(&meta).ok());
  Btree tree(&env, meta);
  LeafEntry e;
  std::string back;
  ASSERT_TRUE(tree.Get(EncodeU64(25), &e, &back).ok());
  EXPECT_EQ(e.value.size(), 300u);
}

TEST(BtreeTest, EntryLargerThanPageFails) {
  Env env(TestEnv());
  BtreeBuilder b(&env);
  EXPECT_TRUE(
      b.Add(EncodeU64(1), std::string(4096, 'x'), 1, false).IsInvalidArgument());
}

}  // namespace
}  // namespace auxlsm
