#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/dataset.h"
#include "env/env.h"
#include "workload/tweet_gen.h"

namespace auxlsm {
namespace {

std::string Page(Env& env, char fill) {
  return std::string(env.page_size(), fill);
}

EnvOptions SmallEnv(size_t cache_pages = 8) {
  EnvOptions o;
  o.page_size = 256;
  o.cache_pages = cache_pages;
  o.cache_shards = 1;  // single global LRU: tests assert exact evictions
  o.disk_profile = DiskProfile::Hdd();
  return o;
}

TEST(PageStoreTest, CreateAppendRead) {
  PageStore store(128);
  const uint32_t f = store.CreateFile();
  uint32_t p0, p1;
  ASSERT_TRUE(store.AppendPage(f, std::string(128, 'a'), &p0).ok());
  ASSERT_TRUE(store.AppendPage(f, std::string(128, 'b'), &p1).ok());
  EXPECT_EQ(p0, 0u);
  EXPECT_EQ(p1, 1u);
  EXPECT_EQ(store.NumPages(f), 2u);
  PageData d;
  ASSERT_TRUE(store.ReadPage(f, 1, &d).ok());
  EXPECT_EQ((*d)[0], 'b');
}

TEST(PageStoreTest, RejectsWrongPageSize) {
  PageStore store(128);
  const uint32_t f = store.CreateFile();
  EXPECT_TRUE(store.AppendPage(f, "tiny", nullptr).IsInvalidArgument());
}

TEST(PageStoreTest, MissingFileAndRange) {
  PageStore store(128);
  PageData d;
  EXPECT_TRUE(store.ReadPage(999, 0, &d).IsNotFound());
  const uint32_t f = store.CreateFile();
  EXPECT_TRUE(store.ReadPage(f, 0, &d).IsInvalidArgument());
}

TEST(PageStoreTest, DeleteKeepsInFlightReaders) {
  PageStore store(128);
  const uint32_t f = store.CreateFile();
  ASSERT_TRUE(store.AppendPage(f, std::string(128, 'x'), nullptr).ok());
  PageData d;
  ASSERT_TRUE(store.ReadPage(f, 0, &d).ok());
  ASSERT_TRUE(store.DeleteFile(f).ok());
  EXPECT_FALSE(store.FileExists(f));
  EXPECT_EQ((*d)[0], 'x');  // still valid through the shared_ptr
}

TEST(DiskModelTest, SequentialVsRandomClassification) {
  DiskModel disk(DiskProfile::Hdd());
  disk.ChargeRead(1, 0);    // first read: random (seek)
  disk.ChargeRead(1, 1);    // next page: sequential
  disk.ChargeRead(1, 2);
  disk.ChargeRead(2, 0);    // file switch: random
  disk.ChargeRead(1, 100);  // back to file 1: random
  const IoStats s = disk.stats();
  EXPECT_EQ(s.pages_read, 5u);
  EXPECT_EQ(s.random_reads, 3u);
  EXPECT_EQ(s.sequential_reads, 2u);
}

TEST(DiskModelTest, ShortForwardSkipCostsRotationNotSeek) {
  DiskProfile p = DiskProfile::Hdd();
  DiskModel disk(p);
  disk.ChargeRead(1, 0);
  const double before = disk.stats().simulated_us;
  disk.ChargeRead(1, 5);  // forward gap of 5 pages, same file
  const double skip_cost = disk.stats().simulated_us - before;
  EXPECT_DOUBLE_EQ(skip_cost, 5 * p.read_transfer_us + p.read_transfer_us);
  EXPECT_LT(skip_cost, p.seek_us);
  // A backward jump pays the full seek.
  const double before2 = disk.stats().simulated_us;
  disk.ChargeRead(1, 1);
  EXPECT_DOUBLE_EQ(disk.stats().simulated_us - before2,
                   p.seek_us + p.read_transfer_us);
}

TEST(DiskModelTest, RereadSamePageIsSequential) {
  DiskModel disk(DiskProfile::Ssd());
  disk.ChargeRead(3, 7);
  disk.ChargeRead(3, 7);
  EXPECT_EQ(disk.stats().sequential_reads, 1u);
}

TEST(DiskModelTest, CostModelCharges) {
  DiskProfile p = DiskProfile::Hdd();
  DiskModel disk(p);
  disk.ChargeRead(1, 0);  // random: seek + transfer
  disk.ChargeRead(1, 1);  // sequential: transfer
  disk.ChargeWrite(10);
  const IoStats s = disk.stats();
  EXPECT_DOUBLE_EQ(s.simulated_us, p.seek_us + 2 * p.read_transfer_us +
                                       10 * p.write_transfer_us);
}

TEST(DiskModelTest, HddRandomReadsDominateSsd) {
  DiskModel hdd(DiskProfile::Hdd()), ssd(DiskProfile::Ssd());
  for (uint32_t i = 0; i < 100; i++) {
    // Alternating files forces full seeks on every read.
    hdd.ChargeRead(1 + (i % 2), i * 10);
    ssd.ChargeRead(1 + (i % 2), i * 10);
  }
  EXPECT_GT(hdd.stats().simulated_us, 10 * ssd.stats().simulated_us);
}

TEST(BufferCacheTest, HitAvoidsSecondCharge) {
  Env env(SmallEnv());
  const uint32_t f = env.CreateFile();
  ASSERT_TRUE(env.AppendPage(f, Page(env, 'a'), nullptr).ok());
  PageData d;
  ASSERT_TRUE(env.ReadPage(f, 0, &d).ok());
  const IoStats after_first = env.stats();
  ASSERT_TRUE(env.ReadPage(f, 0, &d).ok());
  const IoStats after_second = env.stats();
  EXPECT_EQ(after_second.pages_read, after_first.pages_read);
  EXPECT_EQ(after_second.cache_hits, after_first.cache_hits + 1);
}

TEST(BufferCacheTest, LruEvictsOldest) {
  Env env(SmallEnv(/*cache_pages=*/2));
  const uint32_t f = env.CreateFile();
  for (int i = 0; i < 3; i++) {
    ASSERT_TRUE(env.AppendPage(f, Page(env, char('a' + i)), nullptr).ok());
  }
  PageData d;
  ASSERT_TRUE(env.ReadPage(f, 0, &d).ok());
  ASSERT_TRUE(env.ReadPage(f, 1, &d).ok());
  ASSERT_TRUE(env.ReadPage(f, 2, &d).ok());  // evicts page 0
  const uint64_t misses_before = env.stats().cache_misses;
  ASSERT_TRUE(env.ReadPage(f, 0, &d).ok());  // miss again
  EXPECT_EQ(env.stats().cache_misses, misses_before + 1);
}

TEST(BufferCacheTest, DefaultOptionsGiveOneShardWithExactLruOrder) {
  // The default stripe count is host-independent: one shard, one global LRU.
  EnvOptions o;
  o.cache_pages = 4;  // only the size is set; cache_shards keeps its default
  Env env(o);
  EXPECT_EQ(env.cache()->shards(), 1u);
  const uint32_t f = env.CreateFile();
  for (int i = 0; i < 5; i++) {
    ASSERT_TRUE(env.AppendPage(f, Page(env, char('a' + i)), nullptr).ok());
  }
  PageData d;
  for (uint32_t p = 0; p < 4; p++) ASSERT_TRUE(env.ReadPage(f, p, &d).ok());
  ASSERT_TRUE(env.ReadPage(f, 0, &d).ok());  // hit: page 0 becomes MRU
  ASSERT_TRUE(env.ReadPage(f, 4, &d).ok());  // evicts page 1, the LRU page
  const uint64_t misses = env.stats().cache_misses;
  for (uint32_t p : {0u, 2u, 3u, 4u}) {
    ASSERT_TRUE(env.ReadPage(f, p, &d).ok());
  }
  EXPECT_EQ(env.stats().cache_misses, misses);  // all four still resident
  ASSERT_TRUE(env.ReadPage(f, 1, &d).ok());
  EXPECT_EQ(env.stats().cache_misses, misses + 1);  // page 1 was evicted
}

TEST(BufferCacheTest, ReadAheadFaultsFollowingPagesSequentially) {
  Env env(SmallEnv(/*cache_pages=*/16));
  const uint32_t f = env.CreateFile();
  for (int i = 0; i < 8; i++) {
    ASSERT_TRUE(env.AppendPage(f, Page(env, 'x'), nullptr).ok());
  }
  PageData d;
  ASSERT_TRUE(env.ReadPage(f, 0, &d, /*readahead_pages=*/4).ok());
  const IoStats s = env.stats();
  EXPECT_EQ(s.pages_read, 5u);  // 1 demand + 4 read-ahead
  EXPECT_EQ(s.sequential_reads, 4u);
  // Following reads are cache hits.
  const uint64_t reads_before = s.pages_read;
  ASSERT_TRUE(env.ReadPage(f, 1, &d).ok());
  ASSERT_TRUE(env.ReadPage(f, 4, &d).ok());
  EXPECT_EQ(env.stats().pages_read, reads_before);
}

TEST(BufferCacheTest, ZeroCapacityDisablesCaching) {
  Env env(SmallEnv(/*cache_pages=*/0));
  const uint32_t f = env.CreateFile();
  ASSERT_TRUE(env.AppendPage(f, Page(env, 'a'), nullptr).ok());
  PageData d;
  ASSERT_TRUE(env.ReadPage(f, 0, &d).ok());
  ASSERT_TRUE(env.ReadPage(f, 0, &d).ok());
  EXPECT_EQ(env.stats().pages_read, 2u);
}

TEST(BufferCacheTest, EvictDropsFilePages) {
  Env env(SmallEnv());
  const uint32_t f = env.CreateFile();
  ASSERT_TRUE(env.AppendPage(f, Page(env, 'a'), nullptr).ok());
  PageData d;
  ASSERT_TRUE(env.ReadPage(f, 0, &d).ok());
  EXPECT_EQ(env.cache()->size(), 1u);
  env.cache()->Evict(f);
  EXPECT_EQ(env.cache()->size(), 0u);
}

TEST(BufferCacheTest, SetCapacityShrinks) {
  Env env(SmallEnv(/*cache_pages=*/8));
  const uint32_t f = env.CreateFile();
  PageData d;
  for (int i = 0; i < 6; i++) {
    ASSERT_TRUE(env.AppendPage(f, Page(env, 'x'), nullptr).ok());
    ASSERT_TRUE(env.ReadPage(f, i, &d).ok());
  }
  EXPECT_EQ(env.cache()->size(), 6u);
  env.cache()->set_capacity(2);
  EXPECT_LE(env.cache()->size(), 2u);
}

namespace {
void ExpectSameCharges(const IoStats& a, const IoStats& b) {
  EXPECT_EQ(a.pages_read, b.pages_read);
  EXPECT_EQ(a.random_reads, b.random_reads);
  EXPECT_EQ(a.sequential_reads, b.sequential_reads);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.cache_misses, b.cache_misses);
  EXPECT_EQ(a.simulated_us, b.simulated_us);
}
}  // namespace

TEST(BufferCacheNoFillTest, LeavesResidentSetAndLruOrderUntouched) {
  Env env(SmallEnv(/*cache_pages=*/4));
  const uint32_t f = env.CreateFile();
  for (int i = 0; i < 8; i++) {
    ASSERT_TRUE(env.AppendPage(f, Page(env, char('a' + i)), nullptr).ok());
  }
  PageData d;
  for (int i = 0; i < 4; i++) ASSERT_TRUE(env.ReadPage(f, i, &d).ok());
  // LRU order, most recent first: 3 2 1 0. Page 0 is the next victim.
  std::vector<PageData> window;
  ASSERT_TRUE(env.cache()->ReadNoFill(f, 0, /*readahead_pages=*/3, &window)
                  .ok());
  ASSERT_EQ(window.size(), 1u);  // a resident page is a hit: no read-ahead
  EXPECT_EQ((*window[0])[0], 'a');
  ASSERT_TRUE(env.cache()->ReadNoFill(f, 4, /*readahead_pages=*/3, &window)
                  .ok());
  ASSERT_EQ(window.size(), 4u);
  for (int i = 0; i < 4; i++) EXPECT_EQ((*window[i])[0], char('e' + i));

  BufferCacheStats s = env.cache()->stats();
  EXPECT_EQ(env.cache()->size(), 4u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 5u);  // 4 fills + 1 no-fill miss
  EXPECT_EQ(s.bypassed, 5u);
  // Nothing was admitted, and page 0 was not promoted: the next fill still
  // evicts it, and the other three stay resident.
  ASSERT_TRUE(env.ReadPage(f, 5, &d).ok());
  EXPECT_EQ(env.cache()->stats().evictions, 1u);
  const uint64_t hits = env.cache()->stats().hits;
  for (int i = 1; i < 4; i++) ASSERT_TRUE(env.ReadPage(f, i, &d).ok());
  EXPECT_EQ(env.cache()->stats().hits, hits + 3);
  const uint64_t misses = env.cache()->stats().misses;
  ASSERT_TRUE(env.ReadPage(f, 0, &d).ok());
  EXPECT_EQ(env.cache()->stats().misses, misses + 1);
}

// A no-fill read charges exactly what a filling Read charges: the same
// hits, misses, demand and read-ahead page reads, head moves and modeled
// time — on a cold cache, around a resident page, and with caching off.
TEST(BufferCacheNoFillTest, ChargesExactlyWhatReadCharges) {
  for (const size_t cache_pages : {size_t{16}, size_t{0}}) {
    SCOPED_TRACE(cache_pages);
    auto twelve_page_file = [](Env& env) {
      const uint32_t f = env.CreateFile();
      for (int i = 0; i < 12; i++) {
        EXPECT_TRUE(env.AppendPage(f, Page(env, 'x'), nullptr).ok());
      }
      return f;
    };
    Env fill(SmallEnv(cache_pages));
    Env nofill(SmallEnv(cache_pages));
    const uint32_t f = twelve_page_file(fill);
    ASSERT_EQ(twelve_page_file(nofill), f);
    PageData d;
    std::vector<PageData> window;
    // A cold run with read-ahead; then page 8 is made resident in both
    // caches, and a run over it (and the page itself) charges alike. The
    // runs do not overlap: the no-fill run admitted nothing, so a page the
    // filling run read ahead is resident only in `fill`.
    ASSERT_TRUE(fill.ReadPage(f, 0, &d, /*readahead_pages=*/4).ok());
    ASSERT_TRUE(nofill.cache()->ReadNoFill(f, 0, 4, &window).ok());
    ExpectSameCharges(fill.stats(), nofill.stats());
    ASSERT_TRUE(fill.ReadPage(f, 8, &d).ok());
    ASSERT_TRUE(nofill.ReadPage(f, 8, &d).ok());
    for (const uint32_t page : {6u, 8u}) {
      ASSERT_TRUE(fill.ReadPage(f, page, &d, /*readahead_pages=*/4).ok());
      ASSERT_TRUE(nofill.cache()->ReadNoFill(f, page, 4, &window).ok());
      ExpectSameCharges(fill.stats(), nofill.stats());
    }
  }
}

TEST(ShardedBufferCacheTest, ShardsSplitCapacityExactly) {
  EnvOptions o = SmallEnv(/*cache_pages=*/10);
  o.cache_shards = 4;
  Env env(o);
  EXPECT_EQ(env.cache()->shards(), 4u);
  EXPECT_EQ(env.cache()->capacity(), 10u);
}

TEST(ShardedBufferCacheTest, HitMissEvictionStats) {
  EnvOptions o = SmallEnv(/*cache_pages=*/4);
  o.cache_shards = 2;
  Env env(o);
  const uint32_t f = env.CreateFile();
  for (int i = 0; i < 8; i++) {
    ASSERT_TRUE(env.AppendPage(f, Page(env, char('a' + i)), nullptr).ok());
  }
  PageData d;
  for (int i = 0; i < 8; i++) {
    ASSERT_TRUE(env.ReadPage(f, i, &d).ok());
  }
  ASSERT_TRUE(env.ReadPage(f, 7, &d).ok());  // recent page: hit
  const BufferCacheStats s = env.cache()->stats();
  EXPECT_EQ(s.misses, 8u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.evictions, 8u - env.cache()->size());
  EXPECT_LE(env.cache()->size(), 4u);
}

TEST(ShardedBufferCacheTest, EvictFileDropsOnlyThatFile) {
  EnvOptions o = SmallEnv(/*cache_pages=*/32);
  o.cache_shards = 4;
  Env env(o);
  const uint32_t f1 = env.CreateFile();
  const uint32_t f2 = env.CreateFile();
  PageData d;
  for (int i = 0; i < 6; i++) {
    ASSERT_TRUE(env.AppendPage(f1, Page(env, 'a'), nullptr).ok());
    ASSERT_TRUE(env.AppendPage(f2, Page(env, 'b'), nullptr).ok());
    ASSERT_TRUE(env.ReadPage(f1, i, &d).ok());
    ASSERT_TRUE(env.ReadPage(f2, i, &d).ok());
  }
  EXPECT_EQ(env.cache()->size(), 12u);
  env.cache()->Evict(f1);
  EXPECT_EQ(env.cache()->size(), 6u);
  // f2's pages are all still hits.
  const uint64_t hits_before = env.cache()->stats().hits;
  for (int i = 0; i < 6; i++) {
    ASSERT_TRUE(env.ReadPage(f2, i, &d).ok());
  }
  EXPECT_EQ(env.cache()->stats().hits, hits_before + 6);
}

TEST(ShardedBufferCacheTest, ConcurrentReadersAndEvictors) {
  EnvOptions o = SmallEnv(/*cache_pages=*/16);
  o.cache_shards = 8;
  o.disk_profile = DiskProfile::Null();
  Env env(o);
  const uint32_t f = env.CreateFile();
  constexpr int kPages = 64;
  for (int i = 0; i < kPages; i++) {
    ASSERT_TRUE(env.AppendPage(f, Page(env, char('a' + i % 26)), nullptr).ok());
  }
  std::atomic<bool> failed{false};
  auto reader = [&](int seed) {
    uint64_t s = seed;
    for (int i = 0; i < 2000; i++) {
      s = s * 6364136223846793005ULL + 1;
      const uint32_t page = (s >> 33) % kPages;
      PageData d;
      if (!env.ReadPage(f, page, &d, /*readahead_pages=*/2).ok() ||
          (*d)[0] != char('a' + page % 26)) {
        failed.store(true);
      }
    }
  };
  std::thread t1(reader, 1), t2(reader, 2), t3([&]() {
    for (int i = 0; i < 200; i++) {
      env.cache()->Evict(f + 1);  // no-op file: exercises the lock paths
      env.cache()->Clear();
    }
  });
  t1.join();
  t2.join();
  t3.join();
  EXPECT_FALSE(failed.load());
  const BufferCacheStats s = env.cache()->stats();
  EXPECT_GT(s.misses, 0u);
}

TEST(EnvTest, DeleteFileEvictsAndForgets) {
  Env env(SmallEnv());
  const uint32_t f = env.CreateFile();
  ASSERT_TRUE(env.AppendPage(f, Page(env, 'a'), nullptr).ok());
  PageData d;
  ASSERT_TRUE(env.ReadPage(f, 0, &d).ok());
  ASSERT_TRUE(env.DeleteFile(f).ok());
  EXPECT_TRUE(env.ReadPage(f, 0, &d).IsNotFound());
  EXPECT_TRUE(env.io()->HeadFiles().empty());
}

TEST(EnvTest, DeleteFileSweepsHeadsOnEveryQueue) {
  // Heads parked on the same file from several device queues must all be
  // forgotten when the file is deleted, not just the caller's queue.
  EnvOptions o = SmallEnv();
  o.io_queues = 3;
  Env env(o);
  const uint32_t f = env.CreateFile();
  const uint32_t g = env.CreateFile();
  for (int i = 0; i < 4; i++) {
    ASSERT_TRUE(env.AppendPage(f, Page(env, 'a'), nullptr).ok());
    ASSERT_TRUE(env.AppendPage(g, Page(env, 'b'), nullptr).ok());
  }
  PageData d;
  for (uint32_t q = 0; q < 3; q++) {
    IoQueueScope scope(env.io(), q);
    ASSERT_TRUE(env.ReadPage(f, q, &d).ok());
  }
  {
    IoQueueScope scope(env.io(), 1);
    ASSERT_TRUE(env.ReadPage(g, 0, &d).ok());
  }
  ASSERT_TRUE(env.DeleteFile(f).ok());
  const auto heads = env.io()->HeadFiles();
  ASSERT_EQ(heads.size(), 1u);
  EXPECT_EQ(heads[0], g);
}

// Retiring components through the real maintenance paths (merges and
// standalone secondary repair) deletes their files; no device queue may be
// left with a head resting on a deleted file.
TEST(EnvTest, RetiredComponentsLeakNoHeadPositions) {
  EnvOptions eo;
  eo.page_size = 4096;
  eo.cache_pages = 64;  // tiny cache: merges and repairs re-read from disk
  eo.cache_shards = 1;
  eo.io_queues = 4;
  Env env(eo);
  DatasetOptions o;
  o.strategy = MaintenanceStrategy::kValidation;
  o.merge_repair = true;  // exercises the repair retirement path too
  o.mem_budget_bytes = 64u << 10;
  o.max_mergeable_bytes = 8u << 20;
  {
    Dataset ds(&env, o);
    TweetGenerator gen;
    Random rng(5);
    for (int i = 0; i < 4000; i++) {
      if (i > 100 && rng.Bernoulli(0.2)) {
        ASSERT_TRUE(ds.Upsert(gen.Update(rng.Uniform(gen.generated()))).ok());
      } else {
        ASSERT_TRUE(ds.Upsert(gen.Next()).ok());
      }
    }
    ASSERT_TRUE(ds.FlushAll().ok());
    ASSERT_TRUE(ds.RepairAllSecondaries().ok());
    ASSERT_GT(ds.ingest_stats().merges.load(), 0u);
    for (const uint32_t f : env.io()->HeadFiles()) {
      EXPECT_TRUE(env.store()->FileExists(f)) << "stale head on file " << f;
    }
  }
}

TEST(EnvTest, WriteChargesSequentialCost) {
  Env env(SmallEnv());
  const uint32_t f = env.CreateFile();
  ASSERT_TRUE(env.AppendPage(f, Page(env, 'a'), nullptr).ok());
  EXPECT_EQ(env.stats().pages_written, 1u);
  EXPECT_GT(env.stats().simulated_us, 0.0);
}

}  // namespace
}  // namespace auxlsm
