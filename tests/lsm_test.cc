#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/dataset.h"
#include "core/deleted_key.h"
#include "format/key_codec.h"
#include "lsm/lsm_tree.h"

namespace auxlsm {
namespace {

EnvOptions TestEnv() {
  EnvOptions o;
  o.page_size = 512;
  o.cache_pages = 1 << 16;
  o.disk_profile = DiskProfile::Null();
  return o;
}

LsmTreeOptions TreeOpts() {
  LsmTreeOptions o;
  o.build_bloom = true;
  o.build_blocked_bloom = true;
  return o;
}

TEST(BitmapTest, SetTestUnsetCount) {
  Bitmap b(200);
  EXPECT_FALSE(b.Test(100));
  EXPECT_FALSE(b.Set(100));  // previous value
  EXPECT_TRUE(b.Test(100));
  EXPECT_TRUE(b.Set(100));  // already set
  EXPECT_EQ(b.CountSet(), 1u);
  EXPECT_TRUE(b.Unset(100));
  EXPECT_FALSE(b.Test(100));
  EXPECT_EQ(b.CountSet(), 0u);
}

TEST(BitmapTest, SnapshotIsIndependent) {
  Bitmap b(64);
  b.Set(5);
  Bitmap snap = Bitmap::SnapshotOf(b);
  b.Set(6);
  EXPECT_TRUE(snap.Test(5));
  EXPECT_FALSE(snap.Test(6));
}

TEST(BitmapTest, WordsRoundTripAndUnion) {
  Bitmap a(128);
  a.Set(0);
  a.Set(127);
  Bitmap b = Bitmap::FromWords(128, a.Words());
  EXPECT_TRUE(b.Test(0));
  EXPECT_TRUE(b.Test(127));
  Bitmap c(128);
  c.Set(64);
  c.UnionWith(a);
  EXPECT_EQ(c.CountSet(), 3u);
}

TEST(BitmapTest, ConcurrentSetsDoNotLoseUpdates) {
  Bitmap b(100000);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; t++) {
    threads.emplace_back([&b, t]() {
      for (uint64_t i = t; i < 100000; i += 4) b.Set(i);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(b.CountSet(), 100000u);
}

TEST(RangeFilterTest, ExpandOverlapsMerge) {
  RangeFilter f;
  EXPECT_FALSE(f.has_value());
  EXPECT_FALSE(f.Overlaps(0, ~0ull));  // empty filter never overlaps
  f.Expand(10);
  f.Expand(20);
  EXPECT_TRUE(f.Overlaps(15, 16));
  EXPECT_TRUE(f.Overlaps(20, 30));
  EXPECT_FALSE(f.Overlaps(21, 30));
  EXPECT_FALSE(f.Overlaps(0, 9));
  RangeFilter g;
  g.Expand(100);
  g.Merge(f);
  EXPECT_TRUE(g.Overlaps(10, 10));
  EXPECT_TRUE(g.Overlaps(100, 100));
}

TEST(ComponentIdTest, OrderingAndOverlap) {
  ComponentId a{1, 10}, b{11, 20}, c{5, 15};
  EXPECT_TRUE(a.OlderThan(b));
  EXPECT_FALSE(b.OlderThan(a));
  EXPECT_TRUE(a.Overlaps(c));
  EXPECT_TRUE(c.Overlaps(b));
  EXPECT_FALSE(a.Overlaps(b));
  EXPECT_EQ(a.ToString(), "1-10");
}

TEST(MergePolicyTest, TieringTriggersAtSizeRatio) {
  TieringMergePolicy p(1.2, 1u << 30);
  // Newest-first sizes: young components too small to outweigh the oldest.
  EXPECT_TRUE(p.PickMerge({{10}, {100}}).empty());
  // 130 >= 1.2 * 100: merge everything.
  const MergeRange r = p.PickMerge({{60}, {70}, {100}});
  EXPECT_EQ(r.begin, 0u);
  EXPECT_EQ(r.end, 3u);
}

TEST(MergePolicyTest, TieringRespectsMaxMergeableSize) {
  TieringMergePolicy p(1.2, /*max=*/50);
  // Oldest component exceeds the cap: it is frozen; the two young ones merge
  // only if they satisfy the ratio among themselves.
  const MergeRange r = p.PickMerge({{40}, {30}, {1000}});
  EXPECT_EQ(r.begin, 0u);
  EXPECT_EQ(r.end, 2u);
  EXPECT_TRUE(p.PickMerge({{10}, {30}, {1000}}).empty());
}

TEST(MergePolicyTest, TieringPrefersLongestSequence) {
  TieringMergePolicy p(1.0, 1u << 30);
  const MergeRange r = p.PickMerge({{50}, {50}, {50}, {100}});
  EXPECT_EQ(r.count(), 4u);  // 150 >= 100 merges all four
}

TEST(MergePolicyTest, LevelingMergesOverflowingLevel) {
  LevelingMergePolicy p(10.0, 100);
  EXPECT_TRUE(p.PickMerge({{50}, {500}}).empty());
  const MergeRange r = p.PickMerge({{150}, {500}});
  EXPECT_EQ(r.begin, 0u);
  EXPECT_EQ(r.end, 2u);
}

TEST(MergePolicyTest, NoMergePolicyNeverMerges) {
  NoMergePolicy p;
  EXPECT_TRUE(p.PickMerge({{100}, {100}, {100}}).empty());
}

TEST(LsmTreeTest, PutGetThroughMemtable) {
  Env env(TestEnv());
  LsmTree tree(&env, TreeOpts());
  tree.Put(EncodeU64(1), "one", 1);
  OwnedEntry e;
  ASSERT_TRUE(tree.Get(EncodeU64(1), &e).ok());
  EXPECT_EQ(e.value, "one");
  EXPECT_TRUE(tree.Get(EncodeU64(2), &e).IsNotFound());
}

TEST(LsmTreeTest, FlushCreatesComponentWithId) {
  Env env(TestEnv());
  LsmTree tree(&env, TreeOpts());
  tree.Put(EncodeU64(1), "a", 5);
  tree.Put(EncodeU64(2), "b", 9);
  ASSERT_TRUE(tree.Flush().ok());
  ASSERT_EQ(tree.NumDiskComponents(), 1u);
  const auto comps = tree.Components();
  EXPECT_EQ(comps[0]->id().min_ts, 5u);
  EXPECT_EQ(comps[0]->id().max_ts, 9u);
  EXPECT_TRUE(tree.memtable()->empty());
  OwnedEntry e;
  ASSERT_TRUE(tree.Get(EncodeU64(1), &e).ok());
  EXPECT_EQ(e.value, "a");
}

TEST(LsmTreeTest, NewerComponentOverridesOlder) {
  Env env(TestEnv());
  LsmTree tree(&env, TreeOpts());
  tree.Put(EncodeU64(1), "old", 1);
  ASSERT_TRUE(tree.Flush().ok());
  tree.Put(EncodeU64(1), "new", 2);
  ASSERT_TRUE(tree.Flush().ok());
  OwnedEntry e;
  ASSERT_TRUE(tree.Get(EncodeU64(1), &e).ok());
  EXPECT_EQ(e.value, "new");
}

TEST(LsmTreeTest, AntimatterHidesOlderEntry) {
  Env env(TestEnv());
  LsmTree tree(&env, TreeOpts());
  tree.Put(EncodeU64(1), "v", 1);
  ASSERT_TRUE(tree.Flush().ok());
  tree.PutAntimatter(EncodeU64(1), 2);
  OwnedEntry e;
  EXPECT_TRUE(tree.Get(EncodeU64(1), &e).IsNotFound());
  LookupResult raw;
  ASSERT_TRUE(tree.GetRaw(EncodeU64(1), &raw).ok());
  EXPECT_TRUE(raw.found);
  EXPECT_TRUE(raw.entry.antimatter);
}

TEST(LsmTreeTest, MergeAllReconcilesAndDropsAntimatter) {
  Env env(TestEnv());
  LsmTree tree(&env, TreeOpts());
  for (uint64_t i = 0; i < 100; i++) tree.Put(EncodeU64(i), "v0", i + 1);
  ASSERT_TRUE(tree.Flush().ok());
  for (uint64_t i = 0; i < 50; i++) tree.Put(EncodeU64(i), "v1", 200 + i);
  for (uint64_t i = 50; i < 60; i++) tree.PutAntimatter(EncodeU64(i), 300 + i);
  ASSERT_TRUE(tree.Flush().ok());
  ASSERT_EQ(tree.NumDiskComponents(), 2u);
  ASSERT_TRUE(tree.MergeAll().ok());
  ASSERT_EQ(tree.NumDiskComponents(), 1u);
  // 100 - 10 deleted records remain; anti-matter physically dropped.
  EXPECT_EQ(tree.Components()[0]->num_entries(), 90u);
  OwnedEntry e;
  ASSERT_TRUE(tree.Get(EncodeU64(0), &e).ok());
  EXPECT_EQ(e.value, "v1");
  EXPECT_TRUE(tree.Get(EncodeU64(55), &e).IsNotFound());
  ASSERT_TRUE(tree.Get(EncodeU64(80), &e).ok());
  EXPECT_EQ(e.value, "v0");
}

TEST(LsmTreeTest, PartialMergeKeepsAntimatter) {
  Env env(TestEnv());
  LsmTree tree(&env, TreeOpts());
  tree.Put(EncodeU64(1), "v", 1);
  ASSERT_TRUE(tree.Flush().ok());
  tree.PutAntimatter(EncodeU64(1), 2);
  ASSERT_TRUE(tree.Flush().ok());
  tree.Put(EncodeU64(2), "x", 3);
  ASSERT_TRUE(tree.Flush().ok());
  // Merge only the two newest components: anti-matter must survive to keep
  // shadowing the oldest component's entry.
  ASSERT_TRUE(tree.MergeComponentRange(MergeRange{0, 2}).ok());
  OwnedEntry e;
  EXPECT_TRUE(tree.Get(EncodeU64(1), &e).IsNotFound());
}

TEST(LsmTreeTest, MergedComponentIdSpansInputs) {
  Env env(TestEnv());
  LsmTree tree(&env, TreeOpts());
  tree.Put(EncodeU64(1), "a", 1);
  ASSERT_TRUE(tree.Flush().ok());
  tree.Put(EncodeU64(2), "b", 7);
  ASSERT_TRUE(tree.Flush().ok());
  ASSERT_TRUE(tree.MergeAll().ok());
  EXPECT_EQ(tree.Components()[0]->id().min_ts, 1u);
  EXPECT_EQ(tree.Components()[0]->id().max_ts, 7u);
}

TEST(LsmTreeTest, BitmapInvalidEntriesDroppedInMerge) {
  Env env(TestEnv());
  LsmTreeOptions opts = TreeOpts();
  opts.attach_bitmap = true;
  LsmTree tree(&env, opts);
  for (uint64_t i = 0; i < 10; i++) tree.Put(EncodeU64(i), "v", i + 1);
  ASSERT_TRUE(tree.Flush().ok());
  tree.Put(EncodeU64(100), "w", 50);
  ASSERT_TRUE(tree.Flush().ok());
  // Mark entries 3 and 4 of the older component invalid.
  auto comps = tree.Components();
  comps[1]->bitmap()->Set(3);
  comps[1]->bitmap()->Set(4);
  ASSERT_TRUE(tree.MergeAll().ok());
  EXPECT_EQ(tree.Components()[0]->num_entries(), 9u);  // 11 - 2
  OwnedEntry e;
  EXPECT_TRUE(tree.Get(EncodeU64(3), &e).IsNotFound());
  ASSERT_TRUE(tree.Get(EncodeU64(5), &e).ok());
}

TEST(LsmTreeTest, GetRawReportsOrdinalForBitmaps) {
  Env env(TestEnv());
  LsmTreeOptions opts = TreeOpts();
  opts.attach_bitmap = true;
  LsmTree tree(&env, opts);
  for (uint64_t i = 0; i < 10; i++) tree.Put(EncodeU64(i), "v", i + 1);
  ASSERT_TRUE(tree.Flush().ok());
  LookupResult res;
  ASSERT_TRUE(tree.GetRaw(EncodeU64(7), &res).ok());
  ASSERT_TRUE(res.found);
  EXPECT_EQ(res.ordinal, 7u);
  // Marking it invalid makes a bitmap-respecting lookup miss.
  res.component->bitmap()->Set(res.ordinal);
  OwnedEntry e;
  EXPECT_TRUE(tree.Get(EncodeU64(7), &e).IsNotFound());
  GetOptions ignore_bitmaps;
  ignore_bitmaps.respect_bitmaps = false;
  ASSERT_TRUE(tree.Get(EncodeU64(7), &e, ignore_bitmaps).ok());
}

TEST(LsmTreeTest, ComponentIdPruningSkipsOldComponents) {
  Env env(TestEnv());
  LsmTree tree(&env, TreeOpts());
  tree.Put(EncodeU64(1), "old", 1);
  ASSERT_TRUE(tree.Flush().ok());
  GetOptions opts;
  opts.min_component_ts = 100;  // both flushed components are older
  LookupResult res;
  ASSERT_TRUE(tree.GetRaw(EncodeU64(1), &res, opts).ok());
  EXPECT_FALSE(res.found);
}

TEST(LsmTreeTest, TryMergeFollowsPolicy) {
  Env env(TestEnv());
  LsmTreeOptions opts = TreeOpts();
  opts.merge_policy = std::make_shared<TieringMergePolicy>(1.0, 1u << 30);
  LsmTree tree(&env, opts);
  for (int c = 0; c < 2; c++) {
    for (uint64_t i = 0; i < 50; i++) {
      tree.Put(EncodeU64(c * 1000 + i), "v", c * 100 + i + 1);
    }
    ASSERT_TRUE(tree.Flush().ok());
  }
  bool merged = false;
  ASSERT_TRUE(tree.TryMerge(&merged).ok());
  EXPECT_TRUE(merged);
  EXPECT_EQ(tree.NumDiskComponents(), 1u);
}

// Every entry of a component, in key order.
std::vector<OwnedEntry> ComponentEntries(const DiskComponentPtr& c) {
  std::vector<OwnedEntry> out;
  auto it = c->tree().NewIterator();
  EXPECT_TRUE(it.SeekToFirst().ok());
  while (it.Valid()) {
    out.push_back(OwnedEntry{it.key().ToString(), it.value().ToString(),
                             it.ts(), it.antimatter()});
    EXPECT_TRUE(it.Next().ok());
  }
  return out;
}

TEST(LsmTreeTest, PartitionedMergeMatchesSingleQueueMerge) {
  // The same four overlapping components (overwrites, anti-matter and
  // bitmap-dead entries, about 2 MiB in all) on a 1-queue and a 4-queue
  // device. The 4-queue merges read their inputs as key-range partitions
  // on this one thread; they must build exactly what the 1-queue merges
  // build, first a partial merge (anti-matter kept, range filters unioned)
  // and then a full one (anti-matter dropped, range filter recomputed).
  auto build = [](Env* env) {
    LsmTreeOptions opts = TreeOpts();
    opts.attach_bitmap = true;
    opts.maintain_range_filter = true;
    opts.filter_key_extractor = [](const Slice& key, const Slice&) {
      return DecodeU64(key) / 10;
    };
    auto tree = std::make_unique<LsmTree>(env, opts);
    const std::string pad(150, 'p');
    uint64_t ts = 0;
    for (uint64_t c = 0; c < 4; c++) {
      for (uint64_t i = 0; i < 3000; i++) {
        const uint64_t key = i * 4 + c;  // interleaved key ranges
        tree->Put(EncodeU64(key), pad + std::to_string(key), ++ts);
      }
      for (uint64_t i = 0; i < 300; i++) {
        tree->Put(EncodeU64(i * 7), "upd" + std::to_string(c), ++ts);
        tree->PutAntimatter(EncodeU64(i * 11 + 1), ++ts);
      }
      EXPECT_TRUE(tree->Flush().ok());
      const DiskComponentPtr fresh = tree->Components().front();
      fresh->set_repaired_ts(100 - c);
      fresh->set_max_lsn(10 + c * 3);
      for (uint64_t o = c; o < fresh->num_entries(); o += 17) {
        fresh->bitmap()->Set(o);
      }
    }
    return tree;
  };
  auto merge_and_check = [](LsmTree* one, LsmTree* four, Env* four_env,
                            size_t n) {
    std::vector<uint64_t> reads_before;
    for (uint32_t q = 0; q < 4; q++) {
      reads_before.push_back(four_env->io()->queue_stats(q).pages_read);
    }
    auto newest = [n](LsmTree* t) {
      std::vector<DiskComponentPtr> c = t->Components();
      c.resize(n);
      return c;
    };
    ASSERT_TRUE(one->MergeComponents(newest(one)).ok());
    ASSERT_TRUE(four->MergeComponents(newest(four)).ok());
    size_t queues_read = 0;
    for (uint32_t q = 0; q < 4; q++) {
      if (four_env->io()->queue_stats(q).pages_read > reads_before[q]) {
        queues_read++;
      }
    }
    EXPECT_GE(queues_read, 2u) << "the merge was not partitioned";

    ASSERT_EQ(one->NumDiskComponents(), four->NumDiskComponents());
    const DiskComponentPtr a = one->Components().front();
    const DiskComponentPtr b = four->Components().front();
    EXPECT_EQ(b->id().min_ts, a->id().min_ts);
    EXPECT_EQ(b->id().max_ts, a->id().max_ts);
    EXPECT_EQ(b->repaired_ts(), a->repaired_ts());
    EXPECT_EQ(b->max_lsn(), a->max_lsn());
    ASSERT_TRUE(a->range_filter().has_value());
    ASSERT_TRUE(b->range_filter().has_value());
    EXPECT_EQ(b->range_filter()->min(), a->range_filter()->min());
    EXPECT_EQ(b->range_filter()->max(), a->range_filter()->max());
    const std::vector<OwnedEntry> ea = ComponentEntries(a);
    const std::vector<OwnedEntry> eb = ComponentEntries(b);
    ASSERT_EQ(eb.size(), ea.size());
    for (size_t i = 0; i < ea.size(); i++) {
      EXPECT_EQ(eb[i].key, ea[i].key);
      EXPECT_EQ(eb[i].value, ea[i].value);
      EXPECT_EQ(eb[i].ts, ea[i].ts);
      EXPECT_EQ(eb[i].antimatter, ea[i].antimatter);
    }
  };

  EnvOptions eo = TestEnv();
  eo.page_size = 4096;
  eo.cache_pages = 64;
  Env env_one(eo);
  eo.io_queues = 4;
  Env env_four(eo);
  ASSERT_EQ(env_four.io()->num_queues(), 4u);
  auto one = build(&env_one);
  auto four = build(&env_four);

  merge_and_check(one.get(), four.get(), &env_four, 3);
  const std::vector<OwnedEntry> partial =
      ComponentEntries(four->Components().front());
  EXPECT_TRUE(std::any_of(partial.begin(), partial.end(),
                          [](const OwnedEntry& e) { return e.antimatter; }));
  merge_and_check(one.get(), four.get(), &env_four, 2);
  ASSERT_EQ(four->NumDiskComponents(), 1u);
  const std::vector<OwnedEntry> full =
      ComponentEntries(four->Components().front());
  EXPECT_TRUE(std::none_of(full.begin(), full.end(),
                           [](const OwnedEntry& e) { return e.antimatter; }));
}

// A dataset whose one secondary index holds three components, about 1.5 MiB
// in all; each round re-writes a fifth of the earlier records under another
// user, so a merge has obsolete entries to drop (deleted-key) or to bitmap
// (merge repair). No policy merge runs: the test merges by hand.
std::unique_ptr<Dataset> LoadSecondaryComponents(Env* env,
                                                 MaintenanceStrategy strategy) {
  DatasetOptions o;
  o.strategy = strategy;
  o.merge_repair = strategy == MaintenanceStrategy::kValidation;
  o.mem_budget_bytes = 1 << 30;
  o.max_mergeable_bytes = 1;
  auto ds = std::make_unique<Dataset>(env, o);
  const uint64_t per_round = 24000;
  for (uint64_t round = 0; round < 3; round++) {
    for (uint64_t i = 0; i < per_round; i++) {
      const uint64_t id = round * per_round + i;
      TweetRecord r;
      r.id = id;
      r.user_id = id % 997;
      r.creation_time = id;
      EXPECT_TRUE(ds->Upsert(r).ok());
    }
    for (uint64_t id = 0; id < round * per_round; id += 5) {
      TweetRecord r;
      r.id = id;
      r.user_id = 1000 + round;
      r.creation_time = id;
      EXPECT_TRUE(ds->Upsert(r).ok());
    }
    EXPECT_TRUE(ds->FlushAll().ok());
  }
  return ds;
}

TEST(LsmTreeTest, PartitionedHookedMergesMatchSingleQueueMerge) {
  // The deleted-key merge (a keep hook) and merge repair (an on_emit hook)
  // of the same secondary components on a 1-queue and a 4-queue device. The
  // 4-queue merges must read as key-range partitions and still build what
  // the 1-queue merges build: the same entries, validity and metadata.
  for (const MaintenanceStrategy strategy :
       {MaintenanceStrategy::kDeletedKeyBtree,
        MaintenanceStrategy::kValidation}) {
    SCOPED_TRACE(strategy == MaintenanceStrategy::kDeletedKeyBtree
                     ? "deleted-key"
                     : "merge repair");
    EnvOptions eo = TestEnv();
    eo.page_size = 4096;
    Env env_one(eo);
    eo.io_queues = 4;
    Env env_four(eo);
    auto one = LoadSecondaryComponents(&env_one, strategy);
    auto four = LoadSecondaryComponents(&env_four, strategy);
    LsmTree* const four_tree = four->secondary(0)->tree.get();
    ASSERT_EQ(four_tree->NumDiskComponents(), 3u);
    ASSERT_GE(four_tree->TotalDiskBytes(), 1u << 20);

    auto merge = [strategy](Dataset* ds) {
      SecondaryIndex* s = ds->secondary(0);
      const auto picked = s->tree->Components();
      if (strategy == MaintenanceStrategy::kDeletedKeyBtree) {
        return RunDeletedKeyMergePicked(ds, s, picked,
                                        s->deleted_keys->Components());
      }
      return RunMergeRepair(ds, s, picked);
    };
    std::vector<uint64_t> reads_before;
    for (uint32_t q = 0; q < 4; q++) {
      reads_before.push_back(env_four.io()->queue_stats(q).pages_read);
    }
    ASSERT_TRUE(merge(one.get()).ok());
    ASSERT_TRUE(merge(four.get()).ok());
    size_t queues_read = 0;
    for (uint32_t q = 0; q < 4; q++) {
      if (env_four.io()->queue_stats(q).pages_read > reads_before[q]) {
        queues_read++;
      }
    }
    EXPECT_GE(queues_read, 2u) << "the merge was not partitioned";

    ASSERT_EQ(four_tree->NumDiskComponents(), 1u);
    const DiskComponentPtr a = one->secondary(0)->tree->Components().front();
    const DiskComponentPtr b = four_tree->Components().front();
    EXPECT_EQ(b->repaired_ts(), a->repaired_ts());
    EXPECT_EQ(b->max_lsn(), a->max_lsn());
    const std::vector<OwnedEntry> ea = ComponentEntries(a);
    const std::vector<OwnedEntry> eb = ComponentEntries(b);
    ASSERT_EQ(eb.size(), ea.size());
    uint64_t invalid = 0;
    for (size_t i = 0; i < ea.size(); i++) {
      EXPECT_EQ(eb[i].key, ea[i].key);
      EXPECT_EQ(eb[i].ts, ea[i].ts);
      EXPECT_EQ(eb[i].antimatter, ea[i].antimatter);
      EXPECT_EQ(b->EntryValid(i), a->EntryValid(i));
      if (!a->EntryValid(i)) invalid++;
    }
    if (strategy == MaintenanceStrategy::kDeletedKeyBtree) {
      // Every re-written record's old entry was dropped: 72,000 records.
      EXPECT_EQ(ea.size(), 3 * 24000u);
    } else {
      EXPECT_GT(invalid, 0u);
    }
  }
}

TEST(LsmTreeTest, RetiredComponentFilesDeleted) {
  Env env(TestEnv());
  LsmTree tree(&env, TreeOpts());
  tree.Put(EncodeU64(1), "a", 1);
  ASSERT_TRUE(tree.Flush().ok());
  tree.Put(EncodeU64(2), "b", 2);
  ASSERT_TRUE(tree.Flush().ok());
  const uint32_t old_file = tree.Components()[1]->meta().file_id;
  ASSERT_TRUE(env.store()->FileExists(old_file));
  ASSERT_TRUE(tree.MergeAll().ok());
  EXPECT_FALSE(env.store()->FileExists(old_file));
}

TEST(LsmTreeTest, RangeFilterFromMemFilterOnFlush) {
  Env env(TestEnv());
  LsmTreeOptions opts = TreeOpts();
  opts.maintain_range_filter = true;
  LsmTree tree(&env, opts);
  tree.Put(EncodeU64(1), "a", 1);
  tree.mem_range_filter()->Expand(2015);
  tree.mem_range_filter()->Expand(2018);
  ASSERT_TRUE(tree.Flush().ok());
  const auto& f = tree.Components()[0]->range_filter();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->min(), 2015u);
  EXPECT_EQ(f->max(), 2018u);
  // The memory filter resets after flush.
  EXPECT_FALSE(tree.mem_range_filter()->has_value());
}

TEST(MergeCursorTest, BoundsAndReconciliation) {
  Env env(TestEnv());
  LsmTree tree(&env, TreeOpts());
  for (uint64_t i = 0; i < 20; i++) tree.Put(EncodeU64(i), "v0", i + 1);
  ASSERT_TRUE(tree.Flush().ok());
  for (uint64_t i = 5; i < 10; i++) tree.Put(EncodeU64(i), "v1", 100 + i);
  ASSERT_TRUE(tree.Flush().ok());

  MergeCursor::Options mo;
  mo.lower_bound = EncodeU64(3);
  mo.upper_bound = EncodeU64(12);
  MergeCursor cursor(tree.Components(), mo);
  ASSERT_TRUE(cursor.Init().ok());
  uint64_t count = 0;
  uint64_t v1_count = 0;
  while (cursor.Valid()) {
    const uint64_t k = DecodeU64(cursor.key());
    EXPECT_GE(k, 3u);
    EXPECT_LE(k, 12u);
    if (cursor.value() == Slice("v1")) v1_count++;
    count++;
    ASSERT_TRUE(cursor.Next().ok());
  }
  EXPECT_EQ(count, 10u);     // keys 3..12, one version each
  EXPECT_EQ(v1_count, 5u);   // keys 5..9 updated
}

// A k-way merge over a buffer cache smaller than k read-ahead windows: the
// filling merge evicts its own read-ahead pages before it reaches them and
// faults them in again; the no-fill merge holds one private window per input
// and reads each page once. Both yield the same entries.
TEST(MergeCursorTest, NoFillMergeChargesNoMoreThanFillingMerge) {
  constexpr uint64_t kInputs = 4;
  constexpr uint32_t kReadahead = 16;
  struct Merge {
    std::vector<std::pair<std::string, std::string>> entries;
    IoStats io;
    BufferCacheStats cache;
  };
  // Identically built trees in separate Envs: same cold cache, same head.
  auto merge = [&](bool fill_cache) {
    EnvOptions eo = TestEnv();
    eo.cache_pages = 32;  // < kInputs * (kReadahead + 1)
    eo.cache_shards = 1;
    eo.disk_profile = DiskProfile::Hdd();
    Env env(eo);
    LsmTree tree(&env, TreeOpts());
    // Interleaved keys: the merge alternates between its inputs.
    for (uint64_t c = 0; c < kInputs; c++) {
      for (uint64_t i = 0; i < 1500; i++) {
        tree.Put(EncodeU64(i * kInputs + c), "value-" + std::to_string(i),
                 c * 10000 + i + 1);
      }
      EXPECT_TRUE(tree.Flush().ok());
    }
    MergeCursor::Options mo;
    mo.readahead_pages = kReadahead;
    mo.fill_cache = fill_cache;
    MergeCursor cursor(tree.Components(), mo);
    const IoStats before = env.stats();
    Merge out;
    EXPECT_TRUE(cursor.Init().ok());
    while (cursor.Valid()) {
      out.entries.emplace_back(cursor.key().ToString(),
                               cursor.value().ToString());
      EXPECT_TRUE(cursor.Next().ok());
    }
    out.io = env.stats() - before;
    out.cache = env.cache()->stats();
    return out;
  };
  const Merge filled = merge(/*fill_cache=*/true);
  const Merge bypassed = merge(/*fill_cache=*/false);
  ASSERT_EQ(filled.entries.size(), kInputs * 1500);
  EXPECT_EQ(filled.entries, bypassed.entries);
  EXPECT_GT(filled.cache.evictions, 0u);  // the thrashing regime is reached
  EXPECT_EQ(bypassed.cache.evictions, 0u);
  EXPECT_LE(bypassed.io.pages_read, filled.io.pages_read);
  EXPECT_LE(bypassed.io.random_reads, filled.io.random_reads);
  EXPECT_LE(bypassed.io.simulated_us, filled.io.simulated_us);
}

TEST(LsmTreeStressTest, RandomOpsMatchReferenceModel) {
  Env env(TestEnv());
  LsmTreeOptions opts = TreeOpts();
  opts.merge_policy = std::make_shared<TieringMergePolicy>(1.2, 1u << 30);
  LsmTree tree(&env, opts);
  std::map<uint64_t, std::string> model;
  Random rng(42);
  Timestamp ts = 0;
  for (int i = 0; i < 5000; i++) {
    const uint64_t k = rng.Uniform(500);
    ts++;
    if (rng.Bernoulli(0.2)) {
      tree.PutAntimatter(EncodeU64(k), ts);
      model.erase(k);
    } else {
      const std::string v = "v" + std::to_string(i);
      tree.Put(EncodeU64(k), v, ts);
      model[k] = v;
    }
    if (i % 500 == 499) {
      ASSERT_TRUE(tree.Flush().ok());
      bool merged = true;
      while (merged) ASSERT_TRUE(tree.TryMerge(&merged).ok());
    }
  }
  for (uint64_t k = 0; k < 500; k++) {
    OwnedEntry e;
    const Status st = tree.Get(EncodeU64(k), &e);
    if (model.count(k)) {
      ASSERT_TRUE(st.ok()) << "key " << k;
      EXPECT_EQ(e.value, model[k]);
    } else {
      EXPECT_TRUE(st.IsNotFound()) << "key " << k;
    }
  }
}

}  // namespace
}  // namespace auxlsm
