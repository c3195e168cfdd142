// Index repair tests (§4.4 / §6.5): merge repair, standalone repair, the
// repairedTS pruning bookkeeping, the Bloom-filter optimization, DELI-style
// primary repair, deleted-key merges, and the metadata every
// input-retiring merge kind gives its output.
#include "core/deleted_key.h"
#include <gtest/gtest.h>

#include <set>

#include "core/dataset.h"
#include "core/mutable_bitmap_build.h"
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
  r.location = "TX";
  r.creation_time = time;
  r.message = std::string(40, 'm');
  return r;
}

DatasetOptions ValidationOpts(bool merge_repair, bool bloom_opt = false) {
  DatasetOptions o;
  o.strategy = MaintenanceStrategy::kValidation;
  o.merge_repair = merge_repair;
  o.repair_bloom_opt = bloom_opt;
  o.correlated_merges = bloom_opt;  // the bloom opt needs correlated merges
  o.mem_budget_bytes = 1 << 30;
  return o;
}

// Counts live (bitmap-valid, non-antimatter) entries across the secondary
// index's disk components.
uint64_t LiveSecondaryEntries(Dataset* ds) {
  uint64_t live = 0;
  for (const auto& c : ds->secondary(0)->tree->Components()) {
    auto it = c->tree().NewIterator();
    EXPECT_TRUE(it.SeekToFirst().ok());
    while (it.Valid()) {
      if (!it.antimatter() && c->EntryValid(it.ordinal())) live++;
      EXPECT_TRUE(it.Next().ok());
    }
  }
  return live;
}

TEST(MergeRepairTest, ObsoleteEntriesGetBitmapped) {
  Env env(TestEnv());
  Dataset ds(&env, ValidationOpts(/*merge_repair=*/false));
  for (uint64_t i = 1; i <= 100; i++) {
    ASSERT_TRUE(ds.Upsert(MakeTweet(i, 1, i)).ok());
  }
  ASSERT_TRUE(ds.FlushAll().ok());
  // Update half the records to a different user: 50 obsolete entries.
  for (uint64_t i = 1; i <= 100; i += 2) {
    ASSERT_TRUE(ds.Upsert(MakeTweet(i, 2, 200 + i)).ok());
  }
  ASSERT_TRUE(ds.FlushAll().ok());
  EXPECT_EQ(LiveSecondaryEntries(&ds), 150u);  // 100 old + 50 new

  // Merge-repair everything.
  auto picked = ds.secondary(0)->tree->Components();
  ASSERT_TRUE(RunMergeRepair(&ds, ds.secondary(0), picked).ok());
  EXPECT_EQ(ds.secondary(0)->tree->NumDiskComponents(), 1u);
  EXPECT_EQ(LiveSecondaryEntries(&ds), 100u);  // obsolete ones bitmapped

  // repairedTS advanced to cover the pk index components.
  const auto comp = ds.secondary(0)->tree->Components()[0];
  Timestamp max_pk_ts = 0;
  for (const auto& c : ds.primary_key_index()->Components()) {
    max_pk_ts = std::max(max_pk_ts, c->id().max_ts);
  }
  EXPECT_EQ(comp->repaired_ts(), max_pk_ts);
}

TEST(MergeRepairTest, PhysicalRemovalAtNextMerge) {
  Env env(TestEnv());
  Dataset ds(&env, ValidationOpts(false));
  for (uint64_t i = 1; i <= 50; i++) {
    ASSERT_TRUE(ds.Upsert(MakeTweet(i, 1, i)).ok());
  }
  ASSERT_TRUE(ds.FlushAll().ok());
  for (uint64_t i = 1; i <= 50; i++) {
    ASSERT_TRUE(ds.Upsert(MakeTweet(i, 2, 100 + i)).ok());
  }
  ASSERT_TRUE(ds.FlushAll().ok());
  auto picked = ds.secondary(0)->tree->Components();
  ASSERT_TRUE(RunMergeRepair(&ds, ds.secondary(0), picked).ok());
  const uint64_t entries_after_repair =
      ds.secondary(0)->tree->Components()[0]->num_entries();
  EXPECT_EQ(entries_after_repair, 100u);  // still physically present
  // The invalid entries are physically removed by the next merge.
  ASSERT_TRUE(ds.Upsert(MakeTweet(1000, 3, 1000)).ok());
  ASSERT_TRUE(ds.FlushAll().ok());
  ASSERT_TRUE(ds.secondary(0)->tree->MergeAll().ok());
  EXPECT_EQ(ds.secondary(0)->tree->Components()[0]->num_entries(), 51u);
}

TEST(StandaloneRepairTest, BuildsBitmapWithoutMerging) {
  Env env(TestEnv());
  Dataset ds(&env, ValidationOpts(false));
  for (uint64_t i = 1; i <= 60; i++) {
    ASSERT_TRUE(ds.Upsert(MakeTweet(i, 1, i)).ok());
  }
  ASSERT_TRUE(ds.FlushAll().ok());
  for (uint64_t i = 1; i <= 60; i += 3) {
    ASSERT_TRUE(ds.Upsert(MakeTweet(i, 2, 100 + i)).ok());
  }
  ASSERT_TRUE(ds.FlushAll().ok());

  const size_t comps_before = ds.secondary(0)->tree->NumDiskComponents();
  ASSERT_TRUE(ds.RepairAllSecondaries().ok());
  EXPECT_EQ(ds.secondary(0)->tree->NumDiskComponents(), comps_before);
  EXPECT_EQ(LiveSecondaryEntries(&ds), 60u);
}

TEST(StandaloneRepairTest, RepairedTsPrunesSecondRepair) {
  Env env(TestEnv());
  Dataset ds(&env, ValidationOpts(false));
  for (uint64_t i = 1; i <= 40; i++) {
    ASSERT_TRUE(ds.Upsert(MakeTweet(i, 1, i)).ok());
  }
  ASSERT_TRUE(ds.FlushAll().ok());
  ASSERT_TRUE(ds.RepairAllSecondaries().ok());
  const Timestamp ts1 =
      ds.secondary(0)->tree->Components()[0]->repaired_ts();
  EXPECT_GT(ts1, 0u);
  // No new data: a second repair keeps the repairedTS (nothing unpruned).
  ASSERT_TRUE(ds.RepairAllSecondaries().ok());
  EXPECT_EQ(ds.secondary(0)->tree->Components()[0]->repaired_ts(), ts1);
  // New data advances it again.
  for (uint64_t i = 100; i <= 120; i++) {
    ASSERT_TRUE(ds.Upsert(MakeTweet(i, 1, i)).ok());
  }
  ASSERT_TRUE(ds.FlushAll().ok());
  ASSERT_TRUE(ds.RepairAllSecondaries().ok());
  EXPECT_GT(ds.secondary(0)->tree->Components().back()->repaired_ts(), ts1);
}

TEST(RepairTest, QueriesCorrectAfterRepair) {
  Env env(TestEnv());
  Dataset ds(&env, ValidationOpts(true));
  std::set<uint64_t> user2;
  for (uint64_t i = 1; i <= 200; i++) {
    ASSERT_TRUE(ds.Upsert(MakeTweet(i, 1, i)).ok());
  }
  ASSERT_TRUE(ds.FlushAll().ok());
  for (uint64_t i = 1; i <= 200; i += 4) {
    ASSERT_TRUE(ds.Upsert(MakeTweet(i, 2, 500 + i)).ok());
    user2.insert(i);
  }
  ASSERT_TRUE(ds.FlushAll().ok());
  ASSERT_TRUE(ds.RepairAllSecondaries().ok());

  SecondaryQueryOptions q;
  QueryResult res;
  ASSERT_TRUE(ds.QueryUserRange(2, 2, q, &res).ok());
  std::set<uint64_t> got;
  for (const auto& r : res.records) got.insert(r.id);
  EXPECT_EQ(got, user2);
  // After repair, validation filters nothing out for this query.
  EXPECT_EQ(res.validated_out, 0u);
}

TEST(RepairBloomOptTest, SameOutcomeWithAndWithoutBloomOpt) {
  for (bool bloom_opt : {false, true}) {
    Env env(TestEnv());
    Dataset ds(&env, ValidationOpts(/*merge_repair=*/true, bloom_opt));
    for (uint64_t i = 1; i <= 150; i++) {
      ASSERT_TRUE(ds.Upsert(MakeTweet(i, 1, i)).ok());
    }
    ASSERT_TRUE(ds.FlushAll().ok());
    for (uint64_t i = 1; i <= 150; i += 2) {
      ASSERT_TRUE(ds.Upsert(MakeTweet(i, 2, 300 + i)).ok());
    }
    ASSERT_TRUE(ds.FlushAll().ok());
    ASSERT_TRUE(ds.RepairAllSecondaries().ok());
    EXPECT_EQ(LiveSecondaryEntries(&ds), 150u) << "bloom_opt=" << bloom_opt;

    SecondaryQueryOptions q;
    QueryResult res;
    ASSERT_TRUE(ds.QueryUserRange(1, 1, q, &res).ok());
    EXPECT_EQ(res.records.size(), 75u) << "bloom_opt=" << bloom_opt;
  }
}

TEST(PrimaryRepairTest, DeliCleansObsoleteEntries) {
  Env env(TestEnv());
  DatasetOptions o = ValidationOpts(false);
  Dataset ds(&env, o);
  for (uint64_t i = 1; i <= 80; i++) {
    ASSERT_TRUE(ds.Upsert(MakeTweet(i, 1, i)).ok());
  }
  ASSERT_TRUE(ds.FlushAll().ok());
  for (uint64_t i = 1; i <= 80; i += 2) {
    ASSERT_TRUE(ds.Upsert(MakeTweet(i, 2, 100 + i)).ok());
  }
  ASSERT_TRUE(ds.FlushAll().ok());
  ASSERT_TRUE(ds.PrimaryRepair(/*with_merge=*/false).ok());
  EXPECT_EQ(LiveSecondaryEntries(&ds), 80u);

  SecondaryQueryOptions q;
  QueryResult res;
  ASSERT_TRUE(ds.QueryUserRange(1, 1, q, &res).ok());
  EXPECT_EQ(res.records.size(), 40u);
}

TEST(PrimaryRepairTest, WithMergeCollapsesPrimaryComponents) {
  Env env(TestEnv());
  Dataset ds(&env, ValidationOpts(false));
  for (int round = 0; round < 3; round++) {
    for (uint64_t i = 1; i <= 30; i++) {
      ASSERT_TRUE(
          ds.Upsert(MakeTweet(i + round * 100, 1, i + round * 100)).ok());
    }
    ASSERT_TRUE(ds.FlushAll().ok());
  }
  EXPECT_GT(ds.primary()->NumDiskComponents(), 1u);
  ASSERT_TRUE(ds.PrimaryRepair(/*with_merge=*/true).ok());
  EXPECT_EQ(ds.primary()->NumDiskComponents(), 1u);
}

TEST(DeletedKeyTest, CompanionTreeTracksRewrites) {
  Env env(TestEnv());
  DatasetOptions o;
  o.strategy = MaintenanceStrategy::kDeletedKeyBtree;
  o.mem_budget_bytes = 1 << 30;
  Dataset ds(&env, o);
  ASSERT_TRUE(ds.Upsert(MakeTweet(1, 5, 1)).ok());
  ASSERT_TRUE(ds.Upsert(MakeTweet(1, 9, 2)).ok());
  ASSERT_NE(ds.secondary(0)->deleted_keys, nullptr);
  LookupResult res;
  ASSERT_TRUE(
      ds.secondary(0)->deleted_keys->GetRaw(EncodeU64(1), &res).ok());
  EXPECT_TRUE(res.found);
  EXPECT_EQ(res.entry.ts, 2u);
}

TEST(DeletedKeyTest, MergeDropsEntriesInvalidatedByDeletedKeys) {
  Env env(TestEnv());
  DatasetOptions o;
  o.strategy = MaintenanceStrategy::kDeletedKeyBtree;
  o.mem_budget_bytes = 1 << 30;
  Dataset ds(&env, o);
  for (uint64_t i = 1; i <= 50; i++) {
    ASSERT_TRUE(ds.Upsert(MakeTweet(i, 1, i)).ok());
  }
  ASSERT_TRUE(ds.FlushAll().ok());
  for (uint64_t i = 1; i <= 50; i += 2) {
    ASSERT_TRUE(ds.Upsert(MakeTweet(i, 2, 100 + i)).ok());
  }
  ASSERT_TRUE(ds.FlushAll().ok());
  // Force a deleted-key-validating merge of both secondary components.
  SecondaryIndex* s = ds.secondary(0);
  ASSERT_TRUE(RunDeletedKeyMergePicked(&ds, s, s->tree->Components(),
                                       s->deleted_keys->Components())
                  .ok());
  EXPECT_EQ(ds.secondary(0)->tree->NumDiskComponents(), 1u);
  // 25 old entries invalidated; 25 + 50 remain... the 25 updated entries'
  // old versions are dropped: 50 originals - 25 dropped + 25 new = 50.
  EXPECT_EQ(ds.secondary(0)->tree->Components()[0]->num_entries(), 50u);

  SecondaryQueryOptions q;
  QueryResult res;
  ASSERT_TRUE(ds.QueryUserRange(1, 1, q, &res).ok());
  EXPECT_EQ(res.records.size(), 25u);
}

// Every merge that retires its inputs: a plain LsmTree merge, the
// deleted-key merge, merge repair, and the three §5.3 builds.
enum class MergeKind { kPlain, kDeletedKey, kMergeRepair, kNone, kLock,
                       kSideFile };

class MergeMetadataTest : public ::testing::TestWithParam<MergeKind> {};

TEST_P(MergeMetadataTest, OutputInheritsInputLsnAndRepairProgress) {
  // Recovery replays the log from the maximum component LSN, so a merge
  // output must carry the newest max_lsn of its inputs; it must also start
  // from their oldest repair progress (merge repair then advances it).
  const MergeKind kind = GetParam();
  const bool section_5_3 = kind == MergeKind::kNone ||
                           kind == MergeKind::kLock ||
                           kind == MergeKind::kSideFile;
  Env env(TestEnv());
  DatasetOptions o;
  o.strategy = kind == MergeKind::kDeletedKey
                   ? MaintenanceStrategy::kDeletedKeyBtree
                   : section_5_3 ? MaintenanceStrategy::kMutableBitmap
                                 : MaintenanceStrategy::kValidation;
  o.mem_budget_bytes = 1 << 30;
  o.max_mergeable_bytes = 1;  // no policy merges
  Dataset ds(&env, o);
  for (uint64_t i = 1; i <= 60; i++) {
    ASSERT_TRUE(ds.Upsert(MakeTweet(i, 1, i)).ok());
  }
  ASSERT_TRUE(ds.FlushAll().ok());
  for (uint64_t i = 1; i <= 60; i += 3) {
    ASSERT_TRUE(ds.Upsert(MakeTweet(i, 2, 100 + i)).ok());
  }
  ASSERT_TRUE(ds.FlushAll().ok());

  SecondaryIndex* s = ds.secondary(0);
  LsmTree* tree = section_5_3 ? ds.primary() : s->tree.get();
  const std::vector<DiskComponentPtr> picked = tree->Components();
  ASSERT_EQ(picked.size(), 2u);
  // Neither bound sits on the newest input.
  picked[0]->set_max_lsn(40);
  picked[0]->set_repaired_ts(7);
  picked[1]->set_max_lsn(50);
  picked[1]->set_repaired_ts(3);

  ConcurrentMergeStats stats;
  switch (kind) {
    case MergeKind::kPlain:
      ASSERT_TRUE(tree->MergeComponents(picked).ok());
      break;
    case MergeKind::kDeletedKey:
      ASSERT_TRUE(RunDeletedKeyMergePicked(&ds, s, picked,
                                           s->deleted_keys->Components())
                      .ok());
      break;
    case MergeKind::kMergeRepair:
      ASSERT_TRUE(RunMergeRepair(&ds, s, picked).ok());
      break;
    case MergeKind::kNone:
      ASSERT_TRUE(
          ConcurrentMerge(&ds, 0, 2, BuildCcMethod::kNone, &stats).ok());
      break;
    case MergeKind::kLock:
      ASSERT_TRUE(
          ConcurrentMerge(&ds, 0, 2, BuildCcMethod::kLock, &stats).ok());
      break;
    case MergeKind::kSideFile:
      ASSERT_TRUE(
          ConcurrentMerge(&ds, 0, 2, BuildCcMethod::kSideFile, &stats).ok());
      break;
  }
  std::vector<DiskComponentPtr> outputs = {tree->Components().front()};
  if (section_5_3) {
    outputs.push_back(ds.primary_key_index()->Components().front());
  }
  ASSERT_EQ(tree->NumDiskComponents(), 1u);
  for (const DiskComponentPtr& out : outputs) {
    EXPECT_EQ(out->max_lsn(), 50u);
    if (kind != MergeKind::kMergeRepair) {
      EXPECT_EQ(out->repaired_ts(), 3u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, MergeMetadataTest,
    ::testing::Values(MergeKind::kPlain, MergeKind::kDeletedKey,
                      MergeKind::kMergeRepair, MergeKind::kNone,
                      MergeKind::kLock, MergeKind::kSideFile),
    [](const auto& info) {
      switch (info.param) {
        case MergeKind::kPlain: return "plain";
        case MergeKind::kDeletedKey: return "deleted_key";
        case MergeKind::kMergeRepair: return "merge_repair";
        case MergeKind::kNone: return "cc_none";
        case MergeKind::kLock: return "cc_lock";
        case MergeKind::kSideFile: return "cc_sidefile";
      }
      return "?";
    });

}  // namespace
}  // namespace auxlsm
