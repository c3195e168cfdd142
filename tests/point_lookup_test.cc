// Bulk point lookup (§3.2) under a live-entry quota: for every max_alive, the
// output is exactly the first max_alive live entries of the unbounded call's
// discovery-order output, and PointLookupStats::unresolved counts exactly the
// requests the quota left without an answer. Covers the naive and batched
// algorithms, stateful cursors on/off, raw mode, memtable hits, three disk
// components, anti-matter and bitmap-dead entries, and batches small enough
// that the quota runs out several batches in.
#include <gtest/gtest.h>

#include <map>

#include "core/point_lookup.h"
#include "format/key_codec.h"
#include "lsm/lsm_tree.h"

namespace auxlsm {
namespace {

constexpr int kMem = -1;
constexpr int kAbsent = -2;

EnvOptions TestEnv() {
  EnvOptions o;
  o.page_size = 512;
  o.cache_pages = 1 << 16;
  o.disk_profile = DiskProfile::Null();
  return o;
}

/// Where a key's newest physical entry lives, and whether it is live.
struct Newest {
  int source = kAbsent;  ///< kMem, a component index (newest first), kAbsent
  bool alive = false;
};

class QuotaFixture {
 public:
  static constexpr uint64_t kRequests = 380;

  QuotaFixture() : env_(TestEnv()) {
    LsmTreeOptions o;
    o.build_bloom = true;
    o.build_blocked_bloom = true;
    o.attach_bitmap = true;
    tree_ = std::make_unique<LsmTree>(&env_, o);

    // Oldest component: keys 0..299.
    for (uint64_t k = 0; k < 300; k++) Put(k, false);
    Flush();
    // Middle component: every third key (every ninth as anti-matter) plus
    // 300..329; every fourth of its live entries is then bitmap-deleted.
    std::vector<uint64_t> middle;
    for (uint64_t k = 0; k < 330; k++) {
      if (k % 3 == 0 || k >= 300) {
        Put(k, k % 9 == 0 && k < 300);
        middle.push_back(k);
      }
    }
    Flush();
    // Newest component: every fifth key (every 25th as anti-matter).
    for (uint64_t k = 0; k < 330; k += 5) Put(k, k % 25 == 0);
    Flush();
    EXPECT_EQ(tree_->NumDiskComponents(), 3u);
    const auto comps = tree_->Components();  // newest first
    for (size_t ordinal = 0; ordinal < middle.size(); ordinal++) {
      const uint64_t k = middle[ordinal];
      if (k % 4 == 0 && newest_[k].source == 1 && newest_[k].alive) {
        comps[1]->bitmap()->Set(ordinal);
        newest_[k].alive = false;
      }
    }
    // Memtable: every seventh key (every 49th as anti-matter) plus 340..349.
    for (uint64_t k = 0; k < 360; k++) {
      if (k % 7 == 0 || (k >= 340 && k < 350)) Put(k, k % 49 == 0);
    }
    // Component indexes were assigned oldest first; views list newest first.
    for (auto& [k, n] : newest_) {
      if (n.source >= 0) n.source = 2 - n.source;
    }

    for (uint64_t k = 0; k < kRequests; k++) {
      requests_.push_back(FetchRequest{EncodeU64(k), 0});
    }
  }

  const LsmTree& tree() const { return *tree_; }
  const std::vector<FetchRequest>& requests() const { return requests_; }
  Newest newest(uint64_t k) const {
    auto it = newest_.find(k);
    return it == newest_.end() ? Newest{} : it->second;
  }

 private:
  void Put(uint64_t k, bool antimatter) {
    const std::string key = EncodeU64(k);
    const Timestamp ts = ++ts_;
    if (antimatter) {
      tree_->PutAntimatter(key, ts);
    } else {
      tree_->Put(key, std::to_string(k) + "@" + std::to_string(ts), ts);
    }
    newest_[k] = Newest{kMem, !antimatter};
  }
  void Flush() {
    EXPECT_TRUE(tree_->Flush().ok());
    for (auto& [k, n] : newest_) {
      if (n.source == kMem) n.source = flushes_;
    }
    flushes_++;
  }

  Env env_;
  std::unique_ptr<LsmTree> tree_;
  std::map<uint64_t, Newest> newest_;
  std::vector<FetchRequest> requests_;
  Timestamp ts_ = 0;
  int flushes_ = 0;
};

struct Discovery {
  uint64_t key;
  bool alive;
};

/// Reference model of the discovery order and of the requests resolved
/// when the max_alive-th live entry is found. Requests are keys 0..n-1.
struct Reference {
  std::vector<Discovery> order;  ///< every found key, alive or dead
  uint64_t resolved_at_cut = 0;  ///< requests resolved when the quota ran out
  bool cut = false;
};

Reference Model(const QuotaFixture& f, bool batched, size_t batch_keys,
                size_t max_alive) {
  const uint64_t n = QuotaFixture::kRequests;
  const int sources = 3;
  if (!batched) batch_keys = n;
  Reference ref;
  size_t alive = 0;
  if (max_alive == 0) {
    ref.cut = true;
    return ref;
  }
  for (uint64_t b0 = 0; b0 < n; b0 += batch_keys) {
    const uint64_t b1 = std::min(n, b0 + batch_keys);
    // Phases in probe order: the memtable pass, then (batched) one pass per
    // component, or (naive) one per-key pass over all components.
    std::vector<int> phases{kMem};
    if (batched) {
      for (int c = 0; c < sources; c++) phases.push_back(c);
    } else {
      phases.push_back(0);
    }
    for (size_t pi = 0; pi < phases.size(); pi++) {
      const int phase = phases[pi];
      const bool last_phase = pi + 1 == phases.size();
      for (uint64_t k = b0; k < b1; k++) {
        const Newest nw = f.newest(k);
        const bool in_phase = phase == kMem
                                  ? nw.source == kMem
                                  : (batched ? nw.source == phase
                                             : nw.source >= 0);
        if (!in_phase) continue;
        ref.order.push_back(Discovery{k, nw.alive});
        if (!nw.alive || ++alive < max_alive) continue;
        // Quota spent at key k: resolved are all earlier batches, this
        // batch's keys found in earlier phases, this phase's keys up to k,
        // and — when this phase is the keys' last source — the absent keys
        // before k.
        ref.cut = true;
        uint64_t resolved = b0;
        for (uint64_t j = b0; j < b1; j++) {
          const Newest m = f.newest(j);
          int src_phase;  // index into phases of the pass that finds j
          if (m.source == kMem) {
            src_phase = 0;
          } else if (m.source >= 0) {
            src_phase = batched ? 1 + m.source : 1;
          } else {
            src_phase = -1;
          }
          if (src_phase >= 0 && (size_t(src_phase) < pi ||
                                 (size_t(src_phase) == pi && j <= k))) {
            resolved++;
          } else if (src_phase < 0 && last_phase && j < k) {
            resolved++;
          }
        }
        ref.resolved_at_cut = resolved;
        return ref;
      }
    }
  }
  return ref;
}

struct QuotaCase {
  bool batched;
  bool stateful;
  bool raw;
  size_t batch_keys;  ///< 0 = default batch memory (one batch)
};

void PrintTo(const QuotaCase& c, std::ostream* os) {
  *os << (c.batched ? "batched" : "naive")
      << (c.stateful ? " stateful" : " stateless") << (c.raw ? " raw" : "")
      << " batch_keys=" << c.batch_keys;
}

class PointLookupQuotaTest : public ::testing::TestWithParam<QuotaCase> {};

INSTANTIATE_TEST_SUITE_P(
    Shapes, PointLookupQuotaTest,
    ::testing::Values(QuotaCase{false, false, false, 0},
                      QuotaCase{false, false, true, 0},
                      QuotaCase{true, true, false, 0},
                      QuotaCase{true, false, false, 0},
                      QuotaCase{true, true, false, 40},
                      QuotaCase{true, false, false, 40},
                      QuotaCase{true, true, true, 40},
                      QuotaCase{true, false, true, 0}),
    [](const auto& info) {
      const QuotaCase& c = info.param;
      return std::string(c.batched ? "batched" : "naive") +
             (c.stateful ? "_stateful" : "_stateless") +
             (c.raw ? "_raw" : "") +
             (c.batch_keys != 0 ? "_batches" + std::to_string(c.batch_keys)
                                : "");
    });

TEST_P(PointLookupQuotaTest, OutputIsPrefixOfUnboundedDiscoveryOrder) {
  const QuotaCase c = GetParam();
  QuotaFixture f;
  PointLookupOptions opts;
  opts.batched = c.batched;
  opts.stateful_btree_lookup = c.stateful;
  opts.raw = c.raw;
  // The batching code charges 32 bytes per key.
  if (c.batch_keys != 0) opts.batch_memory_bytes = c.batch_keys * 32;
  const size_t batch_keys =
      c.batch_keys != 0 ? c.batch_keys : opts.batch_memory_bytes / 32;

  std::vector<FetchedEntry> full;
  PointLookupStats full_stats;
  ASSERT_TRUE(
      BulkPointLookup(f.tree(), f.requests(), opts, &full, &full_stats).ok());
  EXPECT_EQ(full_stats.unresolved, 0u);
  if (c.batch_keys != 0) {
    EXPECT_GE(full_stats.batches, 9u);
  }

  // The unbounded output follows the reference discovery order.
  const Reference unbounded = Model(f, c.batched, batch_keys, SIZE_MAX);
  std::vector<Discovery> expected_full;
  for (const auto& d : unbounded.order) {
    if (d.alive || c.raw) expected_full.push_back(d);
  }
  ASSERT_EQ(full.size(), expected_full.size());
  size_t live = 0, dead = 0;
  for (size_t i = 0; i < full.size(); i++) {
    EXPECT_EQ(DecodeU64(full[i].pk), expected_full[i].key) << i;
    EXPECT_EQ(full[i].alive, expected_full[i].alive) << i;
    (full[i].alive ? live : dead)++;
  }
  EXPECT_GT(live, 100u);
  if (c.raw) {
    EXPECT_GT(dead, 20u);  // anti-matter and bitmap-dead both
  }

  for (size_t max_alive :
       {size_t(0), size_t(1), size_t(7), size_t(41), size_t(123), live - 1,
        live, live + 1, SIZE_MAX}) {
    SCOPED_TRACE("max_alive=" + std::to_string(max_alive));
    PointLookupOptions bounded = opts;
    bounded.max_alive = max_alive;
    std::vector<FetchedEntry> out;
    PointLookupStats stats;
    ASSERT_TRUE(
        BulkPointLookup(f.tree(), f.requests(), bounded, &out, &stats).ok());

    // Prefix of the unbounded output, ending at its max_alive-th live entry.
    size_t want = 0, alive = 0;
    while (want < full.size() && alive < max_alive) {
      if (full[want++].alive) alive++;
    }
    ASSERT_EQ(out.size(), want);
    for (size_t i = 0; i < out.size(); i++) {
      EXPECT_EQ(out[i].pk, full[i].pk) << i;
      EXPECT_EQ(out[i].value, full[i].value) << i;
      EXPECT_EQ(out[i].ts, full[i].ts) << i;
      EXPECT_EQ(out[i].alive, full[i].alive) << i;
    }

    // Unresolved + resolved = requests, with the resolved set the reference
    // model derives from where the quota ran out.
    const Reference ref = Model(f, c.batched, batch_keys, max_alive);
    const uint64_t resolved =
        ref.cut ? ref.resolved_at_cut : QuotaFixture::kRequests;
    EXPECT_EQ(stats.keys, QuotaFixture::kRequests);
    EXPECT_EQ(stats.unresolved + resolved, stats.keys);
    EXPECT_LE(stats.found + stats.unresolved, stats.keys);
    if (c.raw) {
      EXPECT_EQ(stats.found, out.size());
    }
    if (max_alive > live) {
      EXPECT_EQ(stats.unresolved, 0u);
    }
    if (max_alive == 0) {
      EXPECT_EQ(stats.unresolved, stats.keys);
      EXPECT_EQ(stats.bloom_probes, 0u);
    }
    // The quota saves probes, never adds them.
    EXPECT_LE(stats.bloom_probes, full_stats.bloom_probes);
    EXPECT_LE(stats.tree_probes, full_stats.tree_probes);
    if (max_alive <= 7) {
      EXPECT_LT(stats.tree_probes, full_stats.tree_probes);
    }
  }
}

}  // namespace
}  // namespace auxlsm
