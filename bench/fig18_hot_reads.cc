// Hot-read serving from the interval tuple cache (PR 7): skewed point
// lookups and repeated paginated user-range queries, run cache-off vs
// cache-on for every maintenance strategy. Cache-on must deliver the same
// rows while charging strictly less modeled I/O once the working set is
// resident; the Zipfian sections are expected to exceed a 50% hit rate.
//
// The cache-off sections print DIGEST lines the CI smoke job pins (they run
// the unchanged legacy paths, so their modeled I/O is bit-reproducible and
// must not drift when the cache code is merely compiled in).
#include "bench_util.h"

namespace auxlsm {
namespace bench {
namespace {

uint64_t g_records = 60000;  // --tiny shrinks this
constexpr uint64_t kUserDomain = 100000;
constexpr size_t kTupleCacheBytes = 32u << 20;

uint64_t g_point_queries = 4000;
uint64_t g_range_queries = 200;
constexpr uint64_t kRangeWidth = kUserDomain / 250;  // 400 user ids

/// Non-null when --metrics-json armed the registry (see fig13). The DIGEST
/// lines here are CI parity anchors, so arming must not move them.
auxlsm::obs::MetricsRegistry* g_metrics = nullptr;
auxlsm::bench::BenchReport* g_report = nullptr;

struct Fixture {
  std::unique_ptr<Env> env;
  std::unique_ptr<Dataset> ds;
};

// Sequential primary keys 1..g_records so the skewed pickers can address
// records directly; 10% of records carry an obsolete older version so the
// lazy strategies' validation has real work to skip on a cache hit.
Fixture Build(MaintenanceStrategy strategy, size_t tuple_cache_bytes) {
  Fixture f;
  // The buffer cache is deliberately smaller than the skewed working set's
  // page footprint: a hot *page* set that fits would serve cache-off repeats
  // for free and hide the tuple cache's modeled-I/O win (the paper's cache:
  // data ratios make the same choice).
  EnvOptions eo = BenchEnv(/*cache_mb=*/1);
  eo.metrics = g_metrics;
  f.env = std::make_unique<Env>(eo);
  DatasetOptions o;
  o.metrics = g_metrics;
  o.strategy = strategy;
  o.mem_budget_bytes = 1 << 20;
  o.max_mergeable_bytes = 4 << 20;
  o.tuple_cache_bytes = tuple_cache_bytes;
  f.ds = std::make_unique<Dataset>(f.env.get(), o);
  TweetGenOptions go;
  go.sequential_ids = true;
  TweetGenerator gen(go);
  for (uint64_t i = 0; i < g_records; i++) {
    if (!f.ds->Upsert(gen.Next()).ok()) std::abort();
  }
  Random rng(17);
  for (uint64_t i = 0; i < g_records / 10; i++) {
    if (!f.ds->Upsert(gen.Update(rng.Uniform(g_records))).ok()) std::abort();
  }
  if (!f.ds->FlushAll().ok()) std::abort();
  return f;
}

struct SectionResult {
  uint64_t rows = 0;
  uint64_t hits = 0, misses = 0, chain_rows = 0;
  double sim_us = 0, crit_us = 0, wall_s = 0;

  double HitRate() const {
    const uint64_t consults = hits + misses;
    return consults == 0 ? 0.0 : double(hits) / double(consults);
  }
};

void Accumulate(const CursorStats& s, SectionResult* out) {
  out->hits += s.tuple_cache_hits;
  out->misses += s.tuple_cache_misses;
  out->chain_rows += s.tuple_cache_chain_rows;
}

SectionResult RunPointSection(Fixture& f, const HotKeyOptions& keys) {
  SectionResult r;
  HotKeyGenerator pick(keys);
  Stopwatch sw(f.env.get());
  for (uint64_t i = 0; i < g_point_queries; i++) {
    const uint64_t id = 1 + pick.Next();  // sequential ids start at 1
    auto cursor_or = f.ds->NewCursor(Query().Primary(id));
    if (!cursor_or.ok()) std::abort();
    auto cursor = std::move(cursor_or).value();
    QueryPage page;
    while (!cursor->done()) {
      if (!cursor->Next(&page).ok()) std::abort();
      r.rows += page.rows();
    }
    Accumulate(cursor->stats(), &r);
  }
  r.sim_us = sw.IoSeconds() * 1e6;
  r.crit_us = sw.CriticalPathSeconds() * 1e6;
  r.wall_s = sw.WallSeconds();
  return r;
}

// Repeated paginated (unlimited) range reads over hot, slot-aligned user
// ranges: an eligible shape (no Limit, pk-sorted results), so a re-queried
// slot serves entirely from the cached chain.
SectionResult RunRangeSection(Fixture& f, uint64_t seed) {
  SectionResult r;
  HotKeyOptions slots;
  slots.skew = HotKeyOptions::Skew::kZipf;
  slots.domain = kUserDomain / kRangeWidth;
  slots.seed = seed;
  HotKeyGenerator pick(slots);
  ReadOptions ro;
  ro.secondary.sort_results_by_pk = true;
  Stopwatch sw(f.env.get());
  for (uint64_t i = 0; i < g_range_queries; i++) {
    const uint64_t lo = pick.Next() * kRangeWidth;
    auto cursor_or = f.ds->NewCursor(Query()
                                         .Secondary("user_id")
                                         .Range(lo, lo + kRangeWidth - 1)
                                         .PageSize(64)
                                         .Options(ro));
    if (!cursor_or.ok()) std::abort();
    auto cursor = std::move(cursor_or).value();
    QueryPage page;
    while (!cursor->done()) {
      if (!cursor->Next(&page).ok()) std::abort();
      r.rows += page.rows();
    }
    Accumulate(cursor->stats(), &r);
  }
  r.sim_us = sw.IoSeconds() * 1e6;
  r.crit_us = sw.CriticalPathSeconds() * 1e6;
  r.wall_s = sw.WallSeconds();
  return r;
}

void PrintSection(const char* mode, const char* section,
                  const SectionResult& r) {
  std::printf("%-10s %-12s rows=%-8llu sim_us=%12.3f wall_s=%7.3f "
              "hits=%-6llu misses=%-6llu chain_rows=%-8llu hit_rate=%.3f\n",
              mode, section, (unsigned long long)r.rows, r.sim_us, r.wall_s,
              (unsigned long long)r.hits, (unsigned long long)r.misses,
              (unsigned long long)r.chain_rows, r.HitRate());
}

void RunStrategy(MaintenanceStrategy strategy) {
  const char* name = StrategyName(strategy);
  PrintHeader("Fig18-hot", std::string("hot reads, strategy = ") + name);

  HotKeyOptions zipf;
  zipf.skew = HotKeyOptions::Skew::kZipf;
  zipf.domain = g_records;
  HotKeyOptions hotset;
  hotset.skew = HotKeyOptions::Skew::kHotSet;
  hotset.domain = g_records;
  hotset.hot_fraction = 0.9;
  hotset.hot_keys = 64;

  Fixture off = Build(strategy, 0);
  const SectionResult off_zipf = RunPointSection(off, zipf);
  const SectionResult off_hot = RunPointSection(off, hotset);
  const SectionResult off_range = RunRangeSection(off, 7);
  PrintSection("cache-off", "point-zipf", off_zipf);
  PrintSection("cache-off", "point-hotset", off_hot);
  PrintSection("cache-off", "range-paged", off_range);
  // Pinned by CI: the cache-off sections run the unchanged legacy paths.
  PrintDigest(std::string("fig18-off-") + name,
              off_zipf.sim_us + off_hot.sim_us + off_range.sim_us,
              off_zipf.crit_us + off_hot.crit_us + off_range.crit_us);
  std::printf("DIGEST %-24s rows=%llu\n",
              (std::string("fig18-rows-") + name).c_str(),
              (unsigned long long)(off_zipf.rows + off_hot.rows +
                                   off_range.rows));

  Fixture on = Build(strategy, kTupleCacheBytes);
  const SectionResult on_zipf = RunPointSection(on, zipf);
  const SectionResult on_hot = RunPointSection(on, hotset);
  // Per-section cache activity via TupleCacheStats::operator- — the range
  // section's inserts/evictions, isolated from the point sections before it.
  const TupleCacheStats pre_range = on.ds->tuple_cache_stats();
  const SectionResult on_range = RunRangeSection(on, 7);
  const TupleCacheStats range_cs = on.ds->tuple_cache_stats() - pre_range;
  PrintSection("cache-on", "point-zipf", on_zipf);
  PrintSection("cache-on", "point-hotset", on_hot);
  PrintSection("cache-on", "range-paged", on_range);

  const TupleCacheStats cs = on.ds->tuple_cache_stats();
  std::printf("cache: inserts=%llu invalidations=%llu evictions=%llu "
              "resident_mb=%.1f (range section: inserts=%llu "
              "evictions=%llu)\n",
              (unsigned long long)cs.inserts,
              (unsigned long long)cs.invalidations,
              (unsigned long long)cs.evictions,
              double(cs.resident_bytes) / double(1u << 20),
              (unsigned long long)range_cs.inserts,
              (unsigned long long)range_cs.evictions);

  if (g_report != nullptr) {
    g_report->AddSection(std::string("fig18-off-") + name,
                         off_zipf.rows + off_hot.rows + off_range.rows,
                         off_zipf.sim_us + off_hot.sim_us + off_range.sim_us,
                         off_zipf.crit_us + off_hot.crit_us +
                             off_range.crit_us);
    g_report->AddSection(std::string("fig18-on-") + name,
                         on_zipf.rows + on_hot.rows + on_range.rows,
                         on_zipf.sim_us + on_hot.sim_us + on_range.sim_us,
                         on_zipf.crit_us + on_hot.crit_us + on_range.crit_us);
  }

  struct Pair {
    const char* section;
    const SectionResult* off;
    const SectionResult* on;
  };
  const Pair pairs[] = {{"point-zipf", &off_zipf, &on_zipf},
                        {"point-hotset", &off_hot, &on_hot},
                        {"range-paged", &off_range, &on_range}};
  for (const auto& p : pairs) {
    const bool rows_equal = p.off->rows == p.on->rows;
    const bool io_less = p.on->sim_us < p.off->sim_us;
    std::printf("verdict %-12s %-18s rows_equal=%d io_less=%d "
                "hit_rate=%.3f io_saved_us=%.3f\n",
                p.section, name, rows_equal ? 1 : 0, io_less ? 1 : 0,
                p.on->HitRate(), p.off->sim_us - p.on->sim_us);
    if (!rows_equal) std::abort();  // cache served a different result
  }
}

}  // namespace
}  // namespace bench
}  // namespace auxlsm

int main(int argc, char** argv) {
  using namespace auxlsm;
  using namespace auxlsm::bench;
  const BenchFlags flags = BenchFlags::Parse(argc, argv);
  auxlsm::obs::MetricsRegistry metrics;
  BenchReport report("fig18");
  if (!flags.metrics_json.empty()) {
    g_metrics = &metrics;
    g_report = &report;
  }
  if (flags.tiny) {
    g_records = 12000;
    g_point_queries = 1200;
    g_range_queries = 60;
  }
  PrintNote("hot-read serving: " + std::to_string(g_records / 1000) +
            "K records, tuple cache " +
            std::to_string(kTupleCacheBytes >> 20) + "MB when on");
  for (MaintenanceStrategy s :
       {MaintenanceStrategy::kEager, MaintenanceStrategy::kValidation,
        MaintenanceStrategy::kMutableBitmap,
        MaintenanceStrategy::kDeletedKeyBtree}) {
    RunStrategy(s);
  }
  if (g_metrics != nullptr) {
    report.SetSnapshot(g_metrics->Snapshot());
    if (!report.WriteTo(flags.metrics_json)) return 1;
  }
  return 0;
}
