// Figure 12 (a-d): effectiveness of the point-lookup optimizations (§6.2).
//
// Scaled setup: 60K ~500B tweets (paper: 80M), insert-only, Eager strategy,
// tiering merges capped so multiple disk components accumulate; buffer cache
// sized so the primary index does not fit but the secondary does (as in the
// paper's 2GB-cache/30GB-data ratio).
#include <thread>

#include "bench_util.h"

namespace auxlsm {
namespace bench {
namespace {

uint64_t g_records = 60000;  // --tiny shrinks this
constexpr uint64_t kUserDomain = 100000;

/// Non-null when --metrics-json armed the registry (see fig13). The DIGEST
/// lines here are CI parity anchors, so arming must not move them.
auxlsm::obs::MetricsRegistry* g_metrics = nullptr;
auxlsm::bench::BenchReport* g_report = nullptr;

struct Fixture {
  std::unique_ptr<Env> env;
  std::unique_ptr<Dataset> ds;
};

Fixture BuildDataset(bool sequential_ids, uint32_t io_queues = 1,
                     size_t cache_shards = 1) {
  Fixture f;
  EnvOptions eo =
      BenchEnv(/*cache_mb=*/8, /*ssd=*/false, cache_shards, io_queues);
  eo.metrics = g_metrics;
  f.env = std::make_unique<Env>(eo);
  DatasetOptions o;
  o.metrics = g_metrics;
  // Paper figures reproduce the serial engine; pin the maintenance path
  // so modeled I/O stays deterministic on multi-core hosts.
  o.maintenance_threads = 1;
  o.strategy = MaintenanceStrategy::kEager;
  o.mem_budget_bytes = 1 << 20;
  o.max_mergeable_bytes = 4 << 20;  // keep ~10-20 components, as in §6.2
  f.ds = std::make_unique<Dataset>(f.env.get(), o);
  TweetGenOptions go;
  go.sequential_ids = sequential_ids;
  TweetGenerator gen(go);
  for (uint64_t i = 0; i < g_records; i++) {
    bool inserted;
    if (!f.ds->Insert(gen.Next(), &inserted).ok()) std::abort();
  }
  return f;
}

// Runs queries of the given selectivity with *different* range predicates
// until the cache is warm, then reports the average stable time — the
// paper's §6.2 methodology. Varying the predicate matters: the primary
// index exceeds the cache, so steady state still pays record-fetch I/O.
double RunQuery(Fixture& f, uint64_t width, const SecondaryQueryOptions& q,
                uint64_t* results = nullptr) {
  // A global counter keeps every run on fresh predicates, so one series
  // cannot pre-warm the cache for the next.
  static uint64_t query_counter = 0;
  auto range_at = [&](int i) {
    const uint64_t span = kUserDomain - width;
    return ((query_counter + uint64_t(i)) * 7919 * (width + 13)) % span;
  };
  const int kWarm = 2, kMeasure = 3;
  for (int i = 0; i < kWarm; i++) {
    QueryResult res;
    if (!f.ds->QueryUserRange(range_at(i), range_at(i) + width - 1, q, &res)
             .ok()) {
      std::abort();
    }
  }
  double total = 0;
  uint64_t n = 0;
  for (int i = kWarm; i < kWarm + kMeasure; i++) {
    Stopwatch sw(f.env.get());
    QueryResult res;
    if (!f.ds->QueryUserRange(range_at(i), range_at(i) + width - 1, q, &res)
             .ok()) {
      std::abort();
    }
    total += sw.Seconds();
    n += q.index_only ? res.keys.size() : res.records.size();
  }
  query_counter += kWarm + kMeasure;
  if (results != nullptr) *results = n / kMeasure;
  return total / kMeasure;
}

SecondaryQueryOptions Variant(bool batch, bool slookup, bool bbf, bool pid,
                              size_t batch_bytes = 16u << 20) {
  SecondaryQueryOptions q;
  q.lookup = batch ? SecondaryQueryOptions::LookupAlgo::kBatched
                   : SecondaryQueryOptions::LookupAlgo::kNaive;
  q.stateful_btree_lookup = slookup;
  q.use_blocked_bloom = bbf;
  q.propagate_component_id = pid;
  q.batch_memory_bytes = batch_bytes;
  return q;
}

void RunSelectivitySweep(Fixture& f, const std::vector<double>& sels,
                         const char* figure) {
  struct Series {
    const char* name;
    SecondaryQueryOptions q;
  };
  const Series series[] = {
      {"naive", Variant(false, false, false, false)},
      {"batch", Variant(true, false, false, false)},
      {"batch/sLookup", Variant(true, true, false, false)},
      {"batch/sLookup/bBF", Variant(true, true, true, false)},
      {"batch/sLookup/bBF/pID", Variant(true, true, true, true)},
  };
  for (double sel : sels) {
    const uint64_t width =
        std::max<uint64_t>(1, uint64_t(sel / 100.0 * kUserDomain));
    for (const auto& s : series) {
      uint64_t n = 0;
      const double t = RunQuery(f, width, s.q, &n);
      PrintRow(s.name, std::to_string(sel) + "%", t,
               "results=" + std::to_string(n));
    }
  }
  (void)figure;
}

void Fig12aLowSelectivity(Fixture& f) {
  PrintHeader("Fig12a", "point lookup optimizations, low selectivity");
  RunSelectivitySweep(f, {0.001, 0.002, 0.005, 0.01, 0.025}, "12a");
}

void Fig12bHighSelectivity(Fixture& f, Fixture& seq) {
  PrintHeader("Fig12b", "high selectivity + full scan baselines");
  for (double sel : {0.1, 1.0, 10.0, 20.0, 50.0}) {
    // Full scan baselines (selectivity-independent cost).
    {
      Stopwatch sw(f.env.get());
      ScanResult res;
      if (!f.ds->FullScanUserRange(0, uint64_t(sel / 100 * kUserDomain), &res)
               .ok()) {
        std::abort();
      }
      PrintRow("scan", std::to_string(sel) + "%", sw.Seconds());
    }
    {
      Stopwatch sw(seq.env.get());
      ScanResult res;
      if (!seq.ds
               ->FullScanUserRange(0, uint64_t(sel / 100 * kUserDomain), &res)
               .ok()) {
        std::abort();
      }
      PrintRow("scan (seq keys)", std::to_string(sel) + "%", sw.Seconds());
    }
  }
  RunSelectivitySweep(f, {0.1, 1.0, 10.0, 20.0, 50.0}, "12b");
}

void Fig12cBatchSize(Fixture& f) {
  PrintHeader("Fig12c", "impact of batch memory size");
  // Paper: 128KB-16MB at 80M records; scaled by the dataset ratio.
  const std::pair<const char*, size_t> sizes[] = {
      {"4KB", 4u << 10}, {"32KB", 32u << 10}, {"256KB", 256u << 10},
      {"2MB", 2u << 20}};
  for (double sel : {0.01, 0.1, 1.0, 10.0}) {
    const uint64_t width =
        std::max<uint64_t>(1, uint64_t(sel / 100.0 * kUserDomain));
    for (const auto& [label, bytes] : sizes) {
      const double t =
          RunQuery(f, width, Variant(true, true, true, false, bytes));
      PrintRow("selectivity " + std::to_string(sel) + "%", label, t);
    }
  }
}

void Fig12dSorting(Fixture& f) {
  PrintHeader("Fig12d", "impact of sorting (batching destroys pk order)");
  for (double sel : {0.001, 0.01, 0.1, 1.0, 10.0}) {
    const uint64_t width =
        std::max<uint64_t>(1, uint64_t(sel / 100.0 * kUserDomain));
    const double no_batch =
        RunQuery(f, width, Variant(false, true, true, false));
    SecondaryQueryOptions batching = Variant(true, true, true, false);
    const double batch = RunQuery(f, width, batching);
    batching.sort_results_by_pk = true;
    const double batch_sort = RunQuery(f, width, batching);
    const std::string x = std::to_string(sel) + "%";
    PrintRow("No Batching", x, no_batch);
    PrintRow("Batching", x, batch);
    PrintRow("Batching+Sorting", x, batch_sort);
  }
}

// Deterministic legacy-path digest: a fixed query series through the
// one-shot wrappers, printed as DIGEST lines the CI smoke job diffs across
// --queues settings and pins against drift. Runs on the single-queue
// fixture right after its build, so modeled I/O and the query counters
// (candidates / validated_out / results) are bit-reproducible.
void Fig12Digest(Fixture& f) {
  struct Probe {
    const char* name;
    SecondaryQueryOptions q;
  };
  const Probe probes[] = {
      {"fig12-naive", Variant(false, false, false, false)},
      {"fig12-batch", Variant(true, true, true, false)},
      {"fig12-batch-pid", Variant(true, true, true, true)},
  };
  for (const auto& p : probes) {
    Stopwatch sw(f.env.get());
    QueryResult res;
    uint64_t results = 0;
    for (uint64_t lo : {100u, 5000u, 40000u}) {
      res = QueryResult{};
      if (!f.ds->QueryUserRange(lo, lo + 999, p.q, &res).ok()) std::abort();
      results += res.records.size();
    }
    const IoStats io = sw.IoDelta();
    std::printf("DIGEST %-24s sim_us=%.3f crit_us=%.3f candidates=%llu "
                "validated_out=%llu results=%llu\n",
                p.name, io.simulated_us,
                sw.CriticalPathSeconds() * 1e6,
                (unsigned long long)res.candidates,
                (unsigned long long)res.validated_out,
                (unsigned long long)results);
    if (g_report != nullptr) {
      g_report->AddSection(p.name, results, io.simulated_us,
                           sw.CriticalPathSeconds() * 1e6);
    }
  }
  // Scan wrappers: pin the ScanResult counters too.
  {
    Stopwatch sw(f.env.get());
    ScanResult scan;
    if (!f.ds->ScanTimeRange(0, UINT64_MAX / 2, &scan).ok()) std::abort();
    ScanResult full;
    if (!f.ds->FullScanUserRange(0, kUserDomain / 4, &full).ok()) {
      std::abort();
    }
    const IoStats io = sw.IoDelta();
    std::printf("DIGEST %-24s sim_us=%.3f crit_us=%.3f scanned=%llu "
                "matched=%llu pruned=%llu full_matched=%llu\n",
                "fig12-scans", io.simulated_us,
                sw.CriticalPathSeconds() * 1e6,
                (unsigned long long)scan.records_scanned,
                (unsigned long long)scan.records_matched,
                (unsigned long long)scan.components_pruned,
                (unsigned long long)full.records_matched);
  }
}

// LIMIT / pagination: the streaming cursor terminates early — a top-k read
// of a wide user range pulls fewer candidates, validates fewer keys, and
// fetches only up to the k-th live record, so it charges less simulated I/O
// than the unlimited query. Each series starts from a cold buffer cache (the
// fixture is warm from 12a-d) and prints a DIGEST line of its modeled I/O.
void Fig12eLimit(Fixture& f) {
  PrintHeader("Fig12e", "LIMIT/pagination: early-terminating cursor");
  const uint64_t width = kUserDomain / 10;  // 10% selectivity
  auto run = [&](uint64_t limit, uint64_t lo) {
    f.env->cache()->Clear();
    Stopwatch sw(f.env.get());
    auto cursor_or = f.ds->NewCursor(Query()
                                         .Secondary("user_id")
                                         .Range(lo, lo + width - 1)
                                         .Limit(limit)
                                         .PageSize(64));
    if (!cursor_or.ok()) std::abort();
    auto cursor = std::move(cursor_or).value();
    QueryPage page;
    uint64_t rows = 0;
    while (!cursor->done()) {
      if (!cursor->Next(&page).ok()) std::abort();
      rows += page.rows();
    }
    const CursorStats& s = cursor->stats();
    const IoStats io = sw.IoDelta();
    const double crit_us = sw.CriticalPathSeconds() * 1e6;
    PrintRow(limit == 0 ? "unlimited" : "limit " + std::to_string(limit),
             std::to_string(rows) + " rows", sw.Seconds(),
             "candidates=" + std::to_string(s.candidates) +
                 " io_ms=" + std::to_string(s.io_simulated_us / 1000.0));
    const std::string name = "fig12e-limit" + std::to_string(limit);
    std::printf("DIGEST %-24s sim_us=%.3f crit_us=%.3f rows=%llu "
                "candidates=%llu\n",
                name.c_str(), io.simulated_us, crit_us,
                (unsigned long long)rows, (unsigned long long)s.candidates);
    if (g_report != nullptr) {
      g_report->AddSection(name, rows, io.simulated_us, crit_us);
    }
  };
  uint64_t lo = 3000;
  for (uint64_t limit : {uint64_t(0), uint64_t(10), uint64_t(100),
                         uint64_t(1000)}) {
    run(limit, lo);
    lo += width + 1000;  // fresh predicate per series
  }
}

// Multi-reader queue binding: R reader threads drain paginated top-k
// queries with ReadOptions::io_queue = reader % Q, so foreground reads
// spread over device queues and overlap in *simulated* time (crit_s <
// sim_s) — closing the "foreground reads all charge queue 0" gap.
void Fig12fMultiReader(const BenchFlags& flags) {
  PrintHeader("Fig12f", "multi-reader cursors on " +
                            std::to_string(flags.queues) +
                            " device queues (readers bound round-robin)");
  std::vector<uint32_t> settings{1};
  if (flags.queues > 1) settings.push_back(flags.queues);  // else = baseline
  for (uint32_t queues : settings) {
    Fixture f = BuildDataset(false, queues, /*cache_shards=*/8);
    const uint32_t readers = flags.queues;
    PagedReadWorkloadOptions w;
    w.num_queries = g_records >= 60000 ? 40 : 10;
    w.range_width = kUserDomain / 100;
    w.limit = 20;
    w.page_size = 10;
    w.user_domain = kUserDomain;
    Stopwatch sw(f.env.get());
    std::vector<std::thread> threads;
    std::vector<PagedReadReport> reports(readers);
    for (uint32_t r = 0; r < readers; r++) {
      threads.emplace_back([&, r]() {
        PagedReadWorkloadOptions mine = w;
        mine.seed = 7 + r;
        mine.io_queue = int32_t(r % queues);
        if (!RunPagedReadWorkload(f.ds.get(), mine, &reports[r]).ok()) {
          std::abort();
        }
      });
    }
    for (auto& t : threads) t.join();
    uint64_t rows = 0, pages = 0;
    for (const auto& rep : reports) {
      rows += rep.rows;
      pages += rep.pages;
    }
    std::printf("%-32s readers=%u sim_s=%8.4f crit_s=%8.4f wall_s=%7.3f "
                "rows=%llu pages=%llu\n",
                queues == 1 ? "single queue (baseline)" : "multi queue",
                readers, sw.IoSeconds(), sw.CriticalPathSeconds(),
                sw.WallSeconds(), (unsigned long long)rows,
                (unsigned long long)pages);
  }
}

}  // namespace
}  // namespace bench
}  // namespace auxlsm

int main(int argc, char** argv) {
  using namespace auxlsm::bench;
  const BenchFlags flags = BenchFlags::Parse(argc, argv);
  auxlsm::obs::MetricsRegistry metrics;
  BenchReport report("fig12");
  if (!flags.metrics_json.empty()) {
    g_metrics = &metrics;
    g_report = &report;
  }
  if (flags.tiny) g_records = 12000;
  PrintNote("scaled to " + std::to_string(g_records / 1000) +
            "K records; times = CPU + simulated HDD I/O");
  Fixture f = BuildDataset(false);
  Fixture seq = BuildDataset(true);
  std::printf("primary components: %zu, secondary components: %zu\n",
              f.ds->primary()->NumDiskComponents(),
              f.ds->secondary(0)->tree->NumDiskComponents());
  Fig12Digest(f);
  Fig12aLowSelectivity(f);
  Fig12bHighSelectivity(f, seq);
  Fig12cBatchSize(f);
  Fig12dSorting(f);
  Fig12eLimit(f);
  Fig12fMultiReader(flags);
  if (g_metrics != nullptr) {
    report.SetSnapshot(g_metrics->Snapshot());
    if (!report.WriteTo(flags.metrics_json)) return 1;
  }
  return 0;
}
