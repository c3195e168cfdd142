// Figure 23 (§6.6): overhead of the Mutable-bitmap concurrency-control
// methods. Four disk components are merged while writer threads upsert at
// maximum speed; merge time is compared across the no-CC baseline, the
// Side-file method, and the Lock method, sweeping update ratio, component
// record count, and record size. Section d sweeps the PR 2 multi-writer
// ingest pipeline and now also reports the modeled per-commit latency the
// group-commit WAL achieves (txn/wal.h), plus a multi-queue run where
// writer threads are bound to independent storage/log device queues
// (src/io/) so their I/O overlaps in simulated time.
//
// Flags: --tiny (CI smoke sizes), --queues=N (device queues of the
// multi-queue rows; everything else stays on the single-queue device).
#include <atomic>
#include <thread>

#include "bench_util.h"
#include "core/mutable_bitmap_build.h"

namespace auxlsm {
namespace bench {
namespace {

/// Non-null when --metrics-json armed the registry (see fig13): the
/// multi-writer sections attach it, and arming must not move a DIGEST line.
auxlsm::obs::MetricsRegistry* g_metrics = nullptr;

struct CaseConfig {
  double update_ratio = 0.5;
  uint64_t records_per_component = 15000;
  size_t record_bytes = 100;
};

double RunCase(BuildCcMethod method, const CaseConfig& cfg) {
  Env env(BenchEnv(/*cache_mb=*/64));
  DatasetOptions o;
  o.strategy = MaintenanceStrategy::kMutableBitmap;
  o.mem_budget_bytes = 1u << 30;  // no flushes during the merge
  Dataset ds(&env, o);
  TweetGenOptions go;
  // record_bytes approximates the paper's record size knob via the message.
  go.min_message_bytes = cfg.record_bytes;
  go.max_message_bytes = cfg.record_bytes;
  TweetGenerator gen(go);
  for (int c = 0; c < 4; c++) {
    for (uint64_t i = 0; i < cfg.records_per_component; i++) {
      if (!ds.Upsert(gen.Next()).ok()) std::abort();
    }
    if (!ds.FlushAll().ok()) std::abort();
  }
  const uint64_t total = 4 * cfg.records_per_component;

  // Writer threads ingest at maximum speed for the duration of the merge.
  // Each writer builds its records locally (the shared generator's history
  // is frozen and read-only during the merge).
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; t++) {
    writers.emplace_back([&, t]() {
      Random rng(1000 + t);
      uint64_t seq = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        TweetRecord r;
        if (rng.Bernoulli(cfg.update_ratio)) {
          r.id = gen.IdAt(rng.Uniform(total));  // update a merged-in key
        } else {
          r.id = rng.Next();  // fresh key
        }
        r.user_id = rng.Uniform(100000);
        r.location = "CA";
        r.creation_time = (uint64_t{1} << 32) + (uint64_t(t) << 24) + seq++;
        r.message = std::string(cfg.record_bytes, 'w');
        if (!ds.Upsert(r).ok()) std::abort();
      }
    });
  }

  ConcurrentMergeStats stats;
  const size_t n = ds.primary()->NumDiskComponents();
  if (!ConcurrentMerge(&ds, n - 4, n, method, &stats).ok()) std::abort();
  stop.store(true);
  for (auto& w : writers) w.join();
  return stats.elapsed_seconds;
}

const char* MethodName(BuildCcMethod m) {
  switch (m) {
    case BuildCcMethod::kNone: return "Baseline";
    case BuildCcMethod::kSideFile: return "Side-file";
    case BuildCcMethod::kLock: return "Lock";
  }
  return "?";
}

/// Multi-writer ingest scaling (the PR 2 pipeline): N writer threads split a
/// fixed record set; the dataset runs the writer-group pipeline (background
/// seal/flush/merge, group-commit WAL) with the given §5.3 CC method for its
/// merges. Reports wall seconds: the modeled-I/O figures above stay pinned to
/// the serial write path, and the pipeline's win is CPU/wall overlap, so it
/// only shows on multi-core hosts.
struct MultiWriterResult {
  double wall_s = 0;
  double sim_s = 0;       ///< storage + log device work (summed queues)
  double crit_s = 0;      ///< storage + log critical path
  double avg_commit_lat_us = 0;  ///< modeled group-commit latency
  double commits_per_sync = 0;   ///< group-commit batch size (0: no syncs)
};

MultiWriterResult RunMultiWriterIngest(int writers, BuildCcMethod method,
                                       uint64_t total_records,
                                       uint32_t queues = 1,
                                       const std::string& trace_path = "") {
  EnvOptions eo = BenchEnv(/*cache_mb=*/64, /*ssd=*/false,
                           /*cache_shards=*/writers == 1 ? 1 : 8, queues);
  eo.metrics = g_metrics;
  Env env(eo);
  DatasetOptions o;
  o.strategy = MaintenanceStrategy::kMutableBitmap;
  o.build_cc = method;
  o.writer_threads = size_t(writers);
  o.mem_budget_bytes = 2u << 20;
  o.log_queues = queues;
  o.metrics = g_metrics;
  // --trace-json: arm the span tracer on this run; spans are drained and
  // exported as Chrome trace-event JSON after maintenance settles. The
  // budget is shrunk so even the tiny run exercises several maintenance
  // cycles — the trace exists to show their shape (this is a dedicated
  // diagnostic section, not a DIGEST anchor).
  if (!trace_path.empty()) {
    o.trace_buffer_bytes = 4u << 20;
    o.mem_budget_bytes = 256u << 10;
  }
  Dataset ds(&env, o);

  const WalStats wal0 = ds.wal()->wal_stats();
  Stopwatch sw(&env, ds.wal());
  std::vector<std::thread> threads;
  const uint64_t per_writer = total_records / uint64_t(writers);
  for (int t = 0; t < writers; t++) {
    threads.emplace_back([&ds, &env, t, per_writer]() {
      // Writer t's reads, and any group-commit sync it makes, charge device
      // queue (t % queues) of the storage and log engines (no-op at q=1).
      IoQueueScope storage_q(env.io(), uint32_t(t));
      IoQueueScope log_q(ds.wal()->io(), uint32_t(t));
      Random rng(7000 + t);
      const uint64_t base = 1 + uint64_t(t) * per_writer;
      for (uint64_t i = 0; i < per_writer; i++) {
        TweetRecord r;
        r.id = base + i;
        r.user_id = rng.Uniform(100000);
        r.location = "CA";
        r.creation_time = base + i;
        r.message = std::string(100, 'w');
        if (!ds.Upsert(r).ok()) std::abort();
      }
    });
  }
  for (auto& w : threads) w.join();
  if (!ds.WaitForMaintenance().ok()) std::abort();
  MultiWriterResult res;
  res.wall_s = sw.WallSeconds();
  res.sim_s = sw.IoSeconds();
  res.crit_s = sw.CriticalPathSeconds();
  // Interval delta via WalStats::operator- — robust even if a future warm-up
  // phase commits before the measured loop.
  const WalStats ws = ds.wal()->wal_stats() - wal0;
  res.avg_commit_lat_us =
      ws.commits > 0 ? ws.commit_latency_us_total / double(ws.commits) : 0;
  res.commits_per_sync =
      ws.syncs > 0 ? double(ws.commits) / double(ws.syncs) : 0;
  if (ds.num_records() != per_writer * uint64_t(writers)) std::abort();
  if (!trace_path.empty()) WriteChromeTrace(ds.tracer(), trace_path);
  return res;
}

// --- Fig23f: sustained-overload ingest latency ------------------------------

/// Serial-path per-op modeled ingest latency under sustained overload: each
/// op's delta of simulated storage + log time. Deterministic (writers=1,
/// queues=1 — on one queue crit == sim), so the tiny
/// run's percentile DIGEST lines anchor the CI parity check across --queues.
LatencyPercentiles RunSerialOverloadModeled(uint64_t records) {
  EnvOptions eo = BenchEnv(/*cache_mb=*/16);
  eo.metrics = g_metrics;
  Env env(eo);
  DatasetOptions o;
  o.metrics = g_metrics;
  o.strategy = MaintenanceStrategy::kMutableBitmap;
  o.mem_budget_bytes = 256 << 10;  // frequent inline flush + merge spikes
  o.max_mergeable_bytes = 64 << 20;
  Dataset ds(&env, o);
  std::vector<double> lat;
  lat.reserve(records);
  Random rng(42);
  for (uint64_t i = 1; i <= records; i++) {
    TweetRecord r;
    r.id = i;
    r.user_id = rng.Uniform(100000);
    r.location = "CA";
    r.creation_time = i;
    r.message = std::string(100, 'w');
    const double before =
        env.stats().simulated_us + ds.wal()->stats().simulated_us;
    if (!ds.Upsert(r).ok()) std::abort();
    lat.push_back(env.stats().simulated_us + ds.wal()->stats().simulated_us -
                  before);
  }
  return ComputePercentiles(std::move(lat));
}

struct OverloadIngestResult {
  LatencyPercentiles lat_ms;  ///< per-op wall latency percentiles
  uint64_t flushes = 0;
  uint64_t merges = 0;
  double wall_s = 0;
};

/// Multi-writer sustained overload: writers ingest flat out under a small
/// budget so flush cycles run continuously and merge work accumulates.
/// Coupled (`depth` = 0) runs each cycle's merges inline — a long merge
/// delays the next seal and every writer rides the 2x-budget wait for its
/// whole duration. Decoupled (`depth` > 0) queues merges per tree, so the
/// worst per-op stall is bounded by flush (not merge) time as long as the
/// backlog stays within depth rounds.
OverloadIngestResult RunOverloadIngest(int writers, size_t depth,
                                       uint64_t total_records) {
  Env env(BenchEnv(/*cache_mb=*/16, /*ssd=*/false, /*cache_shards=*/8));
  DatasetOptions o;
  o.strategy = MaintenanceStrategy::kMutableBitmap;
  o.build_cc = BuildCcMethod::kLock;
  o.writer_threads = size_t(writers);
  o.merge_queue_depth = depth;
  o.mem_budget_bytes = 256 << 10;    // sustained overload: continuous cycles
  o.max_mergeable_bytes = 64 << 20;  // deep merges: long coupled merge phases
  Dataset ds(&env, o);

  Stopwatch sw(&env, ds.wal());
  const size_t n_writers = size_t(writers);
  std::vector<std::vector<double>> per_writer(n_writers);
  std::vector<std::thread> threads;
  const uint64_t per = total_records / uint64_t(writers);
  for (int t = 0; t < writers; t++) {
    per_writer[size_t(t)].reserve(per);
    threads.emplace_back([&ds, &per_writer, t, per]() {
      std::vector<double>& lat = per_writer[size_t(t)];
      const uint64_t base = 1 + uint64_t(t) * per;
      for (uint64_t i = 0; i < per; i++) {
        TweetRecord r;
        r.id = base + i;
        r.user_id = (base + i) % 100000;
        r.location = "CA";
        r.creation_time = base + i;
        r.message = std::string(100, 'w');
        const auto t0 = std::chrono::steady_clock::now();
        if (!ds.Upsert(r).ok()) std::abort();
        lat.push_back(std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count());
      }
    });
  }
  for (auto& w : threads) w.join();
  if (!ds.WaitForMaintenance().ok()) std::abort();
  OverloadIngestResult res;
  res.wall_s = sw.WallSeconds();
  std::vector<double> all;
  for (auto& v : per_writer) all.insert(all.end(), v.begin(), v.end());
  res.lat_ms = ComputePercentiles(std::move(all));
  res.flushes = ds.ingest_stats().flushes;
  res.merges = ds.ingest_stats().merges;
  return res;
}

}  // namespace
}  // namespace bench
}  // namespace auxlsm

int main(int argc, char** argv) {
  using namespace auxlsm::bench;
  using auxlsm::BuildCcMethod;
  const BenchFlags flags = BenchFlags::Parse(argc, argv);
  auxlsm::obs::MetricsRegistry metrics;
  if (!flags.metrics_json.empty()) g_metrics = &metrics;
  BenchReport report("fig23");
  const BuildCcMethod methods[] = {BuildCcMethod::kNone,
                                   BuildCcMethod::kSideFile,
                                   BuildCcMethod::kLock};
  const uint64_t component_records = flags.tiny ? 2000 : 15000;
  const std::vector<double> update_ratios =
      flags.tiny ? std::vector<double>{0.4}
                 : std::vector<double>{0.0, 0.2, 0.4, 0.8, 1.0};

  PrintHeader("Fig23a", "impact of update ratio (merge 4 components)");
  for (double upd : update_ratios) {
    for (BuildCcMethod m : methods) {
      CaseConfig cfg;
      cfg.update_ratio = upd;
      cfg.records_per_component = component_records;
      PrintRow(MethodName(m), std::to_string(int(upd * 100)) + "%",
               RunCase(m, cfg));
    }
  }

  if (!flags.tiny) {
    PrintHeader("Fig23b", "impact of component size (#records, 50% updates)");
    for (uint64_t n : {5000u, 10000u, 15000u, 20000u, 25000u}) {
      for (BuildCcMethod m : methods) {
        CaseConfig cfg;
        cfg.records_per_component = n;
        PrintRow(MethodName(m), std::to_string(n), RunCase(m, cfg));
      }
    }

    PrintHeader("Fig23c", "impact of record size (bytes, 50% updates)");
    for (size_t bytes : {20u, 100u, 200u, 500u, 1000u}) {
      for (BuildCcMethod m : methods) {
        CaseConfig cfg;
        cfg.record_bytes = bytes;
        cfg.records_per_component = 8000;
        PrintRow(MethodName(m), std::to_string(bytes) + "B", RunCase(m, cfg));
      }
    }
  }

  PrintHeader("Fig23d",
              "multi-writer ingest scaling (writer-group pipeline, wall_s)");
  PrintNote(
      "writers=1 is the legacy serial path (inline flush/merge); >1 runs "
      "background seal/flush/merge with group-commit WAL and the given "
      "merge CC method (Baseline = stop-the-world). Wall time only; the "
      "modeled-I/O figures above stay pinned to the serial path. "
      "commits_per_sync is the group-commit batch size (0 = no syncs, "
      "the serial path).");
  const uint64_t scaling_records = flags.tiny ? 8000 : 60000;
  for (int writers : {1, 2, 4, 8}) {
    for (BuildCcMethod m : methods) {
      const MultiWriterResult r =
          RunMultiWriterIngest(writers, m, scaling_records);
      char extra[120];
      std::snprintf(extra, sizeof(extra),
                    "wall_s avg_commit_lat_us=%.1f commits_per_sync=%.2f",
                    r.avg_commit_lat_us, r.commits_per_sync);
      PrintRow(MethodName(m), "w=" + std::to_string(writers), r.wall_s,
               extra);
      if (writers == 1 && m == BuildCcMethod::kNone) {
        report.AddSection("fig23d-serial-w1", scaling_records, r.sim_s * 1e6,
                          r.crit_s * 1e6);
        // Serial legacy path: modeled I/O is deterministic — the smoke
        // job's parity anchor.
        if (flags.tiny) {
          PrintDigest("fig23d-serial-w1", r.sim_s * 1e6, r.crit_s * 1e6);
        }
      }
    }
  }

  // --trace-json: one dedicated multi-writer run with the span tracer armed.
  // The exported Chrome trace shows the full maintenance cycle (seal →
  // per-tree flush_build(...) → install → merge), WAL group-commit syncs,
  // and per-queue IoEngine charges, each stamped with wall AND modeled time.
  if (!flags.trace_json.empty()) {
    PrintHeader("Fig23-trace", "traced multi-writer run (writers=4, Lock)");
    RunMultiWriterIngest(/*writers=*/4, BuildCcMethod::kLock, scaling_records,
                         /*queues=*/1, flags.trace_json);
  }

  // Multi-queue device: writers (and the group-commit syncs they make) are
  // bound to independent storage/log queues, so the modeled I/O of the
  // pipeline overlaps — crit_s is what the multi-queue device completes in.
  PrintHeader("Fig23e", "multi-writer on " + std::to_string(flags.queues) +
                            "-queue device (crit_s; q=1 shown as sim_s)");
  for (int writers : {2, 4}) {
    const MultiWriterResult q1 =
        RunMultiWriterIngest(writers, BuildCcMethod::kLock, scaling_records,
                             /*queues=*/1);
    const MultiWriterResult qn =
        RunMultiWriterIngest(writers, BuildCcMethod::kLock, scaling_records,
                             flags.queues);
    char extra[160];
    std::snprintf(extra, sizeof(extra),
                  "sim_s(q=1) %.3f -> crit_s(q=%u) %.3f "
                  "avg_commit_lat_us %.1f -> %.1f",
                  q1.sim_s, flags.queues, qn.crit_s, q1.avg_commit_lat_us,
                  qn.avg_commit_lat_us);
    PrintRow("Lock", "w=" + std::to_string(writers), qn.crit_s, extra);
  }

  // Sustained overload: per-op ingest latency with coupled vs decoupled
  // merge scheduling (PR 5). Decoupling bounds the worst stall by flush —
  // not merge — time: merge work drains on per-tree queues while the next
  // seal/install proceeds, and writers only wait once the backlog exceeds
  // merge_queue_depth flush rounds.
  PrintHeader("Fig23f",
              "sustained-overload ingest latency: coupled vs decoupled "
              "merge scheduling");
  PrintNote(
      "per-op wall latency percentiles (ms); depth=0 = legacy coupled "
      "cycle (merges inline), depth>0 = per-tree merge queues with "
      "bounded-backlog backpressure. Worst stall drops from ~merge time "
      "to ~flush time.");
  const uint64_t overload_records = flags.tiny ? 12000 : 60000;
  for (size_t depth : {size_t(0), size_t(4)}) {
    const OverloadIngestResult r =
        RunOverloadIngest(/*writers=*/4, depth, overload_records);
    char extra[200];
    std::snprintf(extra, sizeof(extra),
                  "p50_ms=%.3f p99_ms=%.3f max_stall_ms=%.1f flushes=%llu "
                  "merges=%llu",
                  r.lat_ms.p50, r.lat_ms.p99, r.lat_ms.max,
                  (unsigned long long)r.flushes,
                  (unsigned long long)r.merges);
    PrintRow(depth == 0 ? "coupled (depth=0)"
                        : "decoupled (depth=" + std::to_string(depth) + ")",
             "w=4", r.wall_s, extra);
  }

  if (flags.tiny) {
    // Serial-path modeled ingest-latency percentiles: deterministic on the
    // single-queue device this section always uses, so these lines are
    // pinned by the CI smoke job across --queues settings (crit == sim on
    // one queue by construction).
    const LatencyPercentiles p = RunSerialOverloadModeled(8000);
    PrintDigest("fig23f-serial-lat-p50", p.p50, p.p50);
    PrintDigest("fig23f-serial-lat-p99", p.p99, p.p99);
    PrintDigest("fig23f-serial-lat-max", p.max, p.max);
  }

  if (g_metrics != nullptr) {
    report.SetSnapshot(g_metrics->Snapshot());
    if (!report.WriteTo(flags.metrics_json)) return 1;
  }
  return 0;
}
