// Figure 13 (§6.3.1): insert ingestion throughput with and without the
// primary key index, under 0% and 50% duplicate ratios, on HDD and SSD cost
// models. The paper plots records-ingested over time; we ingest a fixed
// number of operations and report total modeled time and throughput — the
// comparison (pk-idx vs no-pk-idx, dup ratios) carries over directly.
//
// A final section compares the serial maintenance path against the
// concurrent maintenance engine. Since PR 3, modeled disk time is charged by
// the multi-queue IoEngine (src/io/): on a single-queue (legacy) device the
// engine's threads shorten `wall_s`, but their interleaved I/O shares one
// head, so modeled time does not drop and can grow. On a multi-queue device
// profile the serial engine's maintenance tasks are bound to independent
// device queues and `crit_s` — the device's critical path, max over queue
// clocks — drops below the single-queue simulated time as flushes genuinely
// overlap. The paper series above always run queues=1, which is bit-for-bit
// the old single-head DiskModel.
//
// Flags: --tiny (CI smoke sizes), --queues=N (device queues of the
// multi-queue section; the paper series stay at 1).
#include <thread>

#include "bench_util.h"

namespace auxlsm {
namespace bench {
namespace {

uint64_t g_ops = 40000;

/// Non-null when --metrics-json armed the registry: every case attaches it
/// (EnvOptions::metrics + DatasetOptions::metrics), so the written snapshot
/// accumulates over the whole bench run. Arming must not move a DIGEST —
/// CI's metrics-smoke step diffs the DIGEST lines against an unarmed run.
auxlsm::obs::MetricsRegistry* g_metrics = nullptr;

struct CaseResult {
  double total_s = 0;
  double wall_s = 0;
  double sim_s = 0;
  double crit_s = 0;
};

CaseResult RunCase(bool ssd, bool pk_index, double dup_ratio, size_t threads,
                   uint32_t queues, bool print = true) {
  // Cache deliberately small relative to the primary index so uniqueness
  // checks against full records miss, while the small pk index stays cached.
  EnvOptions eo = BenchEnv(/*cache_mb=*/4, ssd,
                           /*cache_shards=*/threads > 1 ? 8 : 1, queues);
  eo.metrics = g_metrics;
  Env env(eo);
  DatasetOptions o;
  o.strategy = MaintenanceStrategy::kEager;
  o.enable_primary_key_index = pk_index;
  o.mem_budget_bytes = 1 << 20;
  o.max_mergeable_bytes = 8 << 20;
  o.maintenance_threads = threads;
  o.metrics = g_metrics;
  Dataset ds(&env, o);
  TweetGenerator gen;
  InsertWorkloadOptions w;
  w.num_ops = g_ops;
  w.duplicate_ratio = dup_ratio;
  WorkloadReport report;
  Stopwatch sw(&env, ds.wal());
  if (!RunInsertWorkload(&ds, &gen, w, &report).ok()) std::abort();
  CaseResult r{sw.Seconds(), sw.WallSeconds(), sw.IoSeconds(),
               sw.CriticalPathSeconds()};
  if (print) {
    char extra[160];
    std::snprintf(extra, sizeof(extra),
                  "records=%llu throughput=%.0f ops/s io_s=%.2f wall_s=%.3f",
                  (unsigned long long)report.new_records,
                  double(g_ops) / r.total_s, r.sim_s, r.wall_s);
    const std::string series =
        std::string(pk_index ? "pk-idx" : "no-pk-idx") + " " +
        std::to_string(int(dup_ratio * 100)) + "% dup";
    PrintRow(series, ssd ? "ssd" : "hdd", r.total_s, extra);
  }
  return r;
}

/// Per-op modeled ingest latency on the serial path: most inserts cost a
/// memtable put plus the uniqueness check, while budget-triggered ops pay
/// the whole inline flush (+ merges) — the stall spikes the decoupled
/// pipeline (Fig 23f) exists to bound. Deterministic (writers=1, mt=1,
/// queues=1), so the tiny run's DIGEST lines are CI parity anchors.
LatencyPercentiles RunLatencyCase(bool pk_index, uint64_t ops) {
  EnvOptions eo = BenchEnv(/*cache_mb=*/4);
  eo.metrics = g_metrics;
  Env env(eo);
  DatasetOptions o;
  o.strategy = MaintenanceStrategy::kEager;
  o.enable_primary_key_index = pk_index;
  o.mem_budget_bytes = 1 << 20;
  o.max_mergeable_bytes = 8 << 20;
  o.maintenance_threads = 1;
  o.metrics = g_metrics;
  Dataset ds(&env, o);
  TweetGenerator gen;
  std::vector<double> lat;
  lat.reserve(ops);
  for (uint64_t i = 0; i < ops; i++) {
    const double before =
        env.stats().simulated_us + ds.wal()->stats().simulated_us;
    if (!ds.Insert(gen.Next()).ok()) std::abort();
    lat.push_back(env.stats().simulated_us + ds.wal()->stats().simulated_us -
                  before);
  }
  return ComputePercentiles(std::move(lat));
}

/// Robustness (PR 6): the same insert workload with transient write faults
/// injected on the page-append seam. Every fault lands in a retry-wrapped
/// maintenance step, so with an adequate retry budget the workload completes
/// with zero surfaced errors; the modeled-time delta against the clean run
/// is the price of the retries (rebuilt flushes + backoff charges). Rates
/// are per page append, and a single merge writes thousands of pages, so
/// per-step failure odds compound fast — the rates here keep the compounded
/// odds within the retry budget.
/// Deliberately DIGEST-free: fault runs are diagnostics, not parity anchors.
void RunFaultCase(double rate, uint64_t ops) {
  FaultInjector fault(2024);
  EnvOptions eo = BenchEnv(/*cache_mb=*/4);
  eo.fault_injector = &fault;
  Env env(eo);
  DatasetOptions o;
  o.strategy = MaintenanceStrategy::kEager;
  o.mem_budget_bytes = 1 << 20;
  o.max_mergeable_bytes = 8 << 20;
  o.maintenance_threads = 1;
  o.fault_injector = &fault;
  o.maintenance_retry_limit = 8;
  Dataset ds(&env, o);
  if (rate > 0) {
    fault.Arm(failpoints::kEnvAppendPage,
              FaultSpec::Error(Status::IOError("transient write fault"), rate));
  }
  TweetGenerator gen;
  uint64_t surfaced = 0;
  const MaintenanceStats ms0 = ds.maintenance_stats();
  Stopwatch sw(&env, ds.wal());
  for (uint64_t i = 0; i < ops; i++) {
    if (!ds.Insert(gen.Next()).ok()) surfaced++;
  }
  const double total_s = sw.Seconds();
  // Interval delta via MaintenanceStats::operator- — only retries charged to
  // the measured loop, not to dataset construction.
  const MaintenanceStats ms = ds.maintenance_stats() - ms0;
  char extra[160];
  std::snprintf(extra, sizeof(extra),
                "fires=%llu retries=%llu ok_retries=%llu abandoned=%llu "
                "surfaced_errors=%llu",
                (unsigned long long)
                    fault.site_stats(failpoints::kEnvAppendPage).fires,
                (unsigned long long)ms.retries_attempted.load(),
                (unsigned long long)ms.retries_succeeded.load(),
                (unsigned long long)ms.rounds_abandoned.load(),
                (unsigned long long)surfaced);
  char series[64];
  std::snprintf(series, sizeof(series), "append-fault rate=%.4g%%",
                rate * 100);
  PrintRow(series, "hdd", total_s, extra);
}

}  // namespace
}  // namespace bench
}  // namespace auxlsm

int main(int argc, char** argv) {
  using namespace auxlsm::bench;
  const BenchFlags flags = BenchFlags::Parse(argc, argv);
  if (flags.tiny) g_ops = 4000;
  auxlsm::obs::MetricsRegistry metrics;
  if (!flags.metrics_json.empty()) g_metrics = &metrics;
  BenchReport report("fig13");

  PrintHeader("Fig13", "insert ingestion: primary key index & duplicates");
  PrintNote("40K inserts; uniqueness check via pk index vs primary index");
  for (bool ssd : {false, true}) {
    for (double dup : {0.0, 0.5}) {
      const CaseResult a = RunCase(ssd, /*pk_index=*/true, dup, 1, 1);
      const CaseResult b = RunCase(ssd, /*pk_index=*/false, dup, 1, 1);
      const std::string x = std::string(ssd ? "ssd" : "hdd") + "-" +
                            std::to_string(int(dup * 100)) + "dup";
      report.AddSection("fig13-pk-" + x, g_ops, a.sim_s * 1e6, a.crit_s * 1e6);
      report.AddSection("fig13-nopk-" + x, g_ops, b.sim_s * 1e6,
                        b.crit_s * 1e6);
      if (flags.tiny) {
        PrintDigest("fig13-pk-" + x, a.sim_s * 1e6, a.crit_s * 1e6);
        PrintDigest("fig13-nopk-" + x, b.sim_s * 1e6, b.crit_s * 1e6);
      }
    }
  }

  const size_t hw = std::max(2u, std::thread::hardware_concurrency());
  PrintHeader("Fig13-mt", "maintenance engine: serial vs " +
                              std::to_string(hw) + " threads");
  PrintNote("single-queue device: threads shorten the wall component; "
            "their I/O still shares one head");
  for (bool ssd : {false, true}) {
    const CaseResult serial = RunCase(ssd, true, 0.0, 1, 1, /*print=*/false);
    const CaseResult parallel = RunCase(ssd, true, 0.0, hw, 1, /*print=*/false);
    char extra[160];
    std::snprintf(extra, sizeof(extra),
                  "wall_s %.3f -> %.3f (%.2fx) total %.2f -> %.2f (%.2fx)",
                  serial.wall_s, parallel.wall_s,
                  serial.wall_s / parallel.wall_s, serial.total_s,
                  parallel.total_s, serial.total_s / parallel.total_s);
    PrintRow("pk-idx 0% dup mt=" + std::to_string(hw), ssd ? "ssd" : "hdd",
             parallel.total_s, extra);
  }

  // Per-op ingest latency: the serial path's stall distribution. The p50 is
  // the memtable put + uniqueness check; the max is a full inline
  // flush-and-merge cycle charged to one unlucky op — the spike the
  // decoupled merge scheduling of Fig 23f bounds to flush-only time.
  PrintHeader("Fig13-lat",
              "serial per-op modeled ingest latency (us; p50/p99/max)");
  for (bool pk : {true, false}) {
    const LatencyPercentiles p = RunLatencyCase(pk, g_ops);
    char extra[160];
    std::snprintf(extra, sizeof(extra), "p50_us=%.3f p99_us=%.3f max_us=%.1f",
                  p.p50, p.p99, p.max);
    PrintRow(pk ? "pk-idx" : "no-pk-idx", "hdd", p.max / 1e6, extra);
    if (flags.tiny) {
      const std::string s = pk ? "fig13-lat-pk" : "fig13-lat-nopk";
      PrintDigest(s + "-p50", p.p50, p.p50);
      PrintDigest(s + "-p99", p.p99, p.p99);
      PrintDigest(s + "-max", p.max, p.max);
    }
  }

  // Multi-queue device: the serial engine's maintenance fan-out now
  // shortens *simulated* time — tasks bound to different queues overlap on
  // the device, so the critical path (crit_s) drops below the single-queue
  // simulated time while the serial-queue series above stay untouched. Both
  // sides run one host thread, so the overlap is the device's alone.
  PrintHeader("Fig13-mq", "multi-queue device, serial engine: queues=1 vs "
                          "queues=" + std::to_string(flags.queues));
  for (bool ssd : {false, true}) {
    const CaseResult q1 = RunCase(ssd, true, 0.0, 1, 1, /*print=*/false);
    const CaseResult qn =
        RunCase(ssd, true, 0.0, 1, flags.queues, /*print=*/false);
    char extra[160];
    std::snprintf(extra, sizeof(extra),
                  "sim_s(q=1) %.3f -> crit_s(q=%u) %.3f (%.2fx overlap)",
                  q1.sim_s, flags.queues, qn.crit_s,
                  qn.crit_s > 0 ? q1.sim_s / qn.crit_s : 0.0);
    PrintRow("pk-idx 0% dup", ssd ? "ssd" : "hdd", qn.crit_s, extra);
  }

  // Self-healing under injected transient write faults (--faults to run at
  // full size; always on for --tiny smoke runs). Zero surfaced errors is
  // the robustness contract; the total_s delta is the retry tax.
  if (flags.tiny || flags.faults) {
    PrintHeader("Fig13-faults",
                "transient append faults absorbed by maintenance retries");
    PrintNote("retry budget 8; surfaced_errors must stay 0");
    // Tiny runs append ~50x fewer pages, so the full-size rates would never
    // fire there; scale them up so the smoke run still exercises retries.
    const std::vector<double> rates =
        flags.tiny ? std::vector<double>{0.0, 0.001, 0.004}
                   : std::vector<double>{0.0, 0.00005, 0.0002};
    for (double rate : rates) {
      RunFaultCase(rate, g_ops);
    }
  }

  // Machine-readable report: per-section modeled costs plus the registry
  // snapshot (ingest.op_modeled_ns / op_wall_ns histograms, io.* request
  // counters) accumulated across every case above.
  if (g_metrics != nullptr) {
    report.SetSnapshot(g_metrics->Snapshot());
    if (!report.WriteTo(flags.metrics_json)) return 1;
  }
  return 0;
}
