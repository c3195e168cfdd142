// Figure 15 (§6.3.2): (a) impact of the maximum mergeable component size on
// upsert ingestion; (b) impact of the number of secondary indexes, including
// the deleted-key B+-tree baseline; (c) beyond the paper, how much of the
// primary-key index stays cached under a small buffer cache while merges
// run. A final section runs the multi-index workload on a multi-queue device
// profile (src/io/).
//
// Modeled-time accounting since PR 3: the paper series run on a single-queue
// device, where simulated disk seconds are charged to one head — bit-for-bit
// the legacy DiskModel. The Fig15-mq section runs the same maintenance
// engine on an NVMe device profile, whose per-tree flushes and merges and
// key-range merge partitions are bound to independent queues: the device's
// critical path (`crit_s`, max over queue clocks) drops strictly below the
// single-queue simulated time on the same workload, which is how device
// concurrency — not host concurrency — shortens the modeled ingestion story.
//
// Flags: --tiny (CI smoke sizes), --queues=N (device queues of the
// multi-queue section; the paper series stay at 1), --metrics-json=PATH
// (arms the metrics registry on every case and writes BENCH_fig15.json).
//
// The --tiny size is chosen so every serial Fig15a/Fig15b row actually
// merges (plain, merge-repair and deleted-key merges): the CI DIGEST lines
// then pin the serial merge paths, not just flushes.
#include "bench_util.h"

namespace auxlsm {
namespace bench {
namespace {

uint64_t g_ops = 30000;

/// Non-null when --metrics-json armed the registry (see fig13): every case
/// attaches it, and arming must not move a DIGEST line.
auxlsm::obs::MetricsRegistry* g_metrics = nullptr;

struct StrategyCase {
  const char* name;
  MaintenanceStrategy strategy;
  bool merge_repair;
};

struct IngestResult {
  double total_s = 0;
  double wall_s = 0;
  double sim_s = 0;
  double crit_s = 0;
  uint64_t cache_evictions = 0;
};

struct IngestCase {
  uint64_t max_mergeable = 8u << 20;
  size_t num_secondary = 1;
  uint32_t queues = 1;
  bool nvme = false;
  size_t cache_pages = 0;  ///< 0 = BenchEnv's 4 MiB
  double update_ratio = 0.1;  ///< §6.3.2 default
};

IngestResult RunIngest(const StrategyCase& sc, const IngestCase& ic) {
  EnvOptions eo = BenchEnv(/*cache_mb=*/4, /*ssd=*/false);
  if (ic.cache_pages != 0) eo.cache_pages = ic.cache_pages;
  eo.metrics = g_metrics;
  // The multi-queue comparison holds the cost parameters fixed and varies
  // only the queue count, so overlap is the sole difference being measured.
  if (ic.nvme) eo.device_profile = DeviceProfile::Nvme(ic.queues);
  Env env(eo);
  DatasetOptions o;
  o.strategy = sc.strategy;
  o.merge_repair = sc.merge_repair;
  o.mem_budget_bytes = 1 << 20;
  o.max_mergeable_bytes = ic.max_mergeable;
  o.metrics = g_metrics;
  o.secondary_indexes.clear();
  for (size_t i = 0; i < ic.num_secondary; i++) {
    o.secondary_indexes.push_back(SecondaryIndexDef::SyntheticAttribute(i));
  }
  Dataset ds(&env, o);
  TweetGenerator gen;
  UpsertWorkloadOptions w;
  w.num_ops = g_ops;
  w.update_ratio = ic.update_ratio;
  WorkloadReport report;
  Stopwatch sw(&env, ds.wal());
  if (!RunUpsertWorkload(&ds, &gen, w, &report).ok()) std::abort();
  return IngestResult{sw.Seconds(), sw.WallSeconds(), sw.IoSeconds(),
                      sw.CriticalPathSeconds(),
                      env.cache()->stats().evictions};
}

}  // namespace
}  // namespace bench
}  // namespace auxlsm

int main(int argc, char** argv) {
  using namespace auxlsm::bench;
  using auxlsm::MaintenanceStrategy;
  const BenchFlags flags = BenchFlags::Parse(argc, argv);
  if (flags.tiny) g_ops = 20000;
  auxlsm::obs::MetricsRegistry metrics;
  if (!flags.metrics_json.empty()) g_metrics = &metrics;
  BenchReport report("fig15");
  const StrategyCase core_cases[] = {
      {"eager", MaintenanceStrategy::kEager, false},
      {"validation", MaintenanceStrategy::kValidation, true},
      {"validation (no repair)", MaintenanceStrategy::kValidation, false},
      {"mutable-bitmap", MaintenanceStrategy::kMutableBitmap, false},
  };

  PrintHeader("Fig15a", "impact of max mergeable component size (10% upd)");
  const std::pair<const char*, uint64_t> sizes[] = {
      {"512KB", 512u << 10}, {"2MB", 2u << 20}, {"8MB", 8u << 20},
      {"32MB", 32u << 20}};
  for (const auto& [label, max_size] : sizes) {
    for (const auto& sc : core_cases) {
      const IngestResult r =
          RunIngest(sc, {.max_mergeable = max_size, .num_secondary = 1});
      char extra[64];
      std::snprintf(extra, sizeof(extra), "throughput=%.0f ops/s",
                    double(g_ops) / r.total_s);
      PrintRow(sc.name, label, r.total_s, extra);
      const std::string section =
          std::string("fig15a-") + sc.name + "-" + label;
      report.AddSection(section, g_ops, r.sim_s * 1e6, r.crit_s * 1e6);
      if (flags.tiny) PrintDigest(section, r.sim_s * 1e6, r.crit_s * 1e6);
    }
  }

  PrintHeader("Fig15b", "impact of number of secondary indexes (10% upd)");
  const StrategyCase sec_cases[] = {
      {"eager", MaintenanceStrategy::kEager, false},
      {"validation", MaintenanceStrategy::kValidation, true},
      {"validation (no repair)", MaintenanceStrategy::kValidation, false},
      {"deleted-key B+tree", MaintenanceStrategy::kDeletedKeyBtree, false},
  };
  for (size_t n = 1; n <= 5; n++) {
    for (const auto& sc : sec_cases) {
      const IngestResult r = RunIngest(sc, {.num_secondary = n});
      char extra[64];
      std::snprintf(extra, sizeof(extra), "throughput=%.0f ops/s",
                    double(g_ops) / r.total_s);
      PrintRow(sc.name, std::to_string(n) + "-idx", r.total_s, extra);
      const std::string section =
          std::string("fig15b-") + sc.name + "-" + std::to_string(n) + "idx";
      report.AddSection(section, g_ops, r.sim_s * 1e6, r.crit_s * 1e6);
      if (flags.tiny) PrintDigest(section, r.sim_s * 1e6, r.crit_s * 1e6);
    }
  }

  // Fig15c: Mutable-bitmap upserts with 20% updates on the serial engine
  // over a 128 KiB buffer cache, about half the size of the primary-key
  // index. Every upsert's uniqueness check and bitmap probe read the pk
  // index, so the row's cost is dominated by how many pk-index pages stay
  // cached while merges stream their inputs. Its DIGEST line pins that
  // (merges read around the cache, see lsm/merge_cursor.h).
  PrintHeader("Fig15c", "pk-index residency: mutable-bitmap, 20% upd, "
                        "128 KiB cache");
  {
    const StrategyCase sc{"mutable-bitmap", MaintenanceStrategy::kMutableBitmap,
                          false};
    const IngestResult r =
        RunIngest(sc, {.cache_pages = 32, .update_ratio = 0.2});
    char extra[64];
    std::snprintf(extra, sizeof(extra), "evictions=%llu",
                  static_cast<unsigned long long>(r.cache_evictions));
    PrintRow(sc.name, "pk-cache", r.total_s, extra);
    const std::string section = "fig15c-pk-cache";
    report.AddSection(section, g_ops, r.sim_s * 1e6, r.crit_s * 1e6);
    if (flags.tiny) {
      PrintDigest(section, r.sim_s * 1e6, r.crit_s * 1e6, extra);
    }
  }

  // Multi-queue device (the partitioned-merge section): same workload, NVMe
  // profile with 1 vs N queues. With N > 1, maintenance
  // tasks are bound to queues by task index and every merge of at least
  // 1 MiB reads its inputs as N key-range partitions, one per queue (see
  // LsmTree::BuildMerge; the deleted-key row's secondary merges take the
  // same path, with their obsolescence check as a per-entry hook). The
  // reported crit_s — the device's critical
  // path — must sit strictly below the queues=1 simulated time of the same
  // workload: flushes, per-tree merges, and partition scans genuinely
  // overlap in modeled time. Both sides run one host thread, so the
  // overlap is the device's alone.
  PrintHeader("Fig15-mq",
              "partitioned merges on NVMe, serial engine: queues=1 sim vs "
              "queues=" + std::to_string(flags.queues) + " critical path");
  const StrategyCase mq_cases[] = {
      core_cases[0], core_cases[1], core_cases[2], core_cases[3],
      {"deleted-key B+tree", MaintenanceStrategy::kDeletedKeyBtree, false},
  };
  for (const auto& sc : mq_cases) {
    IngestCase mq{.num_secondary = 3, .queues = 1, .nvme = true};
    const IngestResult q1 = RunIngest(sc, mq);
    mq.queues = flags.queues;
    const IngestResult qn = RunIngest(sc, mq);
    char extra[192];
    std::snprintf(extra, sizeof(extra),
                  "sim_s(q=1) %.3f -> crit_s(q=%u) %.3f (%.2fx overlap) "
                  "wall_s %.3f -> %.3f%s",
                  q1.sim_s, flags.queues, qn.crit_s,
                  qn.crit_s > 0 ? q1.sim_s / qn.crit_s : 0.0, q1.wall_s,
                  qn.wall_s, qn.crit_s < q1.sim_s ? "" : "  [NO OVERLAP]");
    PrintRow(sc.name, "q=" + std::to_string(flags.queues), qn.crit_s, extra);
  }

  // Machine-readable report: the serial rows' modeled costs plus the
  // registry snapshot accumulated across every case above.
  if (g_metrics != nullptr) {
    report.SetSnapshot(g_metrics->Snapshot());
    if (!report.WriteTo(flags.metrics_json)) return 1;
  }
  return 0;
}
