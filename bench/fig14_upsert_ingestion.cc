// Figure 14 (§6.3.2): upsert ingestion throughput of the maintenance
// strategies under no updates, 50% uniform updates, and 50% Zipf updates.
#include "bench_util.h"

namespace auxlsm {
namespace bench {
namespace {

constexpr uint64_t kOps = 40000;

struct StrategyCase {
  const char* name;
  MaintenanceStrategy strategy;
  bool merge_repair;
};

void RunCase(const StrategyCase& sc, double update_ratio,
             UpdateDistribution dist, const char* dist_name) {
  Env env(BenchEnv(/*cache_mb=*/4));
  DatasetOptions o;
  o.strategy = sc.strategy;
  o.merge_repair = sc.merge_repair;
  o.mem_budget_bytes = 1 << 20;
  o.max_mergeable_bytes = 8 << 20;
  Dataset ds(&env, o);
  TweetGenerator gen;
  UpsertWorkloadOptions w;
  w.num_ops = kOps;
  w.update_ratio = update_ratio;
  w.distribution = dist;
  WorkloadReport report;
  Stopwatch sw(&env, ds.wal());
  if (!RunUpsertWorkload(&ds, &gen, w, &report).ok()) std::abort();
  const double total = sw.Seconds();
  char extra[160];
  std::snprintf(extra, sizeof(extra),
                "throughput=%.0f ops/s lookups=%llu flushes=%llu merges=%llu",
                double(kOps) / total,
                (unsigned long long)ds.ingest_stats().ingest_point_lookups,
                (unsigned long long)ds.ingest_stats().flushes,
                (unsigned long long)ds.ingest_stats().merges);
  PrintRow(sc.name, dist_name, total, extra);
}

}  // namespace
}  // namespace bench
}  // namespace auxlsm

int main() {
  using namespace auxlsm::bench;
  PrintHeader("Fig14", "upsert ingestion performance by strategy");
  PrintNote("40K upserts; update ratios 0% / 50% uniform / 50% zipf");
  const StrategyCase cases[] = {
      {"eager", auxlsm::MaintenanceStrategy::kEager, false},
      {"validation (no repair)", auxlsm::MaintenanceStrategy::kValidation,
       false},
      {"validation", auxlsm::MaintenanceStrategy::kValidation, true},
      {"mutable-bitmap", auxlsm::MaintenanceStrategy::kMutableBitmap, false},
  };
  for (const auto& sc : cases) {
    RunCase(sc, 0.0, auxlsm::UpdateDistribution::kUniform, "no-update");
  }
  for (const auto& sc : cases) {
    RunCase(sc, 0.5, auxlsm::UpdateDistribution::kUniform, "50%-uniform");
  }
  for (const auto& sc : cases) {
    RunCase(sc, 0.5, auxlsm::UpdateDistribution::kZipf, "50%-zipf");
  }
  return 0;
}
