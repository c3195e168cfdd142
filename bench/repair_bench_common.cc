#include "repair_bench_common.h"

#include <cstdio>

namespace auxlsm {
namespace bench {

void RunRepairBench(RepairMethod method, const RepairBenchConfig& cfg) {
  Env env(BenchEnv(/*cache_mb=*/8));
  DatasetOptions o;
  o.strategy = MaintenanceStrategy::kValidation;
  o.merge_repair = false;  // repairs are triggered explicitly
  o.repair_bloom_opt = method == RepairMethod::kSecondaryBloom;
  o.correlated_merges = method == RepairMethod::kSecondaryBloom;
  o.mem_budget_bytes = 1 << 20;
  o.max_mergeable_bytes = 8 << 20;
  o.secondary_indexes.clear();
  for (size_t i = 0; i < cfg.num_secondaries; i++) {
    o.secondary_indexes.push_back(SecondaryIndexDef::SyntheticAttribute(i));
  }
  Dataset ds(&env, o);
  TweetGenOptions go;
  if (cfg.record_bytes > 0) {
    go.min_message_bytes = cfg.record_bytes;
    go.max_message_bytes = cfg.record_bytes;
  }
  TweetGenerator gen(go);

  UpsertWorkloadOptions w;
  w.num_ops = cfg.increment;
  w.update_ratio = cfg.update_ratio;

  for (int step = 1; step <= cfg.steps; step++) {
    WorkloadReport report;
    if (!RunUpsertWorkload(&ds, &gen, w, &report).ok()) std::abort();
    if (!ds.FlushAll().ok()) std::abort();

    Stopwatch sw(&env);
    switch (method) {
      case RepairMethod::kPrimary:
        if (!ds.PrimaryRepair(false).ok()) std::abort();
        break;
      case RepairMethod::kPrimaryMerge:
        if (!ds.PrimaryRepair(true).ok()) std::abort();
        break;
      case RepairMethod::kSecondary:
      case RepairMethod::kSecondaryBloom:
        if (!ds.RepairAllSecondaries().ok()) std::abort();
        break;
    }
    // time_s = wall + modeled; io_s (modeled only) is deterministic, so it
    // is the figure to compare across runs and commits.
    char extra[64];
    std::snprintf(extra, sizeof(extra), "io_s=%.4f", sw.IoSeconds());
    PrintRow(RepairMethodName(method),
             std::to_string(step * cfg.increment / 1000) + "K", sw.Seconds(),
             extra);
  }
}

}  // namespace bench
}  // namespace auxlsm
