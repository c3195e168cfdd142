// Ablation: Bloom filter false-positive rate (the paper fixes 1%, §6.1).
// Sweeps the FPR and reports filter memory, ingestion impact (uniqueness
// checks hit the filters), and point-query cost: a higher FPR saves memory
// but leaks tree probes into components that do not hold the key.
#include "bench_util.h"

namespace auxlsm {
namespace bench {
namespace {

constexpr uint64_t kRecords = 30000;

void Run(double fpr) {
  Env env(BenchEnv(/*cache_mb=*/4));
  DatasetOptions o;
  o.strategy = MaintenanceStrategy::kEager;
  o.bloom_fpr = fpr;
  o.mem_budget_bytes = 512 << 10;
  o.max_mergeable_bytes = 2 << 20;
  Dataset ds(&env, o);
  TweetGenerator gen;
  Stopwatch ingest_sw(&env, ds.wal());
  for (uint64_t i = 0; i < kRecords; i++) {
    bool inserted;
    if (!ds.Insert(gen.Next(), &inserted).ok()) std::abort();
  }
  const double ingest = ingest_sw.Seconds();

  size_t filter_bytes = 0;
  for (const auto& c : ds.primary()->Components()) {
    if (c->bloom() != nullptr) filter_bytes += c->bloom()->memory_bytes();
  }

  // Point queries for absent keys: pure filter-effectiveness measurement.
  Random rng(9);
  Stopwatch query_sw(&env);
  uint64_t misses_probed = 0;
  for (int i = 0; i < 3000; i++) {
    TweetRecord r;
    const IoStats before = env.stats();
    (void)ds.GetById(rng.Next() | 1, &r);  // random key: almost surely absent
    misses_probed += (env.stats() - before).pages_read;
  }
  char extra[128];
  std::snprintf(extra, sizeof(extra),
                "filter_kb=%zu query_s=%.4f false_probe_pages=%llu",
                filter_bytes / 1024, query_sw.Seconds(),
                (unsigned long long)misses_probed);
  PrintRow("fpr=" + std::to_string(fpr), "ingest", ingest, extra);
}

}  // namespace
}  // namespace bench
}  // namespace auxlsm

int main() {
  using namespace auxlsm::bench;
  PrintHeader("Ablation", "Bloom filter false-positive rate sweep");
  for (double fpr : {0.001, 0.01, 0.05, 0.2}) Run(fpr);
  return 0;
}
