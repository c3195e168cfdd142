// Ablation: merge-policy choice (§2.1 background). The paper fixes a tiering
// policy with size ratio 1.2; this ablation sweeps the ratio and compares
// against leveling, showing the classic trade-off: tiering favors ingestion
// (fewer rewrite passes), leveling favors queries (fewer components).
#include "bench_util.h"

namespace auxlsm {
namespace bench {
namespace {

constexpr uint64_t kOps = 25000;

struct Outcome {
  double ingest_seconds;
  double query_seconds;
  size_t components;
};

Outcome Run(std::shared_ptr<MergePolicy> policy, const char* /*name*/) {
  Env env(BenchEnv(/*cache_mb=*/4));
  DatasetOptions o;
  o.strategy = MaintenanceStrategy::kEager;
  o.mem_budget_bytes = 512 << 10;
  // Freeze the dataset's built-in tiering policy (every flushed component
  // exceeds a 1-byte cap and is never auto-merged); the sweep's policy is
  // then the only merge driver.
  o.max_mergeable_bytes = 1;
  Dataset ds(&env, o);
  TweetGenerator gen;
  Random rng(3);
  Stopwatch ingest_sw(&env, ds.wal());
  for (uint64_t i = 0; i < kOps; i++) {
    if (gen.generated() > 0 && rng.Bernoulli(0.1)) {
      if (!ds.Upsert(gen.Update(rng.Uniform(gen.generated()))).ok()) {
        std::abort();
      }
    } else {
      if (!ds.Upsert(gen.Next()).ok()) std::abort();
    }
    // Manual policy-driven merges on the primary index family.
    if (i % 1000 == 999) {
      for (LsmTree* t : {ds.primary(), ds.primary_key_index(),
                         ds.secondary(0)->tree.get()}) {
        while (true) {
          auto comps = t->Components();
          std::vector<ComponentSizeInfo> sizes;
          for (const auto& c : comps) {
            sizes.push_back(ComponentSizeInfo{c->size_bytes()});
          }
          const MergeRange r = policy->PickMerge(sizes);
          if (r.empty() || r.count() < 2) break;
          if (!t->MergeComponentRange(r).ok()) std::abort();
        }
      }
    }
  }
  const double ingest = ingest_sw.Seconds();

  SecondaryQueryOptions q;
  Stopwatch query_sw(&env);
  for (uint64_t user = 0; user < 5000; user += 500) {
    QueryResult res;
    if (!ds.QueryUserRange(user, user + 200, q, &res).ok()) std::abort();
  }
  return Outcome{ingest, query_sw.Seconds(),
                 ds.primary()->NumDiskComponents()};
}

}  // namespace
}  // namespace bench
}  // namespace auxlsm

int main() {
  using namespace auxlsm::bench;
  using auxlsm::LevelingMergePolicy;
  using auxlsm::TieringMergePolicy;
  PrintHeader("Ablation", "merge policy: tiering ratio sweep vs leveling");
  struct Case {
    const char* name;
    std::shared_ptr<auxlsm::MergePolicy> policy;
  };
  const Case cases[] = {
      {"tiering ratio=1.2",
       std::make_shared<TieringMergePolicy>(1.2, 1u << 30)},
      {"tiering ratio=2.0",
       std::make_shared<TieringMergePolicy>(2.0, 1u << 30)},
      {"tiering ratio=4.0",
       std::make_shared<TieringMergePolicy>(4.0, 1u << 30)},
      {"leveling ratio=10",
       std::make_shared<LevelingMergePolicy>(10.0, 256u << 10)},
  };
  for (const auto& c : cases) {
    const Outcome out = Run(c.policy, c.name);
    char extra[96];
    std::snprintf(extra, sizeof(extra), "query_s=%.4f components=%zu",
                  out.query_seconds, out.components);
    PrintRow(c.name, "ingest", out.ingest_seconds, extra);
  }
  return 0;
}
