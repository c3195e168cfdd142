// Shared driver for the repair experiments (Figures 20-22, §6.5): ingest
// records in increments; after each increment, pause and run a full repair
// to bring all secondary indexes up-to-date, reporting the repair time as
// data accumulates. Repairs run one index after another on the calling
// thread; each row prints time_s (wall + modeled) and io_s (modeled only,
// deterministic).
#pragma once

#include "bench_util.h"

namespace auxlsm {
namespace bench {

enum class RepairMethod {
  kPrimary,        // DELI-style scan of the primary index
  kPrimaryMerge,   // DELI with a full primary merge as a by-product
  kSecondary,      // §4.4 standalone repair via the primary key index
  kSecondaryBloom  // §4.4 + the Bloom filter optimization
};

inline const char* RepairMethodName(RepairMethod m) {
  switch (m) {
    case RepairMethod::kPrimary: return "primary repair";
    case RepairMethod::kPrimaryMerge: return "primary repair (merge)";
    case RepairMethod::kSecondary: return "secondary repair";
    case RepairMethod::kSecondaryBloom: return "secondary repair (bf)";
  }
  return "?";
}

struct RepairBenchConfig {
  uint64_t increment = 10000;     ///< records per ingestion step
  int steps = 5;                  ///< number of repair measurements
  double update_ratio = 0.0;
  size_t record_bytes = 0;        ///< 0 = the default 450-550B tweets
  size_t num_secondaries = 1;
};

/// Runs the incremental ingest-then-repair loop and prints one row per step.
void RunRepairBench(RepairMethod method, const RepairBenchConfig& cfg);

}  // namespace bench
}  // namespace auxlsm
