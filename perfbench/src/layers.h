// Per-layer attribution from outside the engine.
//
// Two sources feed the per-layer metrics:
//  - counts and ratios from the stats structs the engine already exports,
//    diffed over a window of the workload (SetWindowLayerMetrics);
//  - `_ns` timings from replaying one layer's public function on inputs the
//    workload itself produced: the records it wrote, the keys it looked up
//    and the disk components the run built (ReplayLookup, ReplayWrites).
//
// The replays run after every end-to-end number has been taken, so they can
// disturb caches and counters freely.
#pragma once

#include <string>
#include <vector>

#include "bench.h"
#include "lsm/lsm_tree.h"

namespace perfbench {

/// A stat window: the engine's counters at both ends of an interval plus
/// the workload's own operation counts in it.
struct Window {
  EngineStats before, after;
  uint64_t ops = 0;         ///< workload operations in the window
  uint64_t writes = 0;      ///< user writes (upserts + deletes)
  uint64_t user_bytes = 0;  ///< record bytes those writes carried
};

/// Sets the count and ratio metrics of every layer that a window of engine
/// stats can attribute. Write-side ratios (core.lookups_per_write, txn.*,
/// lsm.{flushes, merges}, exec.retries, cache.invalidations_per_write) come
/// from `writes`; per-operation ratios (env.*, io.*, the other tuple-cache
/// counts) from `ops`. The two are the same window unless the measured
/// phase does not write (then `writes` is the preload).
void SetWindowLayerMetrics(const Window& ops, const Window& writes,
                           Report* out);

/// Outcome of replaying point lookups against one LSM tree.
struct LookupReplay {
  double lsm_get_ns = 0;       ///< LsmTree::Get per key
  double btree_get_ns = 0;     ///< Btree::Get per call
  double bloom_probe_ns = 0;   ///< BlockedBloomFilter::MayContain per probe
  double probes_per_lookup = 0;
  double btree_gets_per_lookup = 0;
  double pages_per_get = 0;    ///< page accesses per Btree::Get
  double fp_rate = 0;          ///< bloom positives on keys known absent
};

/// Replays `keys` (encoded primary keys the workload looked up) against
/// `tree`: times LsmTree::Get, re-walks the tree's components the way the
/// LSM lookup does (memory first, then newest component first, Bloom check,
/// B-tree descent) timing each step, and measures the Bloom filters'
/// false-positive rate on `absent_keys`.
LookupReplay ReplayLookup(auxlsm::LsmTree* tree, Env* env,
                          const std::vector<std::string>& keys,
                          const std::vector<std::string>& absent_keys,
                          bool blocked_bloom);

/// Outcome of replaying writes into the memory component and the log.
struct WriteReplay {
  double mem_put_ns = 0;          ///< Memtable::Put per entry
  double mem_get_ns = 0;          ///< Memtable::Get per entry
  double append_commit_ns = 0;    ///< Wal::AppendCommit per commit
};

/// Replays `records` into a fresh Memtable and a fresh Wal; the log replay
/// runs `writer_threads` committers concurrently (group commit iff > 1), as
/// the workload's dataset does.
WriteReplay ReplayWrites(const std::vector<TweetRecord>& records,
                         size_t writer_threads);

/// Counts memory-component puts per user write: flushes the dataset, applies
/// `probe` writes directly (fresh records and updates of flushed keys, so no
/// put overwrites another), and divides the memtable entries they produced
/// by the writes. Also times each Dataset::Upsert (core.upsert_ns).
struct WriteProbe {
  double puts_per_write = 0;
  double upsert_ns = 0;
  bool ok = false;
};
WriteProbe ProbeWrites(Dataset* ds, const std::vector<TweetRecord>& probe);

/// Secondary user_id range queries issued directly through
/// Dataset::NewCursor, for workloads whose measured phase does not open
/// cursors itself. `limit`/`page_size` 0 = unlimited / one page.
struct QueryProbe {
  double open_ns = 0;   ///< NewCursor per query
  double next_ns = 0;   ///< QueryCursor::Next per call
  double query_ns = 0;  ///< NewCursor to drained, per query
  double rows_per_query = 0;
  double candidates_per_query = 0;
  double rows_examined_per_row = 0;  ///< candidates / rows
  double validated_out_frac = 0;     ///< validated_out / candidates
  std::vector<std::string> fetched_keys;  ///< primary keys of returned rows
};
QueryProbe ProbeQueries(Dataset* ds, uint64_t seed, uint64_t user_domain,
                        uint64_t width, size_t queries, uint64_t limit,
                        size_t page_size);

/// Encoded primary keys no run ever writes (counters past every id the
/// generators use), for Bloom false-positive rates.
std::vector<std::string> AbsentKeys(uint64_t seed, size_t n = 20000);

/// Records for a write probe: fresh records and, with probability
/// `update_fraction`, updates of distinct keys among the first `preload`
/// generated ids.
std::vector<TweetRecord> ProbeRecords(uint64_t seed, const TextPool& pool,
                                      uint64_t preload, double update_fraction,
                                      uint64_t user_domain, size_t msg_bytes,
                                      size_t n);

/// Times Dataset::GetById over `ids`: core.get_ns.
void ProbeGets(Dataset* ds, const std::vector<uint64_t>& ids, Report* out);

/// Report setters for one replay or probe each.
void SetLookupMetrics(const LookupReplay& r, Report* out);
void SetWriteReplayMetrics(const WriteReplay& r, Report* out);
void SetQueryProbeMetrics(const QueryProbe& q, Report* out);
/// Reports 0 for the server layer (and the tuple-cache lookup) on
/// workloads that do not use them.
void SetUnusedServerMetrics(Report* out);

/// Fills core.upsert_residual_frac and the share.write.* / share.query.*
/// metrics: each layer's share of one write and one query, from the replay
/// costs times the per-operation call counts, the rest left to core.
void SetShareMetrics(Report* out, const LookupReplay& write_lookup,
                     const LookupReplay& query_fetch,
                     const LookupReplay& query_validate,
                     double rows_per_query, double candidates_per_query,
                     double query_ns);

/// Tracks disk components across polls to attribute bytes written by
/// merges: a component first seen whose timestamp range covers an earlier
/// seen component of the same tree is a merge output.
class MergeTracker {
 public:
  explicit MergeTracker(Dataset* ds);
  void Poll();
  uint64_t merge_bytes() const { return merge_bytes_; }

 private:
  struct Seen {
    const void* ptr;
    uint64_t min_ts, max_ts;
  };
  std::vector<auxlsm::LsmTree*> trees_;
  std::vector<std::vector<Seen>> seen_;
  uint64_t page_size_;
  uint64_t merge_bytes_ = 0;
};

}  // namespace perfbench
