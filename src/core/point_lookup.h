// Index-to-index navigation: bulk point lookups against an LSM tree (§3.2).
//
// The naive algorithm sorts the keys and looks each up independently (every
// lookup descends every component from the root, so leaf pages of different
// components interleave and reads come out random). The batched algorithm
// divides the sorted keys into batches and, per batch, visits components one
// by one from newest to oldest, probing only still-unfound keys — so each
// component's leaf pages are touched in ascending key order (sequential), at
// the price of results coming back out of primary-key order.
#pragma once

#include <cstdint>
#include <vector>

#include "lsm/lsm_tree.h"

namespace auxlsm {

struct FetchRequest {
  std::string pk;
  /// Component-ID propagation (pID): components with max_ts below this bound
  /// cannot contain the record and are skipped for this key.
  Timestamp prune_min_ts = 0;
};

struct PointLookupOptions {
  bool batched = true;
  size_t batch_memory_bytes = 16u << 20;
  /// Stateful B+-tree cursors with exponential search within a batch.
  bool stateful_btree_lookup = true;
  bool use_blocked_bloom = true;
  /// Raw mode: return the newest physical entry (including anti-matter and
  /// bitmap-invalid ones are reported as dead). Used by timestamp validation
  /// against the primary key index.
  bool raw = false;
  /// Live-entry quota: stop probing once this many *alive* entries have been
  /// appended. The output is then exactly the first `max_alive` alive
  /// entries of the unbounded call's discovery-order output (plus, in raw
  /// mode, the dead entries discovered before the last of them); the
  /// memtable pass, the batched per-component loop (across batches) and the
  /// naive per-key loop all stop at that point, so the requests after it
  /// cost no Bloom probe and no page read. Requests left without an answer
  /// are reported in PointLookupStats::unresolved. Only callers that emit
  /// the fetched entries in discovery order and filter none of them may set
  /// it (the secondary query's Limit(k) fetch, query.cc).
  size_t max_alive = SIZE_MAX;
};

struct FetchedEntry {
  std::string pk;
  std::string value;
  Timestamp ts = 0;
  bool alive = true;  ///< false: newest entry was anti-matter/bitmap-deleted
};

struct PointLookupStats {
  uint64_t keys = 0;
  uint64_t found = 0;
  uint64_t bloom_probes = 0;
  uint64_t bloom_negatives = 0;
  uint64_t tree_probes = 0;
  uint64_t components_skipped_by_id = 0;  ///< pID pruning
  uint64_t batches = 0;
  /// Requests neither found nor proven absent because max_alive stopped the
  /// lookup first; keys - unresolved requests were resolved. 0 when the
  /// quota never bound.
  uint64_t unresolved = 0;
};

/// A pinned read view of one LSM tree: its memtable set and disk-component
/// list captured once, memtables before components (the flush-race ordering
/// every query path observes). Disk components are immutable and their files
/// stay alive while the view holds them; memtable snapshots pin the
/// shared_ptrs, so a view remains self-consistent while concurrent flushes,
/// merges, and component retirement proceed. Note the *active* memtable is
/// still live — lookups through a view see writes that land after capture,
/// the same read-latest semantics as querying the tree directly.
///
/// QueryCursor executors capture their views at open and run every later
/// pull against them, which is what makes paginated reads stable across
/// concurrent maintenance.
struct LsmReadView {
  std::vector<std::shared_ptr<Memtable>> mems;  ///< newest first
  std::vector<DiskComponentPtr> components;     ///< newest first

  static LsmReadView Capture(const LsmTree& tree) {
    LsmReadView v;
    v.mems = tree.MemtableSet();  // before Components(): flush-race ordering
    v.components = tree.Components();
    return v;
  }

  /// Searches the memory components newest first; first hit wins (including
  /// anti-matter entries).
  Status GetFromMem(const Slice& key, OwnedEntry* out) const {
    for (const auto& m : mems) {
      if (m->Get(key, out).ok()) return Status::OK();
    }
    return Status::NotFound();
  }
};

/// Looks up every request in the captured view. Requests should be sorted by
/// pk ascending — batches are carved off the request vector in order, so
/// unsorted input degrades batch locality; within a batch the batched
/// algorithm re-sorts its pending keys itself before probing components.
/// Results are appended to *out in discovery order — primary-key order for
/// the naive algorithm, batch/component order for the batched one. Dead
/// entries (anti-matter / bitmap-invalid newest versions) are only appended
/// in raw mode. options.max_alive truncates the output to a prefix of that
/// order (see PointLookupOptions).
Status BulkPointLookup(const LsmReadView& view,
                       const std::vector<FetchRequest>& requests,
                       const PointLookupOptions& options,
                       std::vector<FetchedEntry>* out,
                       PointLookupStats* stats = nullptr);

/// Convenience overload: captures a view of `tree` and looks up through it.
Status BulkPointLookup(const LsmTree& tree,
                       const std::vector<FetchRequest>& requests,
                       const PointLookupOptions& options,
                       std::vector<FetchedEntry>* out,
                       PointLookupStats* stats = nullptr);

class TupleCache;

/// Tuple-cache-aware reconciling point lookup against the primary index
/// (cache/tuple_cache.h, PR 7). Probes the cache's point space first — a hit
/// serves the record (or its proven absence) with no tree descent. On a miss
/// the cache epoch is captured *before* the tree lookup, the reconciling
/// Get runs, and the validated outcome (value or NotFound) is admitted.
/// `cache` may be null: the call is then exactly tree.Get. Returns OK with
/// *found = false for a missing key (NotFound is folded, unlike tree.Get).
Status CachedPrimaryGet(TupleCache* cache, const LsmTree& tree, uint64_t id,
                        const GetOptions& opts, bool* found,
                        std::string* value, bool* from_cache);

}  // namespace auxlsm
