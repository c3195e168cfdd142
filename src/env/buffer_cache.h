// Lock-striped LRU buffer cache over (file, page) with optional read-ahead.
//
// The cache is read-through: a miss faults the page in from the PageStore and
// charges the IoEngine (on the faulting thread's device queue); read-ahead
// faults in the following pages of the same file at sequential-transfer cost,
// modelling OS/disk read-ahead the paper relies on for scans (4MB read-ahead
// in §6.1).
//
// Concurrency: the cache is split into `shards` independent stripes, each
// with its own mutex, LRU list, and page index, selected by a hash of
// (file_id, page_no). Parallel maintenance (concurrent flushes/merges) and
// lookups therefore contend per-stripe instead of on one global mutex.
// shards == 1 reproduces the single-LRU behavior exactly (one global
// eviction order), which keeps the simulated I/O costs of serial runs
// bit-for-bit comparable with the original implementation.
//
// Each shard additionally keeps a per-file index of its resident pages, so
// Evict(file_id) — called when a retired component's file is deleted — costs
// O(resident pages of that file), not O(cache size).
//
// No-fill reads (ReadNoFill) serve scans whose input pages are dead once the
// scan ends — merges read components that the same merge retires. They
// charge exactly what Read charges: a resident page is a hit (without LRU
// promotion); a miss charges the page and each non-resident read-ahead page
// with the same ChargeRead sequence, and copies resident read-ahead pages
// uncharged. But nothing is admitted: the pages land in the caller's private
// window, so a merge streaming its inputs cannot evict the hot pages of other
// indexes (the small primary-key index the uniqueness check and the
// Mutable-bitmap strategy probe per upsert). This is LevelDB/RocksDB's
// `ReadOptions::fill_cache = false` for compaction inputs.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "env/page_store.h"
#include "io/io_engine.h"

namespace auxlsm {

class FaultInjector;

/// Aggregated cache counters (summed over shards).
struct BufferCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  /// Pages no-fill reads served or read without admitting them.
  uint64_t bypassed = 0;
};

class BufferCache {
 public:
  /// capacity_pages == 0 disables caching entirely. `shards` stripes the
  /// cache; the capacity is divided evenly across shards.
  BufferCache(PageStore* store, IoEngine* io, size_t capacity_pages,
              size_t shards = 1);

  /// Reads a page through the cache. readahead_pages > 0 additionally faults
  /// in up to that many following pages of the same file on a miss.
  Status Read(uint32_t file_id, uint32_t page_no, PageData* out,
              uint32_t readahead_pages = 0);

  /// Reads a page without admitting anything to the cache. `*window` is
  /// replaced by a run of consecutive pages starting at page_no: only that
  /// page when it is resident (a hit) or the cache is disabled, else (a miss)
  /// it and up to readahead_pages following pages, charged exactly as Read
  /// would charge them. Resident pages keep their LRU position.
  Status ReadNoFill(uint32_t file_id, uint32_t page_no,
                    uint32_t readahead_pages, std::vector<PageData>* window);

  /// Drops all cached pages of a file (called when a component is deleted).
  void Evict(uint32_t file_id);

  /// Drops everything (used by benchmarks to model a cold cache).
  void Clear();

  size_t size() const;
  size_t capacity() const {
    return capacity_.load(std::memory_order_relaxed);
  }
  size_t shards() const { return shards_.size(); }
  void set_capacity(size_t capacity_pages);

  BufferCacheStats stats() const;

  /// Failpoint hook for miss fills (fault/fault_injector.h); the Env wires
  /// this when EnvOptions::fault_injector is set. Null = no-op branch.
  void set_fault_injector(FaultInjector* fault) { fault_ = fault; }

 private:
  struct Key {
    uint32_t file_id;
    uint32_t page_no;
  };
  struct Entry {
    Key key;
    PageData data;
  };
  using LruList = std::list<Entry>;
  /// page_no -> LRU position, per file: lookup is two hash probes, and
  /// deleting a file touches only its own resident pages.
  using FilePages = std::unordered_map<uint32_t, LruList::iterator>;

  struct Shard {
    // Held across miss faults into the PageStore and DiskModel charges,
    // hence ranked above both (kCacheShard < kPageStore < kDiskModel).
    mutable Mutex mu{lockrank::kCacheShard, "env.cache_shard"};
    size_t capacity GUARDED_BY(mu) = 0;
    size_t size GUARDED_BY(mu) = 0;
    LruList lru GUARDED_BY(mu);  // front = most recent
    std::unordered_map<uint32_t, FilePages> files GUARDED_BY(mu);
    uint64_t hits GUARDED_BY(mu) = 0;
    uint64_t misses GUARDED_BY(mu) = 0;
    uint64_t evictions GUARDED_BY(mu) = 0;
    uint64_t bypassed GUARDED_BY(mu) = 0;
  };

  Shard& ShardOf(uint32_t file_id, uint32_t page_no);
  // The following helpers run with the shard's mutex held.
  /// Finds a resident page; `promote` moves it to the LRU front.
  bool LookupLocked(Shard& s, const Key& k, PageData* out, bool promote = true)
      REQUIRES(s.mu);
  void InsertLocked(Shard& s, const Key& k, PageData data) REQUIRES(s.mu);
  void EvictOverflowLocked(Shard& s) REQUIRES(s.mu);
  /// A miss fault: the kCacheMissFill consult, the store read and its
  /// charge. Admits nothing.
  Status ReadUncached(uint32_t file_id, uint32_t page_no, PageData* out);
  /// Read-ahead after a miss on page_no: faults in up to readahead_pages
  /// following pages at sequential cost. window == nullptr admits them
  /// (resident ones are promoted); otherwise they are appended to *window
  /// and resident ones keep their LRU position.
  void ReadAhead(uint32_t file_id, uint32_t page_no, uint32_t readahead_pages,
                 std::vector<PageData>* window);

  PageStore* const store_;
  IoEngine* const io_;
  FaultInjector* fault_ = nullptr;
  std::atomic<size_t> capacity_;

  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace auxlsm
