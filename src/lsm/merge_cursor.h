// K-way reconciling merge over disk components (flush output is handled
// separately since memtable snapshots are already owned vectors).
//
// Yields entries in ascending key order; for identical keys the entry from
// the newest component wins (out-of-place update semantics, §2.1). Entries
// marked invalid by a component's validity bitmap are skipped, which is how
// merges physically drop entries that repair or the Mutable-bitmap strategy
// marked obsolete (Fig 7/§5).
//
// Cache policy (Options::fill_cache): a merge's input components are
// retired by the merge that reads them, so their pages are dead once it
// installs. Every such merge — plain, deleted-key, merge repair and the
// three §5.3 builds — runs through the build half of
// LsmTree::MergeComponents (LsmTree::BuildMerge, one cursor per key-range
// partition), whose cursors read their inputs around the buffer cache
// (no-fill scans, BufferCache::ReadNoFill). Streaming them through the shared LRU would evict the hot pages first,
// above all the small primary-key index that every upsert's uniqueness check
// and Mutable-bitmap probe reads. Every other cursor fills: query and scan
// streams, num_records, and repair's primary-key index validation scan,
// whose components stay live and are the hot pages. Each no-fill input
// iterator holds a private window of at most readahead_pages + 1 pages, so a
// k-way merge holds k windows.
#pragma once

#include <memory>
#include <vector>

#include "lsm/component.h"

namespace auxlsm {

class MergeCursor {
 public:
  struct Options {
    uint32_t readahead_pages = 32;
    /// false = read the inputs around the buffer cache (see above); only
    /// for merges that retire their inputs.
    bool fill_cache = true;
    /// Skip entries whose component bitmap bit is set.
    bool respect_bitmaps = true;
    /// Drop anti-matter entries (legal only when the merge includes the
    /// oldest component of the tree).
    bool drop_antimatter = false;
    /// Per-component bitmap overrides (e.g. Side-file snapshots); parallel
    /// to the components vector; null entries fall back to live bitmaps.
    std::vector<std::shared_ptr<Bitmap>> bitmap_overrides;
    /// Key bounds; empty = unbounded. lower_bound is inclusive;
    /// upper_bound is inclusive unless upper_bound_exclusive is set
    /// (key-range merge partitions use [split[i-1], split[i]) ranges).
    std::string lower_bound;
    std::string upper_bound;
    bool upper_bound_exclusive = false;
  };

  /// components must be ordered newest first.
  MergeCursor(std::vector<DiskComponentPtr> newest_first, Options options);

  Status Init();
  bool Valid() const { return valid_; }
  Status Next();

  Slice key() const { return cur_key_; }
  Slice value() const { return cur_value_; }
  Timestamp ts() const { return cur_ts_; }
  bool antimatter() const { return cur_antimatter_; }
  /// Which input component (index into the newest-first vector) produced the
  /// current entry.
  size_t source() const { return cur_source_; }
  /// Ordinal of the current entry within its source component.
  uint64_t source_ordinal() const { return cur_ordinal_; }

 private:
  // Advances the winner selection; skips bitmap-invalid and (optionally)
  // anti-matter entries.
  Status FindNext();
  bool EntryVisible(size_t i) const;

  std::vector<DiskComponentPtr> components_;
  Options options_;
  std::vector<Btree::Iterator> iters_;
  bool valid_ = false;
  std::string cur_key_, cur_value_;
  Timestamp cur_ts_ = 0;
  bool cur_antimatter_ = false;
  size_t cur_source_ = 0;
  uint64_t cur_ordinal_ = 0;
};

}  // namespace auxlsm
