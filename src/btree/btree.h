// Read side of the immutable disk B+-tree: point lookups, range iteration.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "btree/btree_builder.h"
#include "btree/btree_page.h"
#include "common/result.h"
#include "env/env.h"

namespace auxlsm {

class Btree {
 public:
  Btree(Env* env, BtreeMeta meta) : env_(env), meta_(std::move(meta)) {}

  const BtreeMeta& meta() const { return meta_; }
  Env* env() const { return env_; }

  /// Point lookup. Returns NotFound if the key is absent. Anti-matter
  /// entries are returned (with entry.antimatter == true); reconciliation is
  /// the LSM layer's job.
  Status Get(const Slice& key, LeafEntry* entry, std::string* backing) const;

  /// Like Get but also reports the entry's ordinal position within the
  /// component (for validity-bitmap addressing).
  Status GetWithOrdinal(const Slice& key, LeafEntry* entry,
                        std::string* backing, uint64_t* ordinal) const;

  /// Forward iterator over the tree. Valid() is false when exhausted.
  /// With fill_cache off, leaves are read around the buffer cache into the
  /// iterator's private page window (Env::ReadPageNoFill): same charges and
  /// failpoint consults as a filling scan, but the leaves never displace
  /// cached pages. Seek's root-to-leaf descent still reads through the cache.
  class Iterator {
   public:
    Iterator(const Btree* tree, uint32_t readahead_pages, bool fill_cache)
        : tree_(tree), readahead_(readahead_pages), fill_cache_(fill_cache) {}

    Status SeekToFirst();
    Status Seek(const Slice& target);
    Status Next();
    bool Valid() const { return valid_; }

    Slice key() const { return entry_.key; }
    Slice value() const { return entry_.value; }
    uint64_t ts() const { return entry_.ts; }
    bool antimatter() const { return entry_.antimatter; }
    /// Ordinal of the current entry within the component.
    uint64_t ordinal() const;

   private:
    Status LoadLeaf(uint32_t page_no);
    Status DecodeCurrent();

    const Btree* tree_;
    uint32_t readahead_;
    bool fill_cache_;
    PageWindow window_;  // no-fill leaves; unused when fill_cache_
    bool valid_ = false;
    uint32_t leaf_page_ = 0;
    BtreePage page_;
    int slot_ = 0;
    LeafEntry entry_;
  };

  Iterator NewIterator(uint32_t readahead_pages = 0,
                       bool fill_cache = true) const {
    return Iterator(this, readahead_pages, fill_cache);
  }

  /// Returns up to `partitions - 1` keys that split the tree's key space
  /// into roughly equal-sized runs of leaf pages (used by partitioned
  /// merges). Keys are strictly ascending first-keys of evenly spaced
  /// leaves; fewer (possibly zero) keys come back for small trees. The
  /// leaves are read without filling the buffer cache (the caller is a
  /// merge retiring this tree); a miss charges what a cached read would.
  Status ApproximateSplitKeys(size_t partitions,
                              std::vector<std::string>* out) const;

  /// Descends to the leaf that may contain key; returns the loaded page and
  /// its page number. Shared by Get and the stateful cursor.
  Status FindLeaf(const Slice& key, BtreePage* page, uint32_t* page_no) const;

  Status ReadPage(uint32_t page_no, BtreePage* out,
                  uint32_t readahead = 0) const;

 private:
  Env* const env_;
  const BtreeMeta meta_;
};

}  // namespace auxlsm
