// Secondary-index query processing: streaming secondary search ->
// sort(-distinct) -> validation (§4.3) -> primary point lookups (§3.2),
// organized as a pull-based executor behind QueryCursor.
//
// The candidate pipeline runs in *chunks*. An unlimited query processes one
// chunk covering the whole candidate stream — operator order, batching
// boundaries, and therefore result order and counters are exactly the
// pre-cursor implementation's. A Limit(k) query pulls chunks sized to the
// remaining limit and stops pulling once k rows are out, so the secondary
// scan and the validation lookups stop early. The chunk's record fetch stops
// at the k-th live record (PointLookupOptions::max_alive); its output is a
// prefix of the unbounded fetch's, so rows and order are unchanged. Shapes
// whose rows are not a prefix of the fetch order fetch the whole chunk:
// sort_results_by_pk (re-sorts the chunk), direct validation and TimeRange
// (both drop fetched records).
#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "cache/tuple_cache.h"
#include "core/dataset.h"
#include "core/point_lookup.h"
#include "format/key_codec.h"

namespace auxlsm {

namespace {

/// Streaming reconciled scan of one secondary index over composed keys in
/// [lo_sk, hi_sk] (whole secondary-key range): memtable snapshot merged with
/// a disk MergeCursor, anti-matter and bitmap-invalidated entries suppressing
/// older duplicates. The memtable snapshot is materialized and the component
/// list pinned at Open, so the match stream is stable under concurrent
/// flushes and merges.
class SecondaryScanStream {
 public:
  Status Open(const SecondaryIndex& index, const Slice& lo_sk,
              const Slice& hi_sk, uint32_t readahead) {
    sk_width_ = index.def.sk_width;
    lo_ = lo_sk.ToString() + std::string(8, '\0');
    hi_ = hi_sk.ToString() + std::string(8, '\xff');

    // Memtable before components: a concurrent flush moves entries memtable
    // -> new component, so the reverse order could observe neither copy. The
    // duplicate-key resolution below picks the larger timestamp, which also
    // covers a write landing between the two snapshots.
    mem_ = index.tree->MemSnapshotRange(lo_, hi_);
    mem_min_ts_ = index.tree->MemMinTs();

    comps_ = index.tree->Components();
    MergeCursor::Options mo;
    mo.readahead_pages = readahead;
    mo.respect_bitmaps = true;  // repair bitmaps hide cleaned entries
    mo.lower_bound = lo_;
    mo.upper_bound = hi_;
    cursor_ = std::make_unique<MergeCursor>(comps_, mo);
    mi_ = 0;  // support re-Open (cache prefix discarded after a raced write)
    return cursor_->Init();
  }

  /// Pulls the next live match; sets *valid = false at stream end.
  Status Next(SecondaryMatch* out, bool* valid) {
    while (cursor_->Valid() || mi_ < mem_.size()) {
      int cmp;
      if (!cursor_->Valid()) {
        cmp = -1;
      } else if (mi_ >= mem_.size()) {
        cmp = 1;
      } else {
        cmp = Slice(mem_[mi_].key).compare(cursor_->key());
      }
      bool emitted = false;
      if (cmp < 0) {
        emitted = EmitMem(mem_[mi_], out);
        mi_++;
      } else if (cmp > 0) {
        emitted = EmitDisk(out);
        AUXLSM_RETURN_NOT_OK(cursor_->Next());
      } else {
        // Duplicate key: the newer write wins (equal timestamps mean the
        // same entry observed in both snapshots around a flush).
        if (mem_[mi_].ts >= cursor_->ts()) {
          emitted = EmitMem(mem_[mi_], out);
        } else {
          emitted = EmitDisk(out);
        }
        mi_++;
        AUXLSM_RETURN_NOT_OK(cursor_->Next());
      }
      if (emitted) {
        *valid = true;
        return Status::OK();
      }
    }
    *valid = false;
    return Status::OK();
  }

 private:
  bool EmitMem(const OwnedEntry& e, SecondaryMatch* out) {
    if (e.antimatter) return false;
    Slice pk;
    SplitSecondaryKey(e.key, sk_width_, nullptr, &pk);
    *out = SecondaryMatch{pk.ToString(), e.ts, mem_min_ts_};
    return true;
  }
  bool EmitDisk(SecondaryMatch* out) {
    if (cursor_->antimatter()) return false;
    Slice pk;
    SplitSecondaryKey(cursor_->key(), sk_width_, nullptr, &pk);
    *out = SecondaryMatch{
        pk.ToString(), cursor_->ts(),
        comps_.empty() ? 0 : comps_[cursor_->source()]->id().min_ts};
    return true;
  }

  size_t sk_width_ = 8;
  std::string lo_, hi_;
  std::vector<OwnedEntry> mem_;
  Timestamp mem_min_ts_ = 0;
  std::vector<DiskComponentPtr> comps_;
  std::unique_ptr<MergeCursor> cursor_;
  size_t mi_ = 0;
};

/// Sorts candidates by pk; duplicates collapse to the entry with the largest
/// timestamp (Fig 5's sort-distinct).
void SortDistinct(std::vector<SecondaryMatch>* matches) {
  std::sort(matches->begin(), matches->end(),
            [](const SecondaryMatch& a, const SecondaryMatch& b) {
              if (a.pk != b.pk) return a.pk < b.pk;
              return a.ts > b.ts;
            });
  matches->erase(std::unique(matches->begin(), matches->end(),
                             [](const SecondaryMatch& a,
                                const SecondaryMatch& b) {
                               return a.pk == b.pk;
                             }),
                 matches->end());
}

PointLookupOptions MakeLookupOptions(const SecondaryQueryOptions& q) {
  PointLookupOptions o;
  o.batched = q.lookup == SecondaryQueryOptions::LookupAlgo::kBatched;
  o.batch_memory_bytes = q.batch_memory_bytes;
  o.stateful_btree_lookup = q.stateful_btree_lookup;
  o.use_blocked_bloom = q.use_blocked_bloom;
  return o;
}

}  // namespace

// ---------------------------------------------------------------------------
// SecondaryQueryExecutor (a Dataset friend; see dataset.h)
// ---------------------------------------------------------------------------

class SecondaryQueryExecutor final : public QueryExecutor {
 public:
  SecondaryQueryExecutor(Dataset* dataset, SecondaryIndex* index,
                         const ReadQuery& query)
      : dataset_(dataset),
        index_(index),
        query_(query),
        opts_(query.read_options().secondary) {}

  Status Open() override {
    // The projection flag lives on both the builder and the legacy options;
    // either requests keys-only.
    if (query_.index_only()) opts_.index_only = true;

    // Pick the validation method. The Eager strategy keeps secondaries
    // up-to-date so no validation is needed; lazy strategies default to
    // timestamp validation (deleted-key validates against its own trees).
    validation_ = opts_.validation;
    if (validation_ == SecondaryQueryOptions::Validation::kAuto) {
      validation_ =
          dataset_->options_.strategy == MaintenanceStrategy::kEager
              ? SecondaryQueryOptions::Validation::kNone
              : SecondaryQueryOptions::Validation::kTimestamp;
    }

    uint32_t readahead = query_.read_options().readahead_pages;
    if (readahead == 0) readahead = dataset_->options_.scan_readahead_pages;
    uint64_t lo = query_.has_range() ? query_.range_lo() : 0;
    const uint64_t hi = query_.has_range() ? query_.range_hi() : UINT64_MAX;
    range_lo_ = lo;
    range_hi_ = hi;

    // Tuple-cache consult (PR 7). Eligibility is the set of shapes whose
    // cache-served result is provably bit-identical to the legacy pipeline:
    //   - unlimited, row-producing (Limit changes chunk sizing and with it
    //     the row set; count-only/index-only project differently);
    //   - no TimeRange predicate (cached tuples are post-validation,
    //     pre-time-filter would need re-filtering — keep it simple);
    //   - final order is primary-key-ascending (sort_results_by_pk). Any
    //     unsorted emission order — batched *or* naive — leaks where the
    //     records physically live (memtable hits surface before component
    //     hits), which a cache serve cannot reproduce;
    //   - the effective validation rejects stale matches (kTimestamp /
    //     kDirect, or any method under Eager, whose index has none), so an
    //     emitted record's current secondary key equals its matched key and
    //     the populate below groups correctly.
    cache_ = dataset_->tuple_cache();
    cache_eligible_ =
        cache_ != nullptr && query_.limit() == 0 && !query_.count_only() &&
        !opts_.index_only && !query_.has_time_range() &&
        index_->def.sk_width == sizeof(uint64_t) &&
        opts_.sort_results_by_pk &&
        (validation_ != SecondaryQueryOptions::Validation::kNone ||
         dataset_->options_.strategy == MaintenanceStrategy::kEager);
    if (cache_eligible_) {
      space_ = 0;
      for (size_t i = 0; i < dataset_->secondaries_.size(); i++) {
        if (dataset_->secondaries_[i].get() == index_) {
          space_ = Dataset::TupleCacheSpaceOf(i);
          break;
        }
      }
      if (space_ == 0) cache_eligible_ = false;  // not in the catalog
    }
    if (cache_eligible_) {
      // Epoch before any snapshot capture: a write that races this open
      // invalidates after its effects are visible, so an unchanged epoch
      // proves the populate below saw the write (or the insert is dropped).
      epoch_ = cache_->SpaceEpoch(space_);
      TupleCache::RangeServe serve;
      cache_->LookupRange(space_, lo, hi, &serve);
      if (serve.complete) {
        // Full serve: the chain covered [lo, hi] — no stream, no views, no
        // tree descent, no modeled I/O. Legacy (eligible) order is global
        // pk-ascending; cached tuples are key-major, so re-sort.
        cache_hits_ = 1;
        cache_rows_ = serve.tuples.size();
        for (const auto& t : serve.tuples) {
          TweetRecord rec;
          AUXLSM_RETURN_NOT_OK(TweetRecord::Deserialize(t.value, &rec));
          buffer_.records.push_back(std::move(rec));
        }
        std::sort(buffer_.records.begin(), buffer_.records.end(),
                  [](const TweetRecord& a, const TweetRecord& b) {
                    return a.id < b.id;
                  });
        rows_buffered_ = buffer_.records.size();
        cache_full_serve_ = true;
        stream_dry_ = true;
        exhausted_ = true;
        return Status::OK();
      }
      cache_misses_ = 1;
      if (!serve.tuples.empty()) {
        // Partial serve: the chain covered [lo, serve.next); only the
        // remainder walks the tree. The prefix rows are merged (and the
        // global pk order restored) when the stream exhausts.
        cache_rows_ = serve.tuples.size();
        cache_pending_.reserve(serve.tuples.size());
        for (const auto& t : serve.tuples) {
          TweetRecord rec;
          AUXLSM_RETURN_NOT_OK(TweetRecord::Deserialize(t.value, &rec));
          cache_pending_.push_back(std::move(rec));
        }
        lo = serve.next;
      }
    }
    AUXLSM_RETURN_NOT_OK(
        stream_.Open(*index_, EncodeU64(lo), EncodeU64(hi), readahead));

    // Pin the validation and fetch targets once: later pulls reuse these
    // views, so a paginated read keeps probing the same component lists no
    // matter how maintenance reshapes the trees meanwhile.
    if (validation_ == SecondaryQueryOptions::Validation::kTimestamp) {
      if (dataset_->options_.strategy ==
          MaintenanceStrategy::kDeletedKeyBtree) {
        validation_view_ = LsmReadView::Capture(*index_->deleted_keys);
      } else {
        LsmTree* finder = dataset_->pk_index_ ? dataset_->pk_index_.get()
                                              : dataset_->primary_.get();
        validation_view_ = LsmReadView::Capture(*finder);
      }
    }
    fetch_view_ = LsmReadView::Capture(*dataset_->primary_);
    if (!cache_pending_.empty() && !cache_->WritersQuiescent(space_, epoch_)) {
      // A write landed (or is still in flight) between the chain serve and
      // the snapshot captures above: the prefix and the stream would
      // reflect different moments (a moved record could appear in both
      // halves, or in neither). Drop the prefix and restart the stream at
      // the query's own bound; the populate at exhaustion is already
      // fenced by the stale epoch / in-flight writer.
      cache_pending_.clear();
      cache_rows_ = 0;
      AUXLSM_RETURN_NOT_OK(stream_.Open(*index_, EncodeU64(range_lo_),
                                        EncodeU64(hi), readahead));
    }
    return Status::OK();
  }

  Status Produce(size_t max_rows, QueryPage* page, bool* done) override {
    while (page->rows() < max_rows) {
      if (buf_pos_ < buffer_.rows()) {
        MoveFromBuffer(max_rows - page->rows(), page);
        continue;
      }
      if (exhausted_) break;
      AUXLSM_RETURN_NOT_OK(ProcessChunk(max_rows - page->rows()));
      // An eligible (unlimited) query exhausts within its single chunk,
      // before any row left the buffer: merge the cache-served prefix and
      // record the completed result while the full row set is still here.
      if (exhausted_ && cache_eligible_ && !cache_full_serve_ &&
          !cache_finalized_) {
        FinalizeCacheServe();
      }
    }
    if (buf_pos_ >= buffer_.rows() && exhausted_) *done = true;
    return Status::OK();
  }

  void AccumulateStats(CursorStats* out) const override {
    out->candidates = candidates_;
    out->validated_out = validated_out_;
    out->time_filtered = time_filtered_;
    out->candidate_chunks = chunks_;
    out->tuple_cache_hits = cache_hits_;
    out->tuple_cache_chain_rows = cache_rows_;
    out->tuple_cache_misses = cache_misses_;
    // For row-producing cursors `rows` is the authoritative delivered count
    // (rows_buffered_ includes chunk headroom the Limit truncates); the
    // match count is only meaningful — and exact — on the count-only path.
    if (query_.count_only()) out->records_matched = rows_buffered_;
  }

 private:
  /// Moves up to n buffered rows into the page (a buffer holds records or
  /// keys, never both; buf_pos_ indexes the concatenation).
  void MoveFromBuffer(size_t n, QueryPage* page) {
    size_t moved = 0;
    while (moved < n && buf_pos_ < buffer_.rows()) {
      if (buf_pos_ < buffer_.records.size()) {
        page->records.push_back(std::move(buffer_.records[buf_pos_]));
      } else {
        page->keys.push_back(
            std::move(buffer_.keys[buf_pos_ - buffer_.records.size()]));
      }
      buf_pos_++;
      moved++;
    }
    if (buf_pos_ >= buffer_.rows()) {
      buffer_.clear();
      buf_pos_ = 0;
    }
  }

  /// Runs one candidate chunk through the legacy pipeline stages. An
  /// unlimited query uses one all-covering chunk (exact legacy order and
  /// counters); a limited one pulls just enough candidates to likely cover
  /// the *remaining limit* (not the next page — per-page chunks would
  /// shrink the §3.2 fetch batches and lose their sequential-leaf
  /// locality), with 25% headroom for validation losses.
  Status ProcessChunk(size_t want) {
    const bool unlimited = query_.limit() == 0;
    size_t chunk = SIZE_MAX;
    if (!unlimited) {
      const uint64_t rem = query_.limit() > rows_buffered_
                               ? query_.limit() - rows_buffered_
                               : 1;
      chunk = std::max<size_t>(size_t(rem + rem / 4 + kMinChunkCandidates),
                               2 * std::max<size_t>(want, 1));
    }

    // 1. Pull candidates from the streaming secondary search.
    std::vector<SecondaryMatch> matches;
    while (matches.size() < chunk) {
      SecondaryMatch m;
      bool valid = false;
      AUXLSM_RETURN_NOT_OK(stream_.Next(&m, &valid));
      if (!valid) {
        stream_dry_ = true;
        break;
      }
      matches.push_back(std::move(m));
    }
    candidates_ += matches.size();
    chunks_++;
    if (matches.empty()) {
      if (stream_dry_) exhausted_ = true;
      return Status::OK();
    }
    if (stream_dry_) exhausted_ = true;

    // 2. Sort (and dedup by pk, keeping the newest entry). Across chunks, a
    // pk that already produced a row is dropped here — the global
    // sort-distinct of the single-chunk path collapses those duplicates, so
    // this keeps multi-chunk (limited) runs from double-emitting a record
    // whose obsolete secondary entries survive direct/no validation.
    SortDistinct(&matches);
    if (!emitted_pks_.empty()) {
      matches.erase(std::remove_if(matches.begin(), matches.end(),
                                   [&](const SecondaryMatch& m) {
                                     return emitted_pks_.count(m.pk) > 0;
                                   }),
                    matches.end());
    }

    // 3. Validation.
    std::vector<FetchRequest> requests;
    requests.reserve(matches.size());
    auto to_request = [&](const SecondaryMatch& m) {
      FetchRequest r;
      r.pk = m.pk;
      if (opts_.propagate_component_id) r.prune_min_ts = m.component_min_ts;
      return r;
    };

    if (validation_ == SecondaryQueryOptions::Validation::kTimestamp) {
      // Fig 5b: validate (pk, ts) pairs against the primary key index — a
      // key is invalid if the index holds the same key with a larger
      // timestamp. (AsterixDB baseline: against each component's deleted-key
      // B+-tree instead, §4.1 — the captured view made that choice.)
      std::vector<FetchRequest> vreq;
      for (const auto& m : matches) vreq.push_back(FetchRequest{m.pk, 0});
      PointLookupOptions vopts = MakeLookupOptions(opts_);
      vopts.raw = true;
      std::vector<FetchedEntry> newest;
      AUXLSM_RETURN_NOT_OK(
          BulkPointLookup(validation_view_, vreq, vopts, &newest));
      const bool deleted_key_mode =
          dataset_->options_.strategy == MaintenanceStrategy::kDeletedKeyBtree;
      std::unordered_map<std::string, Timestamp> newest_ts;
      std::unordered_map<std::string, bool> newest_alive;
      for (const auto& e : newest) {
        newest_ts[e.pk] = e.ts;
        newest_alive[e.pk] = e.alive;
      }
      for (const auto& m : matches) {
        auto it = newest_ts.find(m.pk);
        const bool invalid =
            it != newest_ts.end() &&
            (it->second > m.ts ||
             (!deleted_key_mode && !newest_alive[m.pk]));
        if (invalid) {
          validated_out_++;
          continue;
        }
        requests.push_back(to_request(m));
      }
      if (opts_.index_only && !query_.has_time_range()) {
        for (auto& r : requests) {
          if (CountBudgetReached()) break;
          EmitKey(std::move(r.pk));
        }
        MaybeFinishCountOnly();
        return Status::OK();
      }
    } else {
      for (const auto& m : matches) requests.push_back(to_request(m));
      if (opts_.index_only && !query_.has_time_range() &&
          validation_ == SecondaryQueryOptions::Validation::kNone) {
        for (auto& r : requests) {
          if (CountBudgetReached()) break;
          EmitKey(std::move(r.pk));
        }
        MaybeFinishCountOnly();
        return Status::OK();
      }
    }

    // 4. Fetch records from the primary index. When every fetched live
    // record becomes a row in fetch order, stop at the remaining limit.
    const bool recheck =
        validation_ == SecondaryQueryOptions::Validation::kDirect;
    PointLookupOptions fetch_opts = MakeLookupOptions(opts_);
    if (query_.limit() != 0 && !opts_.sort_results_by_pk && !recheck &&
        !query_.has_time_range()) {
      fetch_opts.max_alive =
          size_t(query_.limit() - std::min(query_.limit(), rows_buffered_));
    }
    std::vector<FetchedEntry> fetched;
    PointLookupStats fetch_stats;
    AUXLSM_RETURN_NOT_OK(BulkPointLookup(fetch_view_, requests, fetch_opts,
                                         &fetched, &fetch_stats));

    // 5. Direct validation re-checks the search condition on the records
    // (Fig 5a); dead keys simply fetch nothing, and requests the quota left
    // unprobed were not validated out.
    validated_out_ +=
        requests.size() - fetch_stats.unresolved - fetched.size();
    const size_t first_record = buffer_.records.size();
    for (auto& e : fetched) {
      if (CountBudgetReached()) break;
      TweetRecord rec;
      AUXLSM_RETURN_NOT_OK(TweetRecord::Deserialize(e.value, &rec));
      if (recheck && query_.has_range() &&
          (rec.user_id < query_.range_lo() ||
           rec.user_id > query_.range_hi())) {
        validated_out_++;
        continue;
      }
      if (query_.has_time_range() &&
          (rec.creation_time < query_.time_lo() ||
           rec.creation_time > query_.time_hi())) {
        time_filtered_++;
        continue;
      }
      if (opts_.index_only) {
        EmitKey(std::move(e.pk));
      } else {
        // The emitted-pk set only matters across chunks; unlimited queries
        // run one chunk, so skip its upkeep on the legacy hot path.
        if (query_.limit() != 0) emitted_pks_.insert(e.pk);
        rows_buffered_++;
        if (!query_.count_only()) {
          buffer_.records.push_back(std::move(rec));
        }
      }
    }

    // 6. Optionally restore primary-key order destroyed by batching
    // (Fig 12d); chunk-local, which is global order for unlimited queries.
    if (opts_.sort_results_by_pk && !opts_.index_only) {
      std::sort(buffer_.records.begin() + first_record,
                buffer_.records.end(),
                [](const TweetRecord& a, const TweetRecord& b) {
                  return a.id < b.id;
                });
    }
    MaybeFinishCountOnly();
    return Status::OK();
  }

  /// Runs once when an eligible query exhausts: merges the cache-served
  /// prefix into the (still undrained) buffer, restores the global pk order,
  /// and admits the completed, validated result of [range_lo_, range_hi_]
  /// into the cache under the epoch captured at Open.
  void FinalizeCacheServe() {
    cache_finalized_ = true;
    if (!cache_pending_.empty()) {
      // A write whose invalidation was still in flight at Open's epoch
      // re-check can surface the same pk in both halves; the stream's row
      // is the newer snapshot, so it wins and the prefix copy drops.
      std::set<uint64_t> streamed;
      for (const auto& r : buffer_.records) streamed.insert(r.id);
      for (auto& r : cache_pending_) {
        if (streamed.count(r.id) == 0) {
          buffer_.records.push_back(std::move(r));
        }
      }
      cache_pending_.clear();
      std::sort(buffer_.records.begin(), buffer_.records.end(),
                [](const TweetRecord& a, const TweetRecord& b) {
                  return a.id < b.id;
                });
      rows_buffered_ = buffer_.records.size();
    }
    // Group the result by its records' *current* secondary keys (equal to
    // the matched keys for every eligible validation mode). A key outside
    // the queried interval would poison the chain's emptiness claims; skip
    // the populate outright if one appears (defensive — unreachable for
    // eligible shapes).
    std::map<uint64_t, std::vector<CachedTuple>> grouped;
    for (const auto& rec : buffer_.records) {
      const uint64_t key = DecodeU64(index_->def.extract(rec));
      if (key < range_lo_ || key > range_hi_) return;
      grouped[key].push_back(CachedTuple{EncodeU64(rec.id), rec.Serialize()});
    }
    std::vector<TupleCache::KeyGroup> groups;
    groups.reserve(grouped.size());
    for (auto& [key, tuples] : grouped) {
      groups.push_back(TupleCache::KeyGroup{key, std::move(tuples)});
    }
    cache_->InsertRange(space_, range_lo_, range_hi_, std::move(groups),
                        epoch_);
  }

  void EmitKey(std::string pk) {
    if (query_.limit() != 0) emitted_pks_.insert(pk);
    rows_buffered_++;
    if (!query_.count_only()) buffer_.keys.push_back(std::move(pk));
  }

  /// Count-only cursors deliver no pages, so the cursor-side Limit never
  /// triggers; the count stops exactly at the Limit and ends the stream.
  bool CountBudgetReached() const {
    return query_.count_only() && query_.limit() != 0 &&
           rows_buffered_ >= query_.limit();
  }
  void MaybeFinishCountOnly() {
    if (CountBudgetReached()) exhausted_ = true;
  }

  static constexpr size_t kMinChunkCandidates = 16;

  Dataset* dataset_;
  SecondaryIndex* index_;
  ReadQuery query_;
  SecondaryQueryOptions opts_;
  SecondaryQueryOptions::Validation validation_ =
      SecondaryQueryOptions::Validation::kAuto;

  SecondaryScanStream stream_;
  LsmReadView validation_view_;
  LsmReadView fetch_view_;

  /// pks that already produced a row (multi-chunk dedup; see ProcessChunk).
  std::unordered_set<std::string> emitted_pks_;
  uint64_t rows_buffered_ = 0;  ///< rows ever produced (chunk sizing input)
  QueryPage buffer_;
  size_t buf_pos_ = 0;
  bool stream_dry_ = false;
  bool exhausted_ = false;

  uint64_t candidates_ = 0;
  uint64_t validated_out_ = 0;
  uint64_t time_filtered_ = 0;
  uint64_t chunks_ = 0;

  // Tuple-cache state (PR 7); inert when cache_eligible_ is false.
  TupleCache* cache_ = nullptr;
  bool cache_eligible_ = false;
  bool cache_full_serve_ = false;
  bool cache_finalized_ = false;
  uint32_t space_ = 0;
  uint64_t epoch_ = 0;
  uint64_t range_lo_ = 0, range_hi_ = UINT64_MAX;
  std::vector<TweetRecord> cache_pending_;  ///< served prefix awaiting merge
  uint64_t cache_hits_ = 0;
  uint64_t cache_rows_ = 0;
  uint64_t cache_misses_ = 0;
};

std::unique_ptr<QueryExecutor> MakeSecondaryQueryExecutor(
    Dataset* dataset, SecondaryIndex* index, const ReadQuery& query) {
  return std::make_unique<SecondaryQueryExecutor>(dataset, index, query);
}

// --- Legacy wrapper ---------------------------------------------------------

Status Dataset::QueryUserRange(uint64_t lo_user, uint64_t hi_user,
                               const SecondaryQueryOptions& opts,
                               QueryResult* out) {
  ReadOptions ro;
  ro.secondary = opts;
  AUXLSM_ASSIGN_OR_RETURN(
      auto cursor,
      NewCursor(ReadQuery().Secondary().Range(lo_user, hi_user).Options(ro)));
  return cursor->Drain(out);
}

}  // namespace auxlsm
