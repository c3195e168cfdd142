#include "core/point_lookup.h"

#include <algorithm>

#include "btree/btree_cursor.h"
#include "cache/tuple_cache.h"
#include "common/hash.h"
#include "format/key_codec.h"

namespace auxlsm {

namespace {

// Approximate per-key footprint in batching memory: the key itself plus
// bookkeeping (hash, found flag, result slot).
constexpr size_t kBatchBytesPerKey = 32;

struct PendingKey {
  const FetchRequest* req;
  uint64_t hash;
  bool done = false;
};

// Keys of a batch the quota left unanswered when it ran out at pending[cut]
// during a pass over one source: every unfound key after the cut, and the
// unfound keys before it too unless that pass was their last source (then
// they are proven absent).
uint64_t UnresolvedAtCut(const std::vector<PendingKey>& pending, size_t cut,
                         bool last_source) {
  uint64_t n = 0;
  for (size_t i = 0; i < pending.size(); i++) {
    if (!pending[i].done && (i > cut || !last_source)) n++;
  }
  return n;
}

constexpr size_t kNoCut = SIZE_MAX;

}  // namespace

Status BulkPointLookup(const LsmReadView& view,
                       const std::vector<FetchRequest>& requests,
                       const PointLookupOptions& options,
                       std::vector<FetchedEntry>* out,
                       PointLookupStats* stats) {
  PointLookupStats local;
  local.keys = requests.size();
  size_t alive_left = options.max_alive;
  // Records that `p` resolved to an entry; true once the quota is spent, i.e.
  // the lookup must stop right here.
  auto hit = [&](PendingKey& p, std::string value, Timestamp ts, bool alive) {
    p.done = true;
    local.found++;
    if (alive || options.raw) {
      out->push_back(FetchedEntry{p.req->pk, std::move(value), ts, alive});
    }
    if (alive) alive_left--;
    return alive_left == 0;
  };

  const size_t batch_keys =
      options.batched
          ? std::max<size_t>(1, options.batch_memory_bytes / kBatchBytesPerKey)
          : requests.size();

  size_t start = 0;
  while (start < requests.size()) {
    if (alive_left == 0) {  // max_alive == 0
      local.unresolved += requests.size() - start;
      break;
    }
    const size_t end = options.batched
                           ? std::min(requests.size(), start + batch_keys)
                           : requests.size();
    local.batches++;

    std::vector<PendingKey> pending;
    pending.reserve(end - start);
    for (size_t i = start; i < end; i++) {
      pending.push_back(PendingKey{&requests[i], Hash64(requests[i].pk)});
    }
    if (options.batched) {
      // §3.2 probes each component's unfound keys in ascending key order so
      // leaf pages are read sequentially; enforce it here instead of
      // trusting callers to pre-sort (a stable sort keeps duplicate-key
      // requests in arrival order).
      std::stable_sort(pending.begin(), pending.end(),
                       [](const PendingKey& a, const PendingKey& b) {
                         return a.req->pk < b.req->pk;
                       });
    }
    // The view's memtables were captured before its components: a concurrent
    // flush moves entries memtable -> new component, so the reverse order
    // could make a key invisible to both probes.
    const auto& components = view.components;

    // Memory components (active + sealed) first, for every pending key.
    size_t cut = kNoCut;
    bool cut_in_last_source = components.empty();
    for (size_t i = 0; i < pending.size(); i++) {
      OwnedEntry e;
      if (!view.GetFromMem(pending[i].req->pk, &e).ok()) continue;
      if (hit(pending[i], std::move(e.value), e.ts, !e.antimatter)) {
        cut = i;
        break;
      }
    }

    if (cut == kNoCut && !options.batched) {
      // Naive: per key, search components newest to oldest independently.
      // Keys before a cut went through every component: never unresolved.
      cut_in_last_source = true;
      for (size_t i = 0; i < pending.size() && cut == kNoCut; i++) {
        auto& p = pending[i];
        if (p.done) continue;
        for (const auto& c : components) {
          if (c->id().max_ts < p.req->prune_min_ts) {
            local.components_skipped_by_id++;
            continue;
          }
          local.bloom_probes++;
          if (!c->MayContain(p.hash, options.use_blocked_bloom)) {
            local.bloom_negatives++;
            continue;
          }
          local.tree_probes++;
          LeafEntry entry;
          std::string backing;
          uint64_t ordinal = 0;
          Status st =
              c->tree().GetWithOrdinal(p.req->pk, &entry, &backing, &ordinal);
          if (st.IsNotFound()) continue;
          AUXLSM_RETURN_NOT_OK(st);
          if (hit(p, entry.value.ToString(), entry.ts,
                  !entry.antimatter && c->EntryValid(ordinal))) {
            cut = i;
          }
          break;
        }
      }
    } else if (cut == kNoCut) {
      // Batched (§3.2): per component, probe the batch's unfound keys in
      // ascending key order so leaf pages are read sequentially.
      size_t remaining = 0;
      for (const auto& p : pending) {
        if (!p.done) remaining++;
      }
      for (size_t ci = 0; ci < components.size() && cut == kNoCut; ci++) {
        if (remaining == 0) break;
        const auto& c = components[ci];
        StatefulBtreeCursor cursor(&c->tree());
        for (size_t i = 0; i < pending.size(); i++) {
          auto& p = pending[i];
          if (p.done) continue;
          if (c->id().max_ts < p.req->prune_min_ts) {
            local.components_skipped_by_id++;
            continue;
          }
          local.bloom_probes++;
          if (!c->MayContain(p.hash, options.use_blocked_bloom)) {
            local.bloom_negatives++;
            continue;
          }
          local.tree_probes++;
          LeafEntry entry;
          std::string backing;
          bool found = false;
          uint64_t ordinal = 0;
          if (options.stateful_btree_lookup) {
            AUXLSM_RETURN_NOT_OK(cursor.SeekExactWithOrdinal(
                p.req->pk, &entry, &backing, &found, &ordinal));
          } else {
            Status st = c->tree().GetWithOrdinal(p.req->pk, &entry, &backing,
                                                 &ordinal);
            if (st.ok()) {
              found = true;
            } else if (!st.IsNotFound()) {
              return st;
            }
          }
          if (!found) continue;
          remaining--;
          if (hit(p, entry.value.ToString(), entry.ts,
                  !entry.antimatter && c->EntryValid(ordinal))) {
            cut = i;
            cut_in_last_source = ci + 1 == components.size();
            break;
          }
        }
      }
    }
    if (cut != kNoCut) {
      local.unresolved += UnresolvedAtCut(pending, cut, cut_in_last_source) +
                          (requests.size() - end);
      break;
    }
    start = end;
  }
  if (stats != nullptr) *stats = local;
  return Status::OK();
}

Status BulkPointLookup(const LsmTree& tree,
                       const std::vector<FetchRequest>& requests,
                       const PointLookupOptions& options,
                       std::vector<FetchedEntry>* out,
                       PointLookupStats* stats) {
  return BulkPointLookup(LsmReadView::Capture(tree), requests, options, out,
                         stats);
}

Status CachedPrimaryGet(TupleCache* cache, const LsmTree& tree, uint64_t id,
                        const GetOptions& opts, bool* found,
                        std::string* value, bool* from_cache) {
  *from_cache = false;
  if (cache != nullptr && cache->LookupPoint(id, found, value)) {
    *from_cache = true;
    return Status::OK();
  }
  // Epoch before the lookup: a write racing this read invalidates (bumping
  // the epoch) only after its memtable effects are visible, so an outcome
  // read after an unchanged epoch capture is safe to admit.
  const uint64_t epoch =
      cache != nullptr ? cache->SpaceEpoch(TupleCache::kPointSpace) : 0;
  const std::string pk = EncodeU64(id);
  OwnedEntry e;
  Status st = tree.Get(pk, &e, opts);
  if (st.IsNotFound()) {
    *found = false;
    if (cache != nullptr) cache->InsertPoint(id, false, pk, Slice(), epoch);
    return Status::OK();
  }
  AUXLSM_RETURN_NOT_OK(st);
  *found = true;
  *value = std::move(e.value);
  if (cache != nullptr) cache->InsertPoint(id, true, pk, *value, epoch);
  return Status::OK();
}

}  // namespace auxlsm
