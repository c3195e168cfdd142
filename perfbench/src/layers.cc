#include "layers.h"

#include <algorithm>
#include <set>
#include <thread>

#include "common/hash.h"
#include "common/random.h"
#include "core/read_query.h"
#include "format/key_codec.h"
#include "mem/memtable.h"
#include "txn/wal.h"

namespace perfbench {

namespace {

double PerUnit(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

void SetWindowLayerMetrics(const Window& w, const Window& wr, Report* out) {
  // Write side.
  {
    const EngineStats& a = wr.before;
    const EngineStats& b = wr.after;
    const double writes = double(wr.writes);
    out->Set("core.lookups_per_write",
             PerUnit(double(b.lookups - a.lookups), writes), "count");
    const double commits = double(b.wal.commits - a.wal.commits);
    const double syncs = double(b.wal.syncs - a.wal.syncs);
    out->Set("txn.commits_per_sync", PerUnit(commits, syncs), "ratio");
    out->Set("txn.commit_modeled_us",
             PerUnit(b.wal.commit_latency_us_total -
                         a.wal.commit_latency_us_total,
                     commits),
             "us");
    // The log streams whole 4 KiB pages (txn/wal.h).
    out->Set("txn.log_bytes_per_write",
             PerUnit(double(b.log.pages_written - a.log.pages_written) * 4096.0,
                     writes),
             "B");
    out->Set("lsm.flushes", double(b.flushes - a.flushes), "count");
    out->Set("lsm.merges", double(b.merges - a.merges), "count");
    out->Set("exec.retries", double(b.retries - a.retries), "count");
    out->Set("cache.invalidations_per_write",
             PerUnit(double(b.tuple_cache.invalidations -
                            a.tuple_cache.invalidations),
                     writes),
             "count");
  }

  const EngineStats& a = w.before;
  const EngineStats& b = w.after;
  const double ops = double(w.ops);

  const double hits = double(b.page_cache.hits - a.page_cache.hits);
  const double misses = double(b.page_cache.misses - a.page_cache.misses);
  out->Set("env.cache_hit_rate", PerUnit(hits, hits + misses), "ratio");
  out->Set("env.evictions_per_op",
           PerUnit(double(b.page_cache.evictions - a.page_cache.evictions), ops),
           "count");
  out->Set("env.pages_read_per_op",
           PerUnit(double(b.storage.pages_read - a.storage.pages_read), ops),
           "count");

  const auxlsm::IoStats st = b.storage - a.storage;
  out->Set("io.random_reads_per_op", PerUnit(double(st.random_reads), ops),
           "count");
  out->Set("io.sequential_reads_per_op",
           PerUnit(double(st.sequential_reads), ops), "count");
  out->Set("io.pages_written_per_op", PerUnit(double(st.pages_written), ops),
           "count");
  out->Set("io.storage_us_per_op", PerUnit(st.simulated_us, ops), "us");
  out->Set("io.log_us_per_op",
           PerUnit(b.log.simulated_us - a.log.simulated_us, ops), "us");
  out->Set("io.crit_over_sim",
           PerUnit(ClockAdvance(a.storage_clocks, b.storage_clocks),
                   st.simulated_us),
           "ratio");

  const auxlsm::TupleCacheStats tc = b.tuple_cache - a.tuple_cache;
  out->Set("cache.hit_rate", PerUnit(double(tc.hits), double(tc.hits + tc.misses)),
           "ratio");
  out->Set("cache.evictions_per_kop", PerUnit(double(tc.evictions) * 1000, ops),
           "count");
  out->Set("cache.stale_drops_per_kop",
           PerUnit(double(tc.stale_drops) * 1000, ops), "count");
}

LookupReplay ReplayLookup(auxlsm::LsmTree* tree, Env* env,
                          const std::vector<std::string>& keys,
                          const std::vector<std::string>& absent_keys,
                          bool blocked_bloom) {
  PB_SPAN("replay.lookup", 0);
  LookupReplay r;
  if (keys.empty()) return r;
  auxlsm::GetOptions gopts;
  gopts.use_blocked_bloom = blocked_bloom;

  {
    PB_SPAN("replay.lsm.get", 0);
    const uint64_t t0 = NowNs();
    for (const std::string& k : keys) {
      auxlsm::OwnedEntry e;
      (void)tree->Get(k, &e, gopts);
    }
    r.lsm_get_ns = double(NowNs() - t0) / double(keys.size());
  }

  // Re-walk the lookup path: memory components first, then disk components
  // newest first, each behind its Bloom filter.
  const std::vector<auxlsm::DiskComponentPtr> comps = tree->Components();
  std::vector<std::pair<uint64_t, size_t>> probes;      // (hash, component)
  std::vector<std::pair<size_t, size_t>> btree_calls;  // (key, component)
  for (size_t i = 0; i < keys.size(); i++) {
    auxlsm::OwnedEntry e;
    if (tree->GetFromMem(keys[i], &e).ok()) continue;
    const uint64_t h = auxlsm::Hash64(auxlsm::Slice(keys[i]));
    for (size_t c = 0; c < comps.size(); c++) {
      probes.push_back({h, c});
      if (!comps[c]->MayContain(h, blocked_bloom)) continue;
      btree_calls.push_back({i, c});
      auxlsm::LeafEntry entry;
      std::string backing;
      if (comps[c]->tree().Get(keys[i], &entry, &backing).ok()) break;
    }
  }
  r.probes_per_lookup = double(probes.size()) / double(keys.size());
  r.btree_gets_per_lookup = double(btree_calls.size()) / double(keys.size());

  if (!probes.empty()) {
    PB_SPAN("replay.bloom.probe", 0);
    const uint64_t t0 = NowNs();
    for (const auto& [h, c] : probes) (void)comps[c]->MayContain(h, blocked_bloom);
    r.bloom_probe_ns = double(NowNs() - t0) / double(probes.size());
  }

  if (!btree_calls.empty()) {
    PB_SPAN("replay.btree.get", 0);
    const auxlsm::BufferCacheStats c0 = env->cache()->stats();
    const uint64_t t0 = NowNs();
    for (const auto& [ki, ci] : btree_calls) {
      auxlsm::LeafEntry entry;
      std::string backing;
      (void)comps[ci]->tree().Get(keys[ki], &entry, &backing);
    }
    r.btree_get_ns = double(NowNs() - t0) / double(btree_calls.size());
    const auxlsm::BufferCacheStats c1 = env->cache()->stats();
    r.pages_per_get =
        double((c1.hits + c1.misses) - (c0.hits + c0.misses)) /
        double(btree_calls.size());
  }

  if (!comps.empty() && !absent_keys.empty()) {
    uint64_t positives = 0, total = 0;
    for (const std::string& k : absent_keys) {
      const uint64_t h = auxlsm::Hash64(auxlsm::Slice(k));
      for (const auto& c : comps) {
        total++;
        positives += c->MayContain(h, blocked_bloom) ? 1 : 0;
      }
    }
    r.fp_rate = PerUnit(double(positives), double(total));
  }
  return r;
}

WriteReplay ReplayWrites(const std::vector<TweetRecord>& records,
                         size_t writer_threads) {
  PB_SPAN("replay.writes", 0);
  WriteReplay r;
  if (records.empty()) return r;
  std::vector<std::string> keys, values;
  keys.reserve(records.size());
  values.reserve(records.size());
  for (const TweetRecord& rec : records) {
    keys.push_back(rec.primary_key());
    values.push_back(rec.Serialize());
  }

  {
    PB_SPAN("replay.mem.put", 0);
    auxlsm::Memtable mt;
    const uint64_t t0 = NowNs();
    for (size_t i = 0; i < keys.size(); i++) {
      mt.Put(keys[i], values[i], auxlsm::Timestamp(i + 1), false);
    }
    r.mem_put_ns = double(NowNs() - t0) / double(keys.size());
    PB_SPAN("replay.mem.get", 0);
    const uint64_t t1 = NowNs();
    for (const std::string& k : keys) {
      auxlsm::OwnedEntry e;
      (void)mt.Get(k, &e);
    }
    r.mem_get_ns = double(NowNs() - t1) / double(keys.size());
  }

  {
    PB_SPAN("replay.txn.append_commit", 0);
    auxlsm::Wal wal;
    wal.set_group_commit(writer_threads > 1);
    const size_t threads = std::max<size_t>(1, writer_threads);
    std::vector<uint64_t> commit_ns(threads, 0);
    auto committer = [&](size_t t) {
      for (size_t i = t; i < keys.size(); i += threads) {
        auxlsm::LogRecord op;
        op.txn_id = i + 1;
        op.type = auxlsm::LogRecordType::kUpsert;
        op.key = keys[i];
        op.value = values[i];
        op.ts = auxlsm::Timestamp(i + 1);
        wal.Append(std::move(op));
        auxlsm::LogRecord commit;
        commit.txn_id = i + 1;
        commit.type = auxlsm::LogRecordType::kCommit;
        const uint64_t t0 = NowNs();
        wal.AppendCommit(std::move(commit));
        commit_ns[t] += NowNs() - t0;
      }
    };
    std::vector<std::thread> pool;
    for (size_t t = 1; t < threads; t++) pool.emplace_back(committer, t);
    committer(0);
    for (std::thread& th : pool) th.join();
    uint64_t total = 0;
    for (uint64_t ns : commit_ns) total += ns;
    r.append_commit_ns = double(total) / double(keys.size());
  }
  return r;
}

WriteProbe ProbeWrites(Dataset* ds, const std::vector<TweetRecord>& probe) {
  PB_SPAN("probe.writes", 0);
  WriteProbe p;
  if (probe.empty()) return p;
  if (!FlushAll(ds).ok() || !WaitForMaintenance(ds).ok()) return p;
  auto mem_entries = [&]() {
    uint64_t n = 0;
    for (auxlsm::LsmTree* t : AllTrees(ds)) {
      for (const auto& m : t->MemtableSet()) n += m->num_entries();
    }
    return n;
  };
  const uint64_t flushes0 = ds->ingest_stats().flushes.load();
  const uint64_t entries0 = mem_entries();
  uint64_t total_ns = 0;
  for (const TweetRecord& rec : probe) {
    PB_SPAN("core.upsert", rec.id);
    const uint64_t t0 = NowNs();
    const auxlsm::Status st = ds->Upsert(rec);
    total_ns += NowNs() - t0;
    if (!st.ok()) return p;
  }
  p.upsert_ns = double(total_ns) / double(probe.size());
  if (!WaitForMaintenance(ds).ok()) return p;
  if (ds->ingest_stats().flushes.load() != flushes0) return p;
  p.puts_per_write = double(mem_entries() - entries0) / double(probe.size());
  p.ok = true;
  return p;
}

std::vector<std::string> AbsentKeys(uint64_t seed, size_t n) {
  std::vector<std::string> keys;
  for (uint64_t i = 0; i < n; i++) {
    keys.push_back(auxlsm::EncodeU64(MixId(seed, (1ull << 40) + i)));
  }
  return keys;
}

std::vector<TweetRecord> ProbeRecords(uint64_t seed, const TextPool& pool,
                                      uint64_t preload, double update_fraction,
                                      uint64_t user_domain, size_t msg_bytes,
                                      size_t n) {
  auxlsm::Random rng(seed ^ 0x9a0be);
  std::set<uint64_t> used;
  std::vector<TweetRecord> out;
  for (uint64_t i = 0; i < n; i++) {
    WriteOp op;
    op.id = rng.Bernoulli(update_fraction) ? MixId(seed, rng.Uniform(preload))
                                           : MixId(seed, (1ull << 41) + i);
    if (!used.insert(op.id).second) continue;
    op.creation_time = (1ull << 30) + i;
    FillBody(&rng, pool, user_domain, msg_bytes, msg_bytes, &op);
    out.push_back(Materialize(op, pool));
  }
  return out;
}

void ProbeGets(Dataset* ds, const std::vector<uint64_t>& ids, Report* out) {
  uint64_t total_ns = 0;
  for (uint64_t id : ids) {
    PB_SPAN("core.get", id);
    TweetRecord rec;
    const uint64_t t0 = NowNs();
    (void)ds->GetById(id, &rec);
    total_ns += NowNs() - t0;
  }
  out->Set("core.get_ns", PerUnit(double(total_ns), double(ids.size())), "ns");
}

void SetLookupMetrics(const LookupReplay& r, Report* out) {
  out->Set("lsm.get_ns", r.lsm_get_ns, "ns");
  out->Set("btree.get_ns", r.btree_get_ns, "ns");
  out->Set("btree.pages_per_get", r.pages_per_get, "count");
  out->Set("bloom.probe_ns", r.bloom_probe_ns, "ns");
  out->Set("bloom.fp_rate", r.fp_rate, "ratio");
  out->Set("bloom.probes_per_lookup", r.probes_per_lookup, "count");
}

void SetWriteReplayMetrics(const WriteReplay& r, Report* out) {
  out->Set("mem.put_ns", r.mem_put_ns, "ns");
  out->Set("mem.get_ns", r.mem_get_ns, "ns");
  out->Set("txn.append_commit_ns", r.append_commit_ns, "ns");
}

void SetQueryProbeMetrics(const QueryProbe& q, Report* out) {
  out->Set("core.cursor_open_ns", q.open_ns, "ns");
  out->Set("core.cursor_next_ns", q.next_ns, "ns");
  out->Set("core.rows_examined_per_row", q.rows_examined_per_row, "ratio");
  out->Set("core.validated_out_frac", q.validated_out_frac, "ratio");
}

void SetUnusedServerMetrics(Report* out) {
  for (const char* m : {"cache.lookup_ns", "server.decode_ns",
                        "server.encode_ns", "server.poll_ns_per_request"}) {
    out->Set(m, 0, "ns");
  }
  out->Set("server.batch_size", 0, "count");
  out->Set("server.continuations_per_query", 0, "count");
  out->Set("server.retryable_per_kop", 0, "count");
}

void SetShareMetrics(Report* out, const LookupReplay& write_lookup,
                     const LookupReplay& query_fetch,
                     const LookupReplay& query_validate,
                     double rows_per_query, double candidates_per_query,
                     double query_ns) {
  // Splits n lookups' cost into Bloom, B-tree and the LSM layer's own part.
  struct Split {
    double lsm = 0, bloom = 0, btree = 0;
  };
  auto split = [](const LookupReplay& r, double n) {
    Split s;
    s.bloom = n * r.probes_per_lookup * r.bloom_probe_ns;
    s.btree = n * r.btree_gets_per_lookup * r.btree_get_ns;
    s.lsm = std::max(0.0, n * r.lsm_get_ns - s.bloom - s.btree);
    return s;
  };

  const double write_ns = out->Get("core.upsert_ns");
  const double mem = out->Get("mem.put_ns") * out->Get("mem.puts_per_write");
  const double txn = out->Get("txn.append_commit_ns");  // one commit per write
  const Split w = split(write_lookup, out->Get("core.lookups_per_write"));
  const double residual =
      write_ns > 0 ? 1.0 - (mem + txn + w.lsm + w.bloom + w.btree) / write_ns
                   : 0.0;
  out->Set("core.upsert_residual_frac", residual, "ratio");
  out->Set("share.write.mem", PerUnit(mem, write_ns), "ratio");
  out->Set("share.write.txn", PerUnit(txn, write_ns), "ratio");
  out->Set("share.write.lsm", PerUnit(w.lsm, write_ns), "ratio");
  out->Set("share.write.bloom", PerUnit(w.bloom, write_ns), "ratio");
  out->Set("share.write.btree", PerUnit(w.btree, write_ns), "ratio");
  out->Set("share.write.core", residual, "ratio");

  const Split f = split(query_fetch, rows_per_query);
  const Split v = split(query_validate, candidates_per_query);
  const double q_lsm = f.lsm + v.lsm, q_bloom = f.bloom + v.bloom,
               q_btree = f.btree + v.btree;
  out->Set("share.query.lsm", PerUnit(q_lsm, query_ns), "ratio");
  out->Set("share.query.bloom", PerUnit(q_bloom, query_ns), "ratio");
  out->Set("share.query.btree", PerUnit(q_btree, query_ns), "ratio");
  out->Set("share.query.core",
           query_ns > 0 ? 1.0 - (q_lsm + q_bloom + q_btree) / query_ns : 0.0,
           "ratio");
}

MergeTracker::MergeTracker(Dataset* ds)
    : trees_(AllTrees(ds)),
      seen_(trees_.size()),
      page_size_(ds->env()->page_size()) {
  for (size_t t = 0; t < trees_.size(); t++) {
    for (const auto& c : trees_[t]->Components()) {
      seen_[t].push_back(Seen{c.get(), c->id().min_ts, c->id().max_ts});
    }
  }
}

void MergeTracker::Poll() {
  for (size_t t = 0; t < trees_.size(); t++) {
    std::vector<Seen>& seen = seen_[t];
    const size_t known = seen.size();
    for (const auto& c : trees_[t]->Components()) {
      const Seen s{c.get(), c->id().min_ts, c->id().max_ts};
      bool old = false, covers = false;
      for (size_t i = 0; i < known && !old; i++) {
        const Seen& o = seen[i];
        if (o.ptr == s.ptr && o.min_ts == s.min_ts && o.max_ts == s.max_ts) {
          old = true;
        } else if (s.min_ts <= o.min_ts && o.max_ts <= s.max_ts) {
          covers = true;
        }
      }
      if (old) continue;
      seen.push_back(s);
      if (covers) merge_bytes_ += uint64_t(c->meta().num_pages) * page_size_;
    }
  }
}

QueryProbe ProbeQueries(Dataset* ds, uint64_t seed, uint64_t user_domain,
                        uint64_t width, size_t queries, uint64_t limit,
                        size_t page_size) {
  PB_SPAN("probe.queries", 0);
  QueryProbe p;
  auxlsm::Random rng(seed ^ 0xc0ffee);
  uint64_t open_ns = 0, next_ns = 0, nexts = 0, rows = 0, candidates = 0,
           validated_out = 0;
  for (size_t i = 0; i < queries; i++) {
    const uint64_t lo = rng.Uniform(user_domain - width);
    auxlsm::ReadQuery q;
    q.Secondary().Range(lo, lo + width - 1);
    if (limit > 0) q.Limit(limit);
    if (page_size > 0) q.PageSize(page_size);
    PB_SPAN("core.query", i + 1);
    uint64_t t0 = NowNs();
    auto cursor = [&] {
      PB_SPAN("core.cursor_open", i + 1);
      return ds->NewCursor(q);
    }();
    open_ns += NowNs() - t0;
    if (!cursor.ok()) continue;
    while (!(*cursor)->done()) {
      auxlsm::QueryPage page;
      PB_SPAN("core.cursor_next", i + 1);
      t0 = NowNs();
      const auxlsm::Status st = (*cursor)->Next(&page);
      next_ns += NowNs() - t0;
      nexts++;
      if (!st.ok()) break;
      for (const TweetRecord& rec : page.records) {
        p.fetched_keys.push_back(rec.primary_key());
      }
    }
    const auxlsm::CursorStats& cs = (*cursor)->stats();
    rows += cs.rows;
    candidates += cs.candidates;
    validated_out += cs.validated_out;
  }
  const double n = double(std::max<size_t>(queries, 1));
  p.open_ns = double(open_ns) / n;
  p.next_ns = nexts > 0 ? double(next_ns) / double(nexts) : 0;
  p.query_ns = double(open_ns + next_ns) / n;
  p.rows_per_query = double(rows) / n;
  p.candidates_per_query = double(candidates) / n;
  p.rows_examined_per_row = PerUnit(double(candidates), double(rows));
  p.validated_out_frac = PerUnit(double(validated_out), double(candidates));
  return p;
}

}  // namespace perfbench
