// `query`: a closed loop of one client issuing secondary user_id range
// queries (unlimited, not index-only, default batched pk-sorted lookup)
// against a preloaded Validation-strategy dataset several times larger than
// the buffer cache, with about 30% of its records carrying an obsolete
// version. The read path of §3/§4: candidates -> sort -> validate ->
// batched fetch, most reads going to the device.
#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <unordered_map>

#include "common/random.h"
#include "format/key_codec.h"
#include "layers.h"
#include "workloads.h"

namespace perfbench {

namespace {

using auxlsm::DatasetOptions;

struct Params {
  uint64_t preload = 32000;
  double update_ratio = 0.3;
  size_t cache_pages = 1024;  // 4 MiB buffer cache
  size_t mem_budget_bytes = 1u << 20;
  uint64_t max_mergeable_bytes = 4u << 20;
  uint64_t user_domain = 100000;
  uint64_t width = 300;  // user ids per query: ~100 rows
  // Fixed-size messages: flush and merge points then fall at the same
  // record counts for every seed, so seeds vary the keys, not the shape.
  size_t min_msg = 500, max_msg = 500;
  size_t warmup_queries = 400;
  // One epoch runs the same queries on a fresh dataset; wall timings are
  // medians over epochs, modeled metrics are identical in every epoch.
  size_t epoch_queries = 1500;
  int min_epochs = 3;
  int max_epochs = 40;
  size_t check_every = 16;
};

struct Fixture {
  // The registry is declared first so it outlives the dataset using it.
  std::unique_ptr<auxlsm::obs::MetricsRegistry> registry;
  std::unique_ptr<Env> env;
  std::unique_ptr<Dataset> ds;
  /// id -> the live version's (user_id, creation_time).
  std::unordered_map<uint64_t, std::pair<uint64_t, uint64_t>> live;
  std::vector<TweetRecord> written_sample;
  std::vector<uint64_t> script_lo;
  Window preload;  ///< stat window over the preload (its writes)
  uint64_t live_bytes = 0;
  uint64_t merge_bytes = 0;
  double merge_wall_ms = 0;  // traced: merge spans of the preload
  double preload_wall_s = 0;
};

/// A fresh preloaded dataset with a warm buffer cache and the epoch's query
/// ranges; `traced` arms the engine's metrics registry and tracer.
Fixture Setup(const Params& p, uint64_t seed, const TextPool& pool,
              bool traced) {
  Fixture f;
  if (traced) f.registry = std::make_unique<auxlsm::obs::MetricsRegistry>();
  auxlsm::obs::MetricsRegistry* reg = f.registry.get();
  auxlsm::EnvOptions eo;
  eo.page_size = 4096;
  eo.cache_pages = p.cache_pages;
  eo.cache_shards = 1;
  eo.metrics = reg;
  f.env = std::make_unique<Env>(eo);
  DatasetOptions o;
  o.strategy = auxlsm::MaintenanceStrategy::kValidation;
  o.mem_budget_bytes = p.mem_budget_bytes;
  o.max_mergeable_bytes = p.max_mergeable_bytes;
  o.maintenance_threads = 1;
  o.writer_threads = 1;
  o.metrics = reg;
  o.trace_buffer_bytes = reg != nullptr ? kTraceBufferBytes : 0;
  f.ds = std::make_unique<Dataset>(f.env.get(), o);

  auxlsm::Random rng(seed * 31 + 5);
  std::unique_ptr<MergeTracker> tracker;
  if (reg != nullptr) tracker = std::make_unique<MergeTracker>(f.ds.get());
  f.preload.before = EngineStats::Capture(f.ds.get());
  const uint64_t t0 = NowNs();
  std::unordered_map<uint64_t, uint64_t> bytes;
  auto write = [&](const WriteOp& op) {
    const TweetRecord rec = Materialize(op, pool);
    if (!f.ds->Upsert(rec).ok()) std::abort();
    f.live[op.id] = {op.user_id, op.creation_time};
    bytes[op.id] = RecordBytes(op);
    f.preload.writes++;
    f.preload.user_bytes += RecordBytes(op);
    if (f.written_sample.size() < 20000 && op.id % 3 == 0) {
      f.written_sample.push_back(rec);
    }
    if (tracker != nullptr && f.preload.writes % 512 == 0) tracker->Poll();
  };
  for (uint64_t i = 0; i < p.preload; i++) {
    WriteOp op;
    op.id = MixId(seed, i);
    op.creation_time = i + 1;
    FillBody(&rng, pool, p.user_domain, p.min_msg, p.max_msg, &op);
    write(op);
  }
  const uint64_t updates = uint64_t(p.update_ratio * double(p.preload));
  for (uint64_t u = 0; u < updates; u++) {
    WriteOp op;
    op.id = MixId(seed, rng.Uniform(p.preload));
    op.creation_time = p.preload + u + 1;
    op.update = true;
    FillBody(&rng, pool, p.user_domain, p.min_msg, p.max_msg, &op);
    write(op);
  }
  if (!FlushAll(f.ds.get()).ok()) std::abort();
  if (tracker != nullptr) {
    tracker->Poll();
    f.merge_bytes = tracker->merge_bytes();
    f.merge_wall_ms = TracerMergeWallMs(f.ds.get());
  }
  f.preload_wall_s = double(NowNs() - t0) / 1e9;
  f.preload.after = EngineStats::Capture(f.ds.get());
  f.preload.ops = f.preload.writes;
  for (const auto& [id, b] : bytes) f.live_bytes += b;

  // Unmeasured warm-up on ranges the script does not use (another stream),
  // so the buffer cache is warm but no measured range was pre-read.
  auxlsm::Random warm(seed * 131 + 17);
  for (size_t i = 0; i < p.warmup_queries; i++) {
    const uint64_t lo = warm.Uniform(p.user_domain - p.width);
    auxlsm::QueryResult res;
    if (!f.ds->QueryUserRange(lo, lo + p.width - 1, {}, &res).ok()) {
      std::abort();
    }
  }
  auxlsm::Random script(seed * 977 + 3);
  f.script_lo.resize(p.epoch_queries);
  for (uint64_t& lo : f.script_lo) lo = script.Uniform(p.user_domain - p.width);
  return f;
}

struct Checked {
  size_t query = 0;
  std::vector<std::pair<uint64_t, std::pair<uint64_t, uint64_t>>> rows;
};

struct PhaseResult {
  uint64_t queries = 0, failed = 0, rows = 0, candidates = 0,
           validated_out = 0;
  double wall_s = 0;
  std::vector<double> wall_us;
  std::vector<uint64_t> start_ns, end_ns;  // per successful query
  std::vector<double> modeled_us;  // per query: device time
  double open_ns = 0, next_ns = 0;
  uint64_t nexts = 0;
  std::vector<Checked> checked;
  std::vector<std::string> fetched_keys;
};

/// One epoch: every query of the script, in order.
PhaseResult Measure(Fixture* f, const Params& p) {
  PhaseResult r;
  r.wall_us.reserve(f->script_lo.size());
  const uint64_t start = NowNs();
  for (size_t i = 0; i < f->script_lo.size(); i++) {
    const uint64_t lo = f->script_lo[i];
    auxlsm::ReadQuery q;
    q.Secondary().Range(lo, lo + p.width - 1);
    const bool check = i % p.check_every == 0;
    Checked c;
    c.query = i;
    PB_SPAN("core.query", i + 1);
    const uint64_t t0 = NowNs();
    auto cursor = [&] {
      PB_SPAN("core.cursor_open", i + 1);
      return f->ds->NewCursor(q);
    }();
    const uint64_t t_open = NowNs();
    r.open_ns += double(t_open - t0);
    bool ok = cursor.ok();
    while (ok && !(*cursor)->done()) {
      auxlsm::QueryPage page;
      PB_SPAN("core.cursor_next", i + 1);
      const uint64_t n0 = NowNs();
      ok = (*cursor)->Next(&page).ok();
      r.next_ns += double(NowNs() - n0);
      r.nexts++;
      if (check) {
        for (const TweetRecord& rec : page.records) {
          c.rows.push_back({rec.id, {rec.user_id, rec.creation_time}});
        }
      }
      if (r.fetched_keys.size() < 20000 && i % 4 == 0) {
        for (const TweetRecord& rec : page.records) {
          r.fetched_keys.push_back(rec.primary_key());
        }
      }
    }
    const uint64_t t1 = NowNs();
    r.queries++;
    if (!ok) {
      r.failed++;
      continue;
    }
    r.wall_us.push_back(double(t1 - t0) / 1e3);
    r.start_ns.push_back(t0);
    r.end_ns.push_back(t1);
    const auxlsm::CursorStats& cs = (*cursor)->stats();
    r.rows += cs.rows;
    r.candidates += cs.candidates;
    r.validated_out += cs.validated_out;
    r.modeled_us.push_back(cs.io_simulated_us);
    if (check) r.checked.push_back(std::move(c));
  }
  r.wall_s = double(NowNs() - start) / 1e9;
  return r;
}

/// Sampled queries against the benchmark-side reference index.
void CheckQueries(const Fixture& f, const Params& p, const PhaseResult& r,
                  Report* out) {
  std::map<uint64_t, std::vector<uint64_t>> by_user;
  for (const auto& [id, v] : f.live) by_user[v.first].push_back(id);
  uint64_t bad = 0;
  for (const Checked& c : r.checked) {
    const uint64_t lo = f.script_lo[c.query];
    std::set<uint64_t> want;
    for (auto it = by_user.lower_bound(lo);
         it != by_user.end() && it->first <= lo + p.width - 1; ++it) {
      want.insert(it->second.begin(), it->second.end());
    }
    std::set<uint64_t> got;
    bool rows_ok = true;
    for (const auto& [id, v] : c.rows) {
      got.insert(id);
      auto it = f.live.find(id);
      rows_ok &= it != f.live.end() && it->second == v;
    }
    if (!rows_ok || got != want || got.size() != c.rows.size()) bad++;
  }
  if (bad > 0 || r.checked.empty()) {
    out->GateFailed(std::to_string(bad) + " of " +
                    std::to_string(r.checked.size()) +
                    " sampled queries differ from the reference index");
  } else {
    out->GatePassed(std::to_string(r.checked.size()) +
                    " sampled queries match the reference index");
  }
}

/// The modeled end-to-end metrics of one epoch (exact per seed).
void SetModeled(const PhaseResult& r, Report* out) {
  std::vector<double> m = r.modeled_us;
  double total = 0;
  for (double v : m) total += v;
  const auto [p50, p99] = P50P99(&m);
  out->Set("io_us_per_op", total / double(m.size()), "us");
  out->Set("modeled_p50_us", p50, "us");
  out->Set("modeled_p99_us", p99, "us");
  out->Set("sat_ops_s", double(m.size()) * 1e6 / total, "ops/s");
}

/// Epochs on fresh datasets until `budget_s` of measured time (at least
/// `min_epochs`); keeps the last. Identical epochs must agree bit for bit
/// on the modeled clock — checked here.
struct Epochs {
  std::vector<double> ops_s, wall_p50, wall_p99, rss_mb, setup_s;
  Report modeled;  // from the first epoch
  Fixture last;
  PhaseResult last_phase;
  Window last_window;
  uint64_t queries = 0, failed = 0;
  bool deterministic = true;
};

void RunEpochs(const Params& p, uint64_t seed, const TextPool& pool,
               double budget_s, int min_epochs, bool traced, Epochs* out) {
  double measured = 0;
  for (int i = 0; i < p.max_epochs && (i < min_epochs || measured < budget_s);
       i++) {
    out->last = Fixture{};  // release the previous epoch before the next
    ReleaseFreeMemory();
    const uint64_t t0 = NowNs();
    out->last = Setup(p, seed, pool, traced);
    out->setup_s.push_back(double(NowNs() - t0) / 1e9);
    Window w;
    w.before = EngineStats::Capture(out->last.ds.get());
    PhaseResult r = Measure(&out->last, p);
    out->rss_mb.push_back(RssMb());
    w.after = EngineStats::Capture(out->last.ds.get());
    w.ops = r.queries;
    measured += r.wall_s;
    out->queries += r.queries;
    out->failed += r.failed;
    std::vector<double> lat = r.wall_us;
    const auto [p50, p99] = P50P99(&lat);
    out->ops_s.push_back(double(r.queries) / r.wall_s);
    out->wall_p50.push_back(p50);
    out->wall_p99.push_back(p99);
    Report modeled;
    SetModeled(r, &modeled);
    if (i == 0) {
      out->modeled = modeled;
    } else {
      for (const char* m : {"io_us_per_op", "modeled_p50_us", "modeled_p99_us"}) {
        const double a = out->modeled.Get(m), b = modeled.Get(m);
        out->deterministic &= std::memcmp(&a, &b, sizeof(double)) == 0;
      }
    }
    out->last_phase = std::move(r);
    out->last_window = w;
  }
}

void CheckEpochs(const Epochs& ep, Report* out) {
  out->AddAttempted(ep.queries);
  out->AddFailed(ep.failed);
  if (ep.failed > 0) {
    out->GateFailed(std::to_string(ep.failed) + " queries failed");
  }
  if (!ep.deterministic) {
    out->GateFailed("modeled metrics differ between identical epochs");
  }
}

}  // namespace

void RunQuery(const RunOptions& opt, Report* out) {
  const Params p;
  out->Param("strategy", "validation");
  out->Param("loop", "closed, 1 client");
  out->Param("engine", "serial (writer_threads=1, maintenance_threads=1)");
  out->Param("preload_records", double(p.preload));
  out->Param("update_ratio", p.update_ratio);
  out->Param("buffer_cache_bytes", double(p.cache_pages * 4096));
  out->Param("mem_budget_bytes", double(p.mem_budget_bytes));
  out->Param("max_mergeable_bytes", double(p.max_mergeable_bytes));
  out->Param("range_width_users", double(p.width));
  out->Param("user_domain", double(p.user_domain));
  out->Param("lookup", "batched, pk-sorted, stateful B-tree, blocked Bloom");
  out->Param("warmup_queries", double(p.warmup_queries));
  out->Param("epoch_queries", double(p.epoch_queries));
  out->Param("device", "hdd, 1 storage queue, 1 log queue");
  const TextPool pool(opt.seed);

  if (!opt.trace) {
    Epochs ep;
    RunEpochs(p, opt.seed, pool, opt.seconds, p.min_epochs, false, &ep);
    CheckEpochs(ep, out);
    const Fixture& f = ep.last;
    const PhaseResult& r = ep.last_phase;
    out->Set("setup_s", Median(ep.setup_s), "s");
    out->Set("ops_s", Median(ep.ops_s), "ops/s");
    out->Set("wall_p50_us", Median(ep.wall_p50), "us");
    out->Set("wall_p99_us", Median(ep.wall_p99), "us");
    for (const char* m : {"io_us_per_op", "modeled_p50_us", "modeled_p99_us",
                          "sat_ops_s"}) {
      out->Set(m, ep.modeled.Get(m), m[0] == 's' ? "ops/s" : "us");
    }
    const auxlsm::IoStats st = f.preload.after.storage - f.preload.before.storage;
    const auxlsm::IoStats lg = f.preload.after.log - f.preload.before.log;
    out->Set("write_amp",
             double(st.pages_written + lg.pages_written) * 4096.0 /
                 double(f.preload.user_bytes),
             "ratio");
    out->Set("space_amp", double(DiskBytes(f.ds.get())) / double(f.live_bytes),
             "ratio");
    out->Set("peak_rss_mb", Median(ep.rss_mb), "MiB");
    out->Note(std::to_string(ep.ops_s.size()) + " epochs of " +
              std::to_string(p.epoch_queries) +
              " queries; wall timings are medians over epochs; rows per "
              "query: " + std::to_string(double(r.rows) / double(r.queries)) +
              "; write_amp and space_amp describe the preloaded dataset");
    CheckQueries(f, p, r, out);
    return;
  }

  // Traced run: untraced epochs (overhead baseline and armed-but-quiet
  // reference), then traced ones; layer metrics describe the last.
  const double half = opt.seconds / 2;
  double untraced_ops_s = 0;
  Report untraced;
  {
    Epochs ep;
    RunEpochs(p, opt.seed, pool, half, 2, false, &ep);
    CheckEpochs(ep, out);
    untraced_ops_s = Median(ep.ops_s);
    untraced = ep.modeled;
  }
  SpanRecorder::Get().Arm(true);
  Epochs ep;
  RunEpochs(p, opt.seed, pool, half, 2, true, &ep);
  CheckEpochs(ep, out);
  CheckArmedButQuiet(untraced, ep.modeled,
                     {"io_us_per_op", "modeled_p50_us", "modeled_p99_us",
                      "sat_ops_s"},
                     out);
  out->Set("obs.overhead_frac", 1.0 - Median(ep.ops_s) / untraced_ops_s,
           "ratio");
  Fixture& f = ep.last;
  const PhaseResult& r = ep.last_phase;
  CheckQueries(f, p, r, out);

  SetWindowLayerMetrics(ep.last_window, f.preload, out);
  out->Set("lsm.merge_bytes_per_user_byte",
           double(f.merge_bytes) / double(f.preload.user_bytes), "ratio");
  out->Set("lsm.components_per_tree", ComponentsPerTree(f.ds.get()), "count");
  SetExecMetrics(f.registry.get(), f.preload_wall_s, 0, f.merge_wall_ms, out);

  const double n = double(std::max<uint64_t>(r.queries, 1));
  out->Set("core.cursor_open_ns", r.open_ns / n, "ns");
  out->Set("core.cursor_next_ns",
           r.nexts > 0 ? r.next_ns / double(r.nexts) : 0, "ns");
  out->Set("core.rows_examined_per_row",
           double(r.candidates) / double(std::max<uint64_t>(r.rows, 1)),
           "ratio");
  out->Set("core.validated_out_frac",
           double(r.validated_out) /
               double(std::max<uint64_t>(r.candidates, 1)),
           "ratio");

  // Replays on this run's fetched keys and preloaded records.
  const LookupReplay fetch = ReplayLookup(f.ds->primary(), f.env.get(),
                                          r.fetched_keys, AbsentKeys(opt.seed),
                                          true);
  const LookupReplay validate = ReplayLookup(
      f.ds->primary_key_index(), f.env.get(), r.fetched_keys, {}, true);
  SetLookupMetrics(fetch, out);
  SetWriteReplayMetrics(ReplayWrites(f.written_sample, 1), out);
  std::vector<uint64_t> fetched_ids;
  for (size_t i = 0; i < r.fetched_keys.size(); i += 4) {
    fetched_ids.push_back(auxlsm::DecodeU64(r.fetched_keys[i]));
  }
  ProbeGets(f.ds.get(), fetched_ids, out);
  // Write probe: the preload's mix of fresh records and updates.
  const WriteProbe wp = ProbeWrites(
      f.ds.get(),
      ProbeRecords(opt.seed, pool, p.preload,
                   p.update_ratio / (1 + p.update_ratio), p.user_domain,
                   p.min_msg, 1000));
  if (!wp.ok) out->Note("write probe did not isolate memtable puts");
  out->Set("core.upsert_ns", wp.upsert_ns, "ns");
  out->Set("mem.puts_per_write", wp.puts_per_write, "count");
  // The write path looks keys up in the pk index.
  std::vector<std::string> written_keys;
  for (const TweetRecord& rec : f.written_sample) {
    written_keys.push_back(rec.primary_key());
  }
  const LookupReplay pk = ReplayLookup(f.ds->primary_key_index(), f.env.get(),
                                       written_keys, {}, true);
  SetShareMetrics(out, pk, fetch, validate,
                  double(r.rows) / n, double(r.candidates) / n,
                  (r.open_ns + r.next_ns) / n);

  SetUnusedServerMetrics(out);
  SpanRecorder::Get().Arm(false);
  FinishSpans(opt, "query", out);
}

}  // namespace perfbench
