// `ingest`: a closed loop of two writer threads upserting into a
// Mutable-bitmap dataset (§5.3 Lock build method) through the multi-writer
// pipeline: group-commit WAL, background flush and merge cycles, pk-index
// lookups and bitmap flips on the write path.
#include <algorithm>
#include <atomic>
#include <thread>
#include <tuple>
#include <unordered_map>

#include "common/random.h"
#include "format/key_codec.h"
#include "layers.h"
#include "workloads.h"

namespace perfbench {

namespace {

using auxlsm::DatasetOptions;
using auxlsm::EnvOptions;

struct Params {
  size_t writers = 2;
  size_t maintenance_threads = 1;  // + 2 writers + 1 cycle thread <= 4 cores
  size_t mem_budget_bytes = 4u << 20;
  size_t cache_pages = 256;  // 1 MiB buffer cache, below the pk index size
  size_t cache_shards = 4;
  uint64_t preload = 20000;
  uint64_t epoch_ops = 150000;  // upserts per epoch, split over the writers
  int min_epochs = 3;
  int max_epochs = 40;
  double update_fraction = 0.2;
  // Fixed-size messages: flush and merge points then fall at the same
  // record counts for every seed, so seeds vary the keys, not the shape.
  size_t min_msg = 500, max_msg = 500;
  uint64_t user_domain = 100000;
  uint64_t sample_keys = 2000;
};

/// Every input of a run, generated once before timing: the preload and
/// each writer's op stream. Writer w owns the preloaded keys with index %
/// writers == w and its own fresh keys, and only ever updates keys it owns,
/// so each key's last acknowledged version is well defined.
struct Inputs {
  std::vector<WriteOp> preload;
  std::vector<std::vector<WriteOp>> streams;  // one per writer
  uint64_t user_bytes = 0;                    // bytes the streams write
};

Inputs MakeInputs(const Params& p, uint64_t seed, const TextPool& pool) {
  Inputs in;
  auxlsm::Random rng(seed * 7919 + 11);
  in.preload.resize(p.preload);
  for (uint64_t i = 0; i < p.preload; i++) {
    WriteOp& op = in.preload[i];
    op.id = MixId(seed, i);
    op.creation_time = i + 1;
    FillBody(&rng, pool, p.user_domain, p.min_msg, p.max_msg, &op);
  }
  const uint64_t per_writer = p.epoch_ops / p.writers;
  in.streams.resize(p.writers);
  for (size_t w = 0; w < p.writers; w++) {
    auxlsm::Random wrng(seed * 104729 + w + 1);
    std::vector<uint64_t> owned;
    for (uint64_t i = w; i < p.preload; i += p.writers) {
      owned.push_back(in.preload[i].id);
    }
    uint64_t fresh = 0;
    std::vector<WriteOp>& s = in.streams[w];
    s.resize(per_writer);
    for (uint64_t j = 0; j < per_writer; j++) {
      WriteOp& op = s[j];
      if (wrng.Bernoulli(p.update_fraction)) {
        op.id = owned[wrng.Uniform(owned.size())];
        op.update = true;
      } else {
        op.id = MixId(seed, p.preload + w + p.writers * fresh++);
        owned.push_back(op.id);
      }
      op.creation_time = p.preload + 1 + j * p.writers + w;
      FillBody(&wrng, pool, p.user_domain, p.min_msg, p.max_msg, &op);
      in.user_bytes += RecordBytes(op);
    }
  }
  return in;
}

DatasetOptions MakeOptions(const Params& p, auxlsm::obs::MetricsRegistry* reg) {
  DatasetOptions o;
  o.strategy = auxlsm::MaintenanceStrategy::kMutableBitmap;
  o.build_cc = auxlsm::BuildCcMethod::kLock;
  o.writer_threads = p.writers;
  o.maintenance_threads = p.maintenance_threads;
  o.mem_budget_bytes = p.mem_budget_bytes;
  o.metrics = reg;
  o.trace_buffer_bytes = reg != nullptr ? kTraceBufferBytes : 0;
  return o;
}

EnvOptions MakeEnvOptions(const Params& p, auxlsm::obs::MetricsRegistry* reg) {
  EnvOptions e;
  e.page_size = 4096;
  e.cache_pages = p.cache_pages;
  e.cache_shards = p.cache_shards;
  e.metrics = reg;
  return e;
}

struct Fixture {
  // The registry is declared first so it outlives the dataset using it.
  std::unique_ptr<auxlsm::obs::MetricsRegistry> registry;
  std::unique_ptr<Env> env;
  std::unique_ptr<Dataset> ds;
};

/// A fresh dataset holding the preload. `traced` arms the engine's metrics
/// registry and tracer.
Fixture BuildFixture(const Params& p, const Inputs& in, const TextPool& pool,
                     bool traced) {
  Fixture f;
  if (traced) f.registry = std::make_unique<auxlsm::obs::MetricsRegistry>();
  f.env = std::make_unique<Env>(MakeEnvOptions(p, f.registry.get()));
  f.ds = std::make_unique<Dataset>(f.env.get(),
                                   MakeOptions(p, f.registry.get()));
  for (const WriteOp& op : in.preload) {
    if (!f.ds->Upsert(Materialize(op, pool)).ok()) std::abort();
  }
  if (!WaitForMaintenance(f.ds.get()).ok()) std::abort();
  return f;
}

struct PhaseResult {
  uint64_t ops = 0, failed = 0;
  double wall_s = 0;
  std::vector<double> latencies_us;
  /// Modeled device µs per upsert over each flush cycle (from one flush to
  /// the next): the unit in which background work arrives.
  std::vector<double> cycle_modeled_us;
  double max_backlog = 0;
  double peak_rss_mb = 0;  // sampled while the writers run
};

/// One epoch: both writers run their whole streams against `f`.
PhaseResult Measure(Fixture* f, const Params& p, const Inputs& in,
                    const TextPool& pool, MergeTracker* tracker) {
  PhaseResult r;
  std::vector<std::vector<double>> lat(p.writers);
  std::vector<uint64_t> failed(p.writers, 0);
  std::atomic<uint64_t> op_count{0};
  std::atomic<int> running{int(p.writers)};

  const uint64_t start = NowNs();
  auto writer = [&](size_t w) {
    PB_SPAN("ingest.writer", w);
    const std::vector<WriteOp>& s = in.streams[w];
    lat[w].reserve(s.size());
    for (const WriteOp& op : s) {
      const TweetRecord rec = Materialize(op, pool);
      uint64_t t0, t1;
      auxlsm::Status st;
      {
        PB_SPAN("core.upsert", rec.id);
        t0 = NowNs();
        st = f->ds->Upsert(rec);
        t1 = NowNs();
      }
      lat[w].push_back(double(t1 - t0) / 1e3);
      if (!st.ok()) failed[w]++;
      op_count.fetch_add(1, std::memory_order_relaxed);
    }
    running.fetch_sub(1);
  };
  std::vector<std::thread> threads;
  for (size_t w = 0; w < p.writers; w++) threads.emplace_back(writer, w);
  // The main thread only watches: flush cycles on the modeled clock, merge
  // outputs and the merge backlog.
  auto modeled_now = [&]() {
    return f->env->stats().simulated_us + f->ds->wal()->stats().simulated_us;
  };
  uint64_t cycle_flushes = f->ds->ingest_stats().flushes.load();
  double cycle_modeled = modeled_now();
  uint64_t cycle_ops = 0;
  while (running.load() > 0) {
    const uint64_t flushes = f->ds->ingest_stats().flushes.load();
    if (flushes != cycle_flushes) {
      const double m = modeled_now();
      const uint64_t ops = op_count.load(std::memory_order_relaxed);
      if (ops > cycle_ops) {
        r.cycle_modeled_us.push_back((m - cycle_modeled) /
                                     double(ops - cycle_ops));
      }
      cycle_flushes = flushes;
      cycle_modeled = m;
      cycle_ops = ops;
    }
    if (tracker != nullptr) tracker->Poll();
    r.max_backlog = std::max(r.max_backlog, MergeBacklog(f->ds.get()));
    r.peak_rss_mb = std::max(r.peak_rss_mb, RssMb());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (std::thread& t : threads) t.join();
  r.wall_s = double(NowNs() - start) / 1e9;

  for (size_t w = 0; w < p.writers; w++) {
    r.ops += in.streams[w].size();
    r.failed += failed[w];
    r.latencies_us.insert(r.latencies_us.end(), lat[w].begin(), lat[w].end());
  }
  return r;
}

/// The last acknowledged version of every key an epoch wrote, as a compact
/// op (preload first, then each writer's stream in order).
std::unordered_map<uint64_t, const WriteOp*> LastVersions(const Inputs& in) {
  std::unordered_map<uint64_t, const WriteOp*> last;
  for (const WriteOp& op : in.preload) last[op.id] = &op;
  for (const auto& stream : in.streams) {
    for (const WriteOp& op : stream) last[op.id] = &op;
  }
  return last;
}

/// Count, sampled-version and durability gates. `recover` additionally
/// checkpoints, drops the dataset and recovers it from the checkpoint and
/// the log.
void CheckIngest(Fixture* f, const Inputs& in, const TextPool& pool,
                 uint64_t seed, const Params& p, bool recover, Report* out) {
  const auto last = LastVersions(in);
  std::vector<uint64_t> keys;
  keys.reserve(last.size());
  for (const auto& [id, op] : last) keys.push_back(id);
  std::sort(keys.begin(), keys.end());
  auxlsm::Random rng(seed ^ 0x5eed);
  std::vector<uint64_t> sample;
  for (uint64_t i = 0; i < p.sample_keys && !keys.empty(); i++) {
    sample.push_back(keys[rng.Uniform(keys.size())]);
  }

  auto check = [&](Dataset* ds, const char* when) {
    const uint64_t n = ds->num_records();
    if (n != last.size()) {
      out->GateFailed(std::string(when) + ": record count " +
                      std::to_string(n) + " != " + std::to_string(last.size()));
    } else {
      out->GatePassed(std::string(when) + ": record count " +
                      std::to_string(n));
    }
    uint64_t bad = 0;
    for (uint64_t id : sample) {
      TweetRecord got;
      const auxlsm::Status st = ds->GetById(id, &got);
      if (!st.ok() || !(got == Materialize(*last.at(id), pool))) bad++;
    }
    if (bad > 0) {
      out->GateFailed(std::string(when) + ": " + std::to_string(bad) + " of " +
                      std::to_string(sample.size()) +
                      " sampled keys differ from their last acknowledged "
                      "version");
    } else {
      out->GatePassed(std::string(when) + ": " +
                      std::to_string(sample.size()) +
                      " sampled keys match their last acknowledged version");
    }
  };

  if (!WaitForMaintenance(f->ds.get()).ok()) out->GateFailed("maintenance error");
  check(f->ds.get(), "live");
  if (!recover) return;

  // Durability: checkpoint, keep only what a crash leaves (the Env's pages
  // and the log), drop the dataset, recover, and re-check. The durable log
  // keeps the records past the checkpointed component LSN; the prefix the
  // checkpoint covers is replaced by checkpoint markers, which recovery
  // skips, so LSNs stay aligned with the catalog.
  const auxlsm::DatasetCatalog cat = f->ds->Checkpoint();
  auxlsm::Wal durable;
  const std::vector<auxlsm::LogRecord> tail =
      f->ds->wal()->ReadFrom(cat.max_component_lsn);
  for (auxlsm::Lsn l = 1; l <= cat.max_component_lsn; l++) {
    auxlsm::LogRecord marker;
    marker.type = auxlsm::LogRecordType::kCheckpoint;
    durable.Append(std::move(marker));
  }
  for (const auxlsm::LogRecord& rec : tail) durable.Append(rec);
  if (durable.tail_lsn() != f->ds->wal()->tail_lsn()) {
    out->GateFailed("durable log copy misaligned");
    return;
  }
  const DatasetOptions opts = f->ds->options();
  f->ds.reset();  // the crash
  auxlsm::RecoveryStats rs;
  auto recovered =
      Dataset::Recover(f->env.get(), &durable, cat, opts, &rs);
  if (!recovered.ok()) {
    out->GateFailed("recovery failed: " + recovered.status().ToString());
    return;
  }
  out->Note("recovery replayed " + std::to_string(rs.ops_replayed) +
            " logged operations past the checkpoint");
  check(recovered->get(), "recovered");
}

/// The end-to-end metrics of one epoch.
struct EpochMetrics {
  double ops_s, wall_p50, wall_p99, io_us, write_amp, space_amp, sat, rss_mb;
};

EpochMetrics EndToEnd(Fixture* f, const Inputs& in, const PhaseResult& r,
                      const Window& w) {
  EpochMetrics e;
  std::vector<double> lat = r.latencies_us;
  std::tie(e.wall_p50, e.wall_p99) = P50P99(&lat);
  const double ops = double(r.ops);
  const auxlsm::IoStats st = w.after.storage - w.before.storage;
  const auxlsm::IoStats lg = w.after.log - w.before.log;
  e.ops_s = ops / r.wall_s;
  e.io_us = (st.simulated_us + lg.simulated_us) / ops;
  e.write_amp = double(st.pages_written + lg.pages_written) * 4096.0 /
                double(in.user_bytes);
  uint64_t live = 0;
  for (const auto& [id, op] : LastVersions(in)) live += RecordBytes(*op);
  e.space_amp = double(DiskBytes(f->ds.get())) / double(live);
  const double makespan_us =
      std::max(ClockAdvance(w.before.storage_clocks, w.after.storage_clocks),
               ClockAdvance(w.before.log_clocks, w.after.log_clocks));
  e.sat = ops * 1e6 / makespan_us;
  e.rss_mb = r.peak_rss_mb;
  return e;
}

/// Runs epochs on fresh fixtures until `budget_s` of measured time (at
/// least `min_epochs`); keeps the last epoch's fixture and phase for the
/// gates and the layer replays.
struct Epochs {
  std::vector<EpochMetrics> metrics;
  std::vector<double> setup_s;
  std::vector<double> cycle_modeled_us;  // pooled over epochs
  Fixture last;
  PhaseResult last_phase;
  Window last_window;
  std::unique_ptr<MergeTracker> last_tracker;
  uint64_t ops = 0, failed = 0;
};

void RunEpochs(const Params& p, const Inputs& in, const TextPool& pool,
               double budget_s, int min_epochs, bool traced, Epochs* out) {
  double measured = 0;
  for (int e = 0; e < p.max_epochs && (e < min_epochs || measured < budget_s);
       e++) {
    out->last_tracker.reset();
    out->last = Fixture{};  // release the previous epoch before the next
    ReleaseFreeMemory();
    const uint64_t t0 = NowNs();
    out->last = BuildFixture(p, in, pool, traced);
    out->setup_s.push_back(double(NowNs() - t0) / 1e9);
    if (traced) {
      out->last_tracker = std::make_unique<MergeTracker>(out->last.ds.get());
    }
    Window w;
    w.before = EngineStats::Capture(out->last.ds.get());
    PhaseResult r = Measure(&out->last, p, in, pool, out->last_tracker.get());
    if (!WaitForMaintenance(out->last.ds.get()).ok()) out->failed++;
    if (out->last_tracker) out->last_tracker->Poll();
    w.after = EngineStats::Capture(out->last.ds.get());
    w.ops = w.writes = r.ops;
    w.user_bytes = in.user_bytes;
    measured += r.wall_s;
    out->ops += r.ops;
    out->failed += r.failed;
    out->metrics.push_back(EndToEnd(&out->last, in, r, w));
    out->cycle_modeled_us.insert(out->cycle_modeled_us.end(),
                                 r.cycle_modeled_us.begin(),
                                 r.cycle_modeled_us.end());
    out->last_phase = std::move(r);
    out->last_window = w;
  }
}

std::vector<double> Field(const std::vector<EpochMetrics>& v,
                          double EpochMetrics::*field) {
  std::vector<double> x;
  for (const EpochMetrics& e : v) x.push_back(e.*field);
  return x;
}

}  // namespace

void RunIngest(const RunOptions& opt, Report* out) {
  const Params p;
  out->Param("strategy", "mutable-bitmap");
  out->Param("build_cc", "lock");
  out->Param("loop", "closed");
  out->Param("writer_threads", double(p.writers));
  out->Param("maintenance_threads", double(p.maintenance_threads));
  out->Param("mem_budget_bytes", double(p.mem_budget_bytes));
  out->Param("buffer_cache_bytes", double(p.cache_pages * 4096));
  out->Param("cache_shards", double(p.cache_shards));
  out->Param("preload_records", double(p.preload));
  out->Param("epoch_upserts", double(p.epoch_ops));
  out->Param("update_fraction", p.update_fraction);
  out->Param("message_bytes", double(p.min_msg));
  out->Param("user_domain", double(p.user_domain));
  out->Param("device", "hdd, 1 storage queue, 1 log queue");
  const TextPool pool(opt.seed);
  const uint64_t g0 = NowNs();
  const Inputs in = MakeInputs(p, opt.seed, pool);
  const double generate_s = double(NowNs() - g0) / 1e9;

  if (!opt.trace) {
    Epochs ep;
    RunEpochs(p, in, pool, opt.seconds, p.min_epochs, false, &ep);
    out->AddAttempted(ep.ops);
    out->AddFailed(ep.failed);
    if (ep.failed > 0) {
      out->GateFailed(std::to_string(ep.failed) + " upserts failed");
    }
    const auto& m = ep.metrics;
    out->Set("setup_s", generate_s + Median(ep.setup_s), "s");
    out->Set("ops_s", Median(Field(m, &EpochMetrics::ops_s)), "ops/s");
    out->Set("wall_p50_us", Median(Field(m, &EpochMetrics::wall_p50)), "us");
    out->Set("wall_p99_us", Median(Field(m, &EpochMetrics::wall_p99)), "us");
    out->Set("io_us_per_op", Median(Field(m, &EpochMetrics::io_us)), "us");
    out->Set("write_amp", Median(Field(m, &EpochMetrics::write_amp)), "ratio");
    out->Set("space_amp", Median(Field(m, &EpochMetrics::space_amp)), "ratio");
    std::vector<double> cycles = ep.cycle_modeled_us;
    const auto [c50, c99] = P50P99(&cycles);
    out->Set("modeled_p50_us", c50, "us");
    out->Set("modeled_p99_us", c99, "us");
    out->Set("sat_ops_s", Median(Field(m, &EpochMetrics::sat)), "ops/s");
    out->Set("peak_rss_mb", Median(Field(m, &EpochMetrics::rss_mb)), "MiB");
    out->Note(std::to_string(m.size()) + " epochs of " +
              std::to_string(p.epoch_ops) + " upserts; metrics are medians over "
              "epochs; wall latency samples per epoch: " +
              std::to_string(ep.last_phase.latencies_us.size()) +
              "; modeled latency: per-upsert device time of " +
              std::to_string(cycles.size()) +
              " flush cycles pooled over the epochs");
    out->Note("pk index: " +
              std::to_string(DiskBytes(ep.last.ds->primary_key_index()) >> 10) +
              " KiB on disk; buffer cache: " +
              std::to_string(p.cache_pages * 4) + " KiB");
    CheckIngest(&ep.last, in, pool, opt.seed, p, /*recover=*/true, out);
    return;
  }

  // Traced run: untraced epochs for half the time (the overhead baseline),
  // then traced epochs; the layer metrics describe the last traced epoch.
  const double half = opt.seconds / 2;
  double untraced_ops_s = 0;
  {
    Epochs ep;
    RunEpochs(p, in, pool, half, 2, false, &ep);
    untraced_ops_s = Median(Field(ep.metrics, &EpochMetrics::ops_s));
    out->AddAttempted(ep.ops);
    out->AddFailed(ep.failed);
  }
  SpanRecorder::Get().Arm(true);
  Epochs ep;
  RunEpochs(p, in, pool, half, 2, true, &ep);
  out->AddAttempted(ep.ops);
  out->AddFailed(ep.failed);
  if (ep.failed > 0) out->GateFailed(std::to_string(ep.failed) + " upserts failed");
  Fixture& f = ep.last;
  const PhaseResult& r = ep.last_phase;
  out->Set("obs.overhead_frac",
           1.0 - Median(Field(ep.metrics, &EpochMetrics::ops_s)) / untraced_ops_s,
           "ratio");

  SetWindowLayerMetrics(ep.last_window, ep.last_window, out);
  out->Set("lsm.merge_bytes_per_user_byte",
           double(ep.last_tracker->merge_bytes()) / double(in.user_bytes),
           "ratio");
  out->Set("lsm.components_per_tree", ComponentsPerTree(f.ds.get()), "count");
  SetExecMetrics(f.registry.get(), r.wall_s, r.max_backlog,
                 TracerMergeWallMs(f.ds.get()), out);
  CheckIngest(&f, in, pool, opt.seed, p, /*recover=*/false, out);

  // core: the measured upserts themselves.
  const auto spans = SpanRecorder::Get().Aggregates();
  const auto& up = spans.at("core.upsert");
  out->Set("core.upsert_ns", up.total_ns / double(up.count), "ns");

  // Layer replays on this run's writes and lookups.
  std::vector<TweetRecord> written;
  std::vector<std::string> lookup_keys;
  std::vector<uint64_t> written_ids;
  for (const auto& stream : in.streams) {
    for (size_t j = 0; j < stream.size(); j += 7) {
      written.push_back(Materialize(stream[j], pool));
      lookup_keys.push_back(written.back().primary_key());
      written_ids.push_back(stream[j].id);
    }
  }
  SetWriteReplayMetrics(ReplayWrites(written, p.writers), out);
  const LookupReplay pk = ReplayLookup(f.ds->primary_key_index(), f.env.get(),
                                       lookup_keys, AbsentKeys(opt.seed), true);
  SetLookupMetrics(pk, out);

  // core gets and queries this workload does not issue itself: probes on
  // the keys it wrote and on user ranges of its records (~7 per user id at
  // the end of an epoch: 15 users ~ 100 rows).
  ProbeGets(f.ds.get(), written_ids, out);
  const QueryProbe qp = ProbeQueries(f.ds.get(), opt.seed, p.user_domain, 15,
                                     200, 0, 0);
  SetQueryProbeMetrics(qp, out);

  const WriteProbe probe = ProbeWrites(
      f.ds.get(), ProbeRecords(opt.seed, pool, p.preload, p.update_fraction,
                               p.user_domain, p.min_msg, 1000));
  if (!probe.ok) out->Note("write probe did not isolate memtable puts");
  out->Set("mem.puts_per_write", probe.puts_per_write, "count");

  const LookupReplay fetch = ReplayLookup(f.ds->primary(), f.env.get(),
                                          qp.fetched_keys, {}, true);
  const LookupReplay validate = ReplayLookup(
      f.ds->primary_key_index(), f.env.get(), qp.fetched_keys, {}, true);
  SetShareMetrics(out, pk, fetch, validate, qp.rows_per_query,
                  qp.candidates_per_query, qp.query_ns);

  SetUnusedServerMetrics(out);
  SpanRecorder::Get().Arm(false);
  FinishSpans(opt, "ingest", out);
}

}  // namespace perfbench
