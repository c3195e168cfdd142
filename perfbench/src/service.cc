// `service`: an open loop on the modeled clock through the request server.
// Four connections into one RequestServer with one dispatch worker (so
// modeled latency is deterministic), an Eager dataset with the tuple cache
// on and sized well below the hot set, and a mix of Zipf point gets,
// limited paginated secondary queries, fresh upserts, updates and deletes.
// Arrivals are Poisson at one absolute rate fixed here and in
// BENCHMARK.json, never a fraction of a capacity the run probes itself.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <tuple>

#include "common/random.h"
#include "format/key_codec.h"
#include "layers.h"
#include "server/server.h"
#include "workload/driver.h"
#include "workloads.h"

namespace perfbench {

namespace {

using auxlsm::DatasetOptions;
using auxlsm::server::Request;
using auxlsm::server::RequestType;
using auxlsm::server::Response;
using auxlsm::server::ResponseCode;

struct Params {
  uint64_t preload = 40000;
  size_t cache_pages = 2048;  // 8 MiB buffer cache
  size_t tuple_cache_bytes = 128u << 10;
  size_t mem_budget_bytes = 1u << 20;
  uint64_t max_mergeable_bytes = 4u << 20;
  uint64_t user_domain = 100000;
  size_t min_msg = 500, max_msg = 500;  // fixed size, as in `ingest`
  double get = 0.40, query = 0.10, upsert = 0.30, update = 0.15;  // rest: delete
  double zipf_theta = 0.99;
  uint64_t width = 100, limit = 30, page_size = 10;
  size_t connections = 4;
  size_t poll_every = 8;
  size_t epoch_requests = 40000;  // one epoch serves the whole script
  int min_epochs = 3;
  int max_epochs = 40;
  size_t gate_requests = 3000;  // strict-order parity prefix
};

/// The one absolute offered rate (requests per modeled second). It sits
/// near 0.6x the saturation throughput sat_ops_s measured at seed 1
/// (56.4 requests per modeled second).
constexpr double kOfferedOpsPerSec = 34;

/// The request script of one epoch: every request and its encoded frame.
struct Script {
  std::vector<Request> requests;  ///< ids 1..n, arrival stamps set
  std::vector<std::string> frames;
  size_t size() const { return requests.size(); }
};

Script MakeScript(const Params& p, uint64_t seed, const TextPool& pool,
                  size_t n) {
  Script s;
  auxlsm::Random rng(seed * 6151 + 9);
  auxlsm::HotKeyOptions ho;
  ho.skew = auxlsm::HotKeyOptions::Skew::kZipf;
  ho.domain = p.preload;
  ho.theta = p.zipf_theta;
  ho.seed = seed * 13 + 1;
  auxlsm::HotKeyGenerator zipf(ho);
  uint64_t written = p.preload;  // ids MixId(seed, 0..written) were written
  double arrival = 0;
  const double gap_us = 1e6 / kOfferedOpsPerSec;
  s.requests.reserve(n);
  s.frames.reserve(n);
  for (size_t i = 0; i < n; i++) {
    Request r;
    r.request_id = i + 1;
    arrival += -gap_us * std::log(1.0 - rng.NextDouble());
    r.arrival_us = arrival;
    const double u = rng.NextDouble();
    if (u < p.get) {
      r.type = RequestType::kGet;
      r.id = MixId(seed, zipf.Next());
    } else if (u < p.get + p.query) {
      r.type = RequestType::kQuery;
      r.range_lo = rng.Uniform(p.user_domain - p.width);
      r.range_hi = r.range_lo + p.width - 1;
      r.limit = p.limit;
      r.page_size = p.page_size;
    } else if (u < p.get + p.query + p.upsert + p.update) {
      WriteOp op;
      const bool update = u >= p.get + p.query + p.upsert;
      op.id = update ? MixId(seed, rng.Uniform(written)) : MixId(seed, written++);
      op.creation_time = p.preload + i + 1;
      FillBody(&rng, pool, p.user_domain, p.min_msg, p.max_msg, &op);
      r.type = RequestType::kUpsert;
      r.record = Materialize(op, pool);
    } else {
      r.type = RequestType::kDelete;
      r.id = MixId(seed, rng.Uniform(written));
    }
    s.frames.push_back(r.EncodeFrame());
    s.requests.push_back(std::move(r));
  }
  return s;
}

struct Fixture {
  // The registry is declared first so it outlives the dataset using it.
  std::unique_ptr<auxlsm::obs::MetricsRegistry> registry;
  std::unique_ptr<Env> env;
  std::unique_ptr<Dataset> ds;
};

/// A fresh preloaded dataset; `traced` arms the engine's metrics registry
/// and tracer.
Fixture MakeFixture(const Params& p, uint64_t seed, const TextPool& pool,
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
  o.strategy = auxlsm::MaintenanceStrategy::kEager;
  o.mem_budget_bytes = p.mem_budget_bytes;
  o.max_mergeable_bytes = p.max_mergeable_bytes;
  o.maintenance_threads = 1;
  o.writer_threads = 1;
  o.tuple_cache_bytes = p.tuple_cache_bytes;
  o.metrics = reg;
  o.trace_buffer_bytes = reg != nullptr ? kTraceBufferBytes : 0;
  f.ds = std::make_unique<Dataset>(f.env.get(), o);
  auxlsm::Random rng(seed * 31 + 5);
  for (uint64_t i = 0; i < p.preload; i++) {
    WriteOp op;
    op.id = MixId(seed, i);
    op.creation_time = i + 1;
    FillBody(&rng, pool, p.user_domain, p.min_msg, p.max_msg, &op);
    if (!f.ds->Upsert(Materialize(op, pool)).ok()) std::abort();
  }
  if (!FlushAll(f.ds.get()).ok()) std::abort();
  return f;
}

/// Order-insensitive fold of every response: (request id, code, count, and
/// each row's id and version), so two runs that served identical results
/// have equal folds.
uint64_t Mix(uint64_t a, uint64_t b, uint64_t c) {
  uint64_t h = a * 0x9E3779B97F4A7C15ULL;
  h ^= (b + 1) * 0xC2B2AE3D27D4EB4FULL;
  h ^= c * 0x165667B19E3779F9ULL;
  return h ^ (h >> 29);
}

struct Fold {
  uint64_t sum = 0, responses = 0, rows = 0;
  void Add(const Response& r, uint64_t first_row) {
    responses++;
    sum += Mix(r.request_id, 0, (uint64_t(r.code) << 32) | r.count);
    uint64_t row = first_row;
    for (const TweetRecord& rec : r.records) {
      sum += Mix(r.request_id, 1 + row++, rec.id ^ (rec.creation_time << 1));
    }
    rows += r.records.size();
  }
  bool operator==(const Fold& o) const {
    return sum == o.sum && responses == o.responses && rows == o.rows;
  }
};

struct ServeResult {
  uint64_t requests = 0;  // script requests completed
  uint64_t errors = 0, continuations = 0, queries = 0;
  double wall_s = 0;
  std::vector<double> wall_us;     // send -> final response harvested
  std::vector<double> modeled_us;  // arrival -> last response completion
  double makespan_us = 0;          // latest modeled completion
  Fold fold;
  double poll_ns = 0;
  uint64_t polls = 0;
  std::vector<Response> sample_responses;
  bool drain_stuck = false;
};

/// Serves script requests [0, n) through `srv`. `strict` = one request at a
/// time, each drained (continuations included) before the next is sent;
/// otherwise the server is polled every poll_every sends and continuations
/// go out as their previous page is harvested. With one dispatch worker
/// both are deterministic on the modeled clock.
ServeResult Serve(auxlsm::server::RequestServer* srv, const Params& p,
                  const Script& s, size_t n, bool strict,
                  const std::vector<std::string>& frames,
                  MergeTracker* tracker = nullptr) {
  ServeResult r;
  std::vector<auxlsm::server::ClientConnection*> conns;
  for (size_t i = 0; i < p.connections; i++) conns.push_back(srv->Connect());
  std::vector<uint64_t> send_ns(n + 1, 0);
  std::vector<uint64_t> rows_seen(n + 1, 0);
  uint64_t outstanding = 0;
  r.modeled_us.reserve(n);
  r.wall_us.reserve(n);

  auto harvest = [&](auxlsm::server::ClientConnection* c) {
    size_t got = 0;
    for (Response& resp : c->Receive()) {
      outstanding--;
      got++;
      const uint64_t id = resp.request_id;
      if (resp.code != ResponseCode::kOk && resp.code != ResponseCode::kNotFound) {
        r.errors++;
      }
      r.fold.Add(resp, rows_seen[id]);
      rows_seen[id] += resp.records.size();
      if (SpanRecorder::Get().armed() && r.sample_responses.size() < 20000) {
        r.sample_responses.push_back(resp);  // encode replay input
      }
      if (resp.code == ResponseCode::kOk && !resp.done && resp.cursor_id != 0) {
        Request next;
        next.request_id = id;
        next.type = RequestType::kCursorNext;
        next.cursor_id = resp.cursor_id;
        next.arrival_us = resp.completion_us;  // pulled as soon as possible
        c->Send(next.EncodeFrame());
        outstanding++;
        r.continuations++;
        continue;
      }
      r.requests++;
      r.wall_us.push_back(double(NowNs() - send_ns[id]) / 1e3);
      r.modeled_us.push_back(resp.completion_us -
                             s.requests[id - 1].arrival_us);
      r.makespan_us = std::max(r.makespan_us, resp.completion_us);
    }
    return got;
  };
  auto poll = [&]() {
    PB_SPAN("server.poll", 0);
    const uint64_t t0 = NowNs();
    const size_t d = srv->Poll();
    r.poll_ns += double(NowNs() - t0);
    r.polls++;
    if (tracker != nullptr && r.polls % 16 == 0) tracker->Poll();
    size_t got = 0;
    for (auto* c : conns) got += harvest(c);
    return d + got;
  };

  const uint64_t start = NowNs();
  size_t sent = 0;
  for (size_t i = 0; i < n; i++) {
    if (s.requests[i].type == RequestType::kQuery) r.queries++;
    {
      PB_SPAN("client.send", i + 1);
      send_ns[i + 1] = NowNs();
      conns[i % conns.size()]->Send(frames[i]);
    }
    outstanding++;
    sent++;
    if (strict) {
      while (outstanding > 0) {
        if (poll() == 0) {
          r.drain_stuck = true;
          break;
        }
      }
    } else if (sent % p.poll_every == 0) {
      poll();
    }
  }
  while (outstanding > 0) {
    if (poll() == 0) {
      r.drain_stuck = true;
      break;
    }
  }
  r.wall_s = double(NowNs() - start) / 1e9;
  for (auto* c : conns) srv->Disconnect(c);
  return r;
}

/// Benchmark-local in-process replay of the script (RunOpenLoopInProcess
/// does not replay deletes): the same requests applied directly to a
/// dataset in script order, folded like the served responses.
Fold ReplayInProcess(Dataset* ds, const Script& s, size_t n, bool* ok) {
  Fold fold;
  *ok = true;
  for (size_t i = 0; i < n; i++) {
    const Request& req = s.requests[i];
    Response r;
    r.request_id = req.request_id;
    r.code = ResponseCode::kOk;
    switch (req.type) {
      case RequestType::kUpsert:
        *ok &= ds->Upsert(req.record).ok();
        r.count = 1;
        fold.Add(r, 0);
        break;
      case RequestType::kDelete:
        *ok &= ds->Delete(req.id).ok();
        r.count = 1;
        fold.Add(r, 0);
        break;
      case RequestType::kGet: {
        TweetRecord rec;
        const auxlsm::Status st = ds->GetById(req.id, &rec);
        if (st.IsNotFound()) {
          r.code = ResponseCode::kNotFound;
        } else {
          *ok &= st.ok();
          r.count = 1;
          r.records.push_back(rec);
        }
        fold.Add(r, 0);
        break;
      }
      case RequestType::kQuery: {
        auxlsm::ReadQuery q;
        q.Secondary().Range(req.range_lo, req.range_hi).Limit(req.limit).PageSize(
            req.page_size);
        auto cursor = ds->NewCursor(q);
        if (!cursor.ok()) {
          *ok = false;
          break;
        }
        uint64_t row = 0;
        do {
          auxlsm::QueryPage page;
          *ok &= (*cursor)->Next(&page).ok();
          Response pr;
          pr.request_id = req.request_id;
          pr.code = ResponseCode::kOk;
          pr.records = std::move(page.records);
          pr.count = pr.records.size();
          fold.Add(pr, row);
          row += pr.records.size();
        } while (*ok && !(*cursor)->done());
        break;
      }
      default:
        *ok = false;
    }
  }
  return fold;
}

struct Modeled {
  double io_us_per_op = 0, p50 = 0, p99 = 0, sat = 0;
};

void SetModeled(const Modeled& m, Report* out) {
  out->Set("io_us_per_op", m.io_us_per_op, "us");
  out->Set("modeled_p50_us", m.p50, "us");
  out->Set("modeled_p99_us", m.p99, "us");
  out->Set("sat_ops_s", m.sat, "ops/s");
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// One epoch: the whole script served on a fresh fixture.
struct Epoch {
  Fixture f;
  ServeResult served;
  Window w;
  Modeled modeled;  // all but sat: exact per seed
  double rss_mb = 0;
  double setup_s = 0;
  auxlsm::server::ServerStats server;
  std::unique_ptr<MergeTracker> tracker;
};

void RunEpoch(const Params& p, uint64_t seed, const TextPool& pool,
              const Script& s, bool traced, Epoch* e) {
  const uint64_t t0 = NowNs();
  e->f = MakeFixture(p, seed, pool, traced);
  e->setup_s = double(NowNs() - t0) / 1e9;
  if (traced) e->tracker = std::make_unique<MergeTracker>(e->f.ds.get());
  auxlsm::server::ServerOptions so;
  so.metrics = e->f.registry.get();
  auxlsm::server::RequestServer srv(e->f.ds.get(), so);
  e->w.before = EngineStats::Capture(e->f.ds.get());
  e->served = Serve(&srv, p, s, s.size(), false, s.frames, e->tracker.get());
  e->rss_mb = RssMb();
  e->server = srv.stats();
  if (e->tracker) e->tracker->Poll();
  e->w.after = EngineStats::Capture(e->f.ds.get());
  e->w.ops = e->served.requests;
  for (const Request& r : s.requests) {
    if (r.type == RequestType::kUpsert || r.type == RequestType::kDelete) {
      e->w.writes++;
    }
    if (r.type == RequestType::kUpsert) {
      e->w.user_bytes += r.record.Serialize().size();
    }
  }
  const auxlsm::IoStats st = e->w.after.storage - e->w.before.storage;
  const auxlsm::IoStats lg = e->w.after.log - e->w.before.log;
  e->modeled.io_us_per_op =
      (st.simulated_us + lg.simulated_us) / double(e->served.requests);
  std::vector<double> lat = e->served.modeled_us;
  std::tie(e->modeled.p50, e->modeled.p99) = P50P99(&lat);
}

/// Saturation throughput: the script with no arrival stamps, served back
/// to back on a fresh fixture, divided by its modeled makespan.
double Saturation(const Params& p, uint64_t seed, const TextPool& pool,
                  const Script& s, bool traced) {
  Fixture f = MakeFixture(p, seed, pool, traced);
  auxlsm::server::ServerOptions so;
  so.metrics = f.registry.get();
  auxlsm::server::RequestServer srv(f.ds.get(), so);
  std::vector<std::string> frames;
  frames.reserve(s.size());
  for (const Request& r : s.requests) {
    Request unstamped = r;
    unstamped.arrival_us = 0;
    frames.push_back(unstamped.EncodeFrame());
  }
  const ServeResult r = Serve(&srv, p, s, s.size(), false, frames);
  return double(r.requests) * 1e6 / r.makespan_us;
}

/// Runs epochs until `budget_s` of measured time (at least `min_epochs`);
/// keeps the last one. Every epoch replays the same script on the same
/// fresh dataset with one dispatch worker, so their modeled metrics must
/// agree bit for bit — checked here.
struct Epochs {
  std::vector<double> ops_s, wall_p50, wall_p99, rss_mb, setup_s;
  Modeled modeled;
  Epoch last;
  uint64_t requests = 0, errors = 0;
  bool deterministic = true, stuck = false;
};

void RunEpochs(const Params& p, uint64_t seed, const TextPool& pool,
               const Script& s, double budget_s, int min_epochs, bool traced,
               Epochs* out) {
  double measured = 0;
  for (int i = 0; i < p.max_epochs && (i < min_epochs || measured < budget_s);
       i++) {
    out->last = Epoch{};  // release the previous epoch before the next
    ReleaseFreeMemory();
    RunEpoch(p, seed, pool, s, traced, &out->last);
    const Epoch& e = out->last;
    measured += e.served.wall_s;
    out->requests += e.served.requests;
    out->errors += e.served.errors;
    out->stuck |= e.served.drain_stuck;
    std::vector<double> lat = e.served.wall_us;
    const auto [p50, p99] = P50P99(&lat);
    out->ops_s.push_back(double(e.served.requests) / e.served.wall_s);
    out->wall_p50.push_back(p50);
    out->wall_p99.push_back(p99);
    out->rss_mb.push_back(e.rss_mb);
    out->setup_s.push_back(e.setup_s);
    if (i == 0) {
      out->modeled = e.modeled;
    } else if (!SameBits(out->modeled.io_us_per_op, e.modeled.io_us_per_op) ||
               !SameBits(out->modeled.p50, e.modeled.p50) ||
               !SameBits(out->modeled.p99, e.modeled.p99)) {
      out->deterministic = false;
    }
  }
}

void CheckEpochs(const Epochs& ep, Report* out) {
  out->AddAttempted(ep.requests);
  out->AddFailed(ep.errors);
  if (ep.errors > 0 || ep.stuck) {
    out->GateFailed(std::to_string(ep.errors) +
                    " requests failed in the served runs");
  }
  if (!ep.deterministic) {
    out->GateFailed("modeled metrics differ between identical epochs");
  }
}

/// Serialized bytes of every live record (a primary scan).
uint64_t LiveBytes(Dataset* ds, uint64_t user_domain, uint64_t* records) {
  auto cursor = ds->NewCursor(auxlsm::Query().Range(0, user_domain));
  uint64_t bytes = 0;
  *records = 0;
  if (!cursor.ok()) return 0;
  while (!(*cursor)->done()) {
    auxlsm::QueryPage page;
    if (!(*cursor)->Next(&page).ok()) return 0;
    for (const TweetRecord& rec : page.records) {
      bytes += rec.Serialize().size();
      (*records)++;
    }
  }
  return bytes;
}

/// Strict-order pass of the gate prefix vs the in-process replay.
void CheckParity(const Params& p, uint64_t seed, const TextPool& pool,
                 const Script& s, Report* out) {
  Fixture served = MakeFixture(p, seed, pool, false);
  auxlsm::server::RequestServer srv(served.ds.get(), {});
  const ServeResult r = Serve(&srv, p, s, p.gate_requests, true, s.frames);
  Fixture direct = MakeFixture(p, seed, pool, false);
  bool ok = true;
  const Fold want = ReplayInProcess(direct.ds.get(), s, p.gate_requests, &ok);
  if (!ok || r.drain_stuck || r.errors > 0 || !(r.fold == want)) {
    out->GateFailed("strict-order served run differs from the in-process "
                    "replay over " + std::to_string(p.gate_requests) +
                    " requests");
  } else {
    out->GatePassed("strict-order served run matches the in-process replay (" +
                    std::to_string(p.gate_requests) + " requests, " +
                    std::to_string(r.fold.rows) + " rows)");
  }
}

}  // namespace

void RunService(const RunOptions& opt, Report* out) {
  const Params p;
  out->Param("strategy", "eager");
  out->Param("loop", "open, modeled-clock Poisson arrivals");
  out->Param("offered_ops_s", kOfferedOpsPerSec);
  out->Param("generator_late_us", 0.0);
  out->Param("connections", double(p.connections));
  out->Param("dispatch_workers", 1.0);
  out->Param("poll_every", double(p.poll_every));
  out->Param("preload_records", double(p.preload));
  out->Param("epoch_requests", double(p.epoch_requests));
  out->Param("tuple_cache_bytes", double(p.tuple_cache_bytes));
  out->Param("buffer_cache_bytes", double(p.cache_pages * 4096));
  out->Param("mix", "40% zipf get, 10% paginated query, 30% upsert, "
                    "15% update, 5% delete");
  out->Param("zipf_theta", p.zipf_theta);
  out->Param("query", "width 100 users, limit 30, page 10");
  out->Param("message_bytes", double(p.min_msg));
  out->Param("device", "hdd, 1 storage queue, 1 log queue");
  out->Note("arrival stamps are fixed before timing on the modeled clock, so "
            "the generator is never late (generator_late_us = 0)");
  const TextPool pool(opt.seed);
  const uint64_t g0 = NowNs();
  const Script s = MakeScript(p, opt.seed, pool, p.epoch_requests);
  const double generate_s = double(NowNs() - g0) / 1e9;

  if (!opt.trace) {
    Epochs ep;
    RunEpochs(p, opt.seed, pool, s, opt.seconds, p.min_epochs, false, &ep);
    CheckEpochs(ep, out);
    ep.modeled.sat = Saturation(p, opt.seed, pool, s, false);
    out->Set("setup_s", generate_s + Median(ep.setup_s), "s");
    out->Set("ops_s", Median(ep.ops_s), "ops/s");
    out->Set("wall_p50_us", Median(ep.wall_p50), "us");
    out->Set("wall_p99_us", Median(ep.wall_p99), "us");
    SetModeled(ep.modeled, out);
    const Epoch& e = ep.last;
    const auxlsm::IoStats st = e.w.after.storage - e.w.before.storage;
    const auxlsm::IoStats lg = e.w.after.log - e.w.before.log;
    out->Set("write_amp",
             double(st.pages_written + lg.pages_written) * 4096.0 /
                 double(e.w.user_bytes),
             "ratio");
    uint64_t live_records = 0;
    const uint64_t live = LiveBytes(e.f.ds.get(), p.user_domain, &live_records);
    out->Set("space_amp", double(DiskBytes(e.f.ds.get())) / double(live),
             "ratio");
    out->Set("peak_rss_mb", Median(ep.rss_mb), "MiB");
    if (live_records != e.f.ds->num_records()) {
      out->GateFailed("primary scan saw " + std::to_string(live_records) +
                      " records, the dataset counts " +
                      std::to_string(e.f.ds->num_records()));
    }
    out->Note(std::to_string(ep.ops_s.size()) + " epochs of " +
              std::to_string(p.epoch_requests) +
              " requests; wall timings are medians over epochs, modeled "
              "ones identical in every epoch; continuations per epoch: " +
              std::to_string(e.served.continuations));
    CheckParity(p, opt.seed, pool, s, out);
    return;
  }

  // Traced run: untraced epochs (overhead baseline and armed-but-quiet
  // reference), then traced ones; layer metrics describe the last.
  const double half = opt.seconds / 2;
  Report untraced, traced;
  double untraced_ops_s = 0;
  {
    Epochs ep;
    RunEpochs(p, opt.seed, pool, s, half, 2, false, &ep);
    CheckEpochs(ep, out);
    untraced_ops_s = Median(ep.ops_s);
    ep.modeled.sat = Saturation(p, opt.seed, pool, s, false);
    SetModeled(ep.modeled, &untraced);
  }
  SpanRecorder::Get().Arm(true);
  Epochs ep;
  RunEpochs(p, opt.seed, pool, s, half, 2, true, &ep);
  CheckEpochs(ep, out);
  ep.modeled.sat = Saturation(p, opt.seed, pool, s, true);
  SetModeled(ep.modeled, &traced);
  CheckArmedButQuiet(untraced, traced,
                     {"io_us_per_op", "modeled_p50_us", "modeled_p99_us",
                      "sat_ops_s"},
                     out);
  out->Set("obs.overhead_frac", 1.0 - Median(ep.ops_s) / untraced_ops_s,
           "ratio");
  Epoch& e = ep.last;
  Fixture& f = e.f;

  SetWindowLayerMetrics(e.w, e.w, out);
  out->Set("lsm.merge_bytes_per_user_byte",
           double(e.tracker->merge_bytes()) / double(e.w.user_bytes), "ratio");
  out->Set("lsm.components_per_tree", ComponentsPerTree(f.ds.get()), "count");
  SetExecMetrics(f.registry.get(), e.served.wall_s, 0,
                 TracerMergeWallMs(f.ds.get()), out);

  // server
  const auxlsm::server::ServerStats& ss = e.server;
  out->Set("server.poll_ns_per_request",
           e.served.poll_ns /
               double(std::max<uint64_t>(ss.requests_dispatched, 1)),
           "ns");
  out->Set("server.batch_size",
           double(ss.requests_dispatched) /
               double(std::max<uint64_t>(ss.batches, 1)),
           "count");
  out->Set("server.continuations_per_query",
           double(e.served.continuations) /
               double(std::max<uint64_t>(e.served.queries, 1)),
           "count");
  out->Set("server.retryable_per_kop",
           double(ss.retryable_errors) * 1000 /
               double(std::max<uint64_t>(e.served.requests, 1)),
           "count");
  {
    PB_SPAN("replay.server.decode", 0);
    const size_t n = std::min<size_t>(s.size(), 20000);
    const uint64_t t0 = NowNs();
    for (size_t i = 0; i < n; i++) {
      auxlsm::Slice body;
      size_t consumed = 0;
      std::string err;
      Request req;
      if (auxlsm::server::DecodeFrame(s.frames[i],
                                      auxlsm::server::kDefaultMaxFrameBytes,
                                      &body, &consumed, &err) ==
          auxlsm::server::FrameResult::kOk) {
        (void)Request::DecodeBody(body, &req);
      }
    }
    out->Set("server.decode_ns", double(NowNs() - t0) / double(n), "ns");
  }
  {
    PB_SPAN("replay.server.encode", 0);
    const auto& rs = e.served.sample_responses;
    uint64_t bytes = 0;
    const uint64_t t0 = NowNs();
    for (const Response& r : rs) bytes += r.EncodeFrame().size();
    out->Set("server.encode_ns",
             bytes > 0 ? double(NowNs() - t0) / double(rs.size()) : 0, "ns");
  }

  // Captured inputs: point-get keys, query ranges and written records.
  std::vector<uint64_t> get_ids;
  std::vector<std::pair<uint64_t, uint64_t>> ranges;
  std::vector<TweetRecord> written;
  for (const Request& r : s.requests) {
    if (r.type == RequestType::kGet) get_ids.push_back(r.id);
    if (r.type == RequestType::kQuery) ranges.push_back({r.range_lo, r.range_hi});
    if (r.type == RequestType::kUpsert) written.push_back(r.record);
  }
  if (auxlsm::TupleCache* tc = f.ds->tuple_cache()) {
    PB_SPAN("replay.cache.lookup", 0);
    uint64_t calls = 0;
    const uint64_t t0 = NowNs();
    for (uint64_t id : get_ids) {
      bool found = false;
      std::string value;
      tc->LookupPoint(id, &found, &value);
      calls++;
    }
    for (const auto& [lo, hi] : ranges) {
      auxlsm::TupleCache::RangeServe serve;
      tc->LookupRange(Dataset::TupleCacheSpaceOf(0), lo, hi, &serve);
      calls++;
    }
    out->Set("cache.lookup_ns",
             double(NowNs() - t0) / double(std::max<uint64_t>(calls, 1)), "ns");
  }

  // core: direct probes of the calls the server made on the workload's behalf.
  ProbeGets(f.ds.get(), get_ids, out);
  const QueryProbe qp = ProbeQueries(f.ds.get(), opt.seed, p.user_domain,
                                     p.width, 200, p.limit, p.page_size);
  SetQueryProbeMetrics(qp, out);

  std::vector<std::string> get_keys, written_keys;
  for (uint64_t id : get_ids) get_keys.push_back(auxlsm::EncodeU64(id));
  for (const TweetRecord& rec : written) written_keys.push_back(rec.primary_key());
  SetLookupMetrics(ReplayLookup(f.ds->primary(), f.env.get(), get_keys,
                                AbsentKeys(opt.seed), true),
                   out);
  SetWriteReplayMetrics(ReplayWrites(written, 1), out);

  // Write probe: the mix's fresh upserts and updates of preloaded keys.
  const WriteProbe wp = ProbeWrites(
      f.ds.get(), ProbeRecords(opt.seed, pool, p.preload,
                               p.update / (p.upsert + p.update), p.user_domain,
                               p.min_msg, 1000));
  if (!wp.ok) out->Note("write probe did not isolate memtable puts");
  out->Set("core.upsert_ns", wp.upsert_ns, "ns");
  out->Set("mem.puts_per_write", wp.puts_per_write, "count");
  // Eager upserts look the old record up in the primary index.
  const LookupReplay wl = ReplayLookup(f.ds->primary(), f.env.get(),
                                       written_keys, {}, true);
  const LookupReplay fetch = ReplayLookup(f.ds->primary(), f.env.get(),
                                          qp.fetched_keys, {}, true);
  SetShareMetrics(out, wl, fetch, LookupReplay{}, qp.rows_per_query, 0,
                  qp.query_ns);
  SpanRecorder::Get().Arm(false);
  FinishSpans(opt, "service", out);
}

}  // namespace perfbench
