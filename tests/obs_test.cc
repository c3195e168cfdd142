// Observability layer (PR 8): histogram bucketing and percentile readout,
// concurrent recording, registry get-or-create and gauge semantics,
// snapshot-JSON round-trip, tracer span nesting / ring-overflow semantics,
// Chrome export validity, the stats-struct operator- ergonomics, and the
// armed-but-quiet parity contract — a metrics registry plus tracer wired to
// an otherwise identical workload must not move one modeled microsecond,
// across all four maintenance strategies.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "core/dataset.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace auxlsm {
namespace {

using obs::Histogram;
using obs::HistogramSnapshot;
using obs::MetricsRegistry;
using obs::MetricsSnapshot;
using obs::TraceEvent;
using obs::Tracer;
using obs::TraceSpan;

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(HistogramTest, ExactBucketsBelowLimit) {
  for (uint64_t v = 0; v < Histogram::kExactLimit; v++) {
    EXPECT_EQ(Histogram::BucketOf(v), size_t(v));
    EXPECT_EQ(Histogram::BucketUpper(size_t(v)), v);
  }
}

TEST(HistogramTest, BucketBoundsContainValueWithinQuarterRelativeError) {
  std::vector<uint64_t> probes;
  for (uint64_t v = Histogram::kExactLimit; v < 4096; v++) probes.push_back(v);
  for (int shift = 12; shift < 63; shift++) {
    probes.push_back((uint64_t(1) << shift) - 1);
    probes.push_back(uint64_t(1) << shift);
    probes.push_back((uint64_t(1) << shift) + (uint64_t(1) << (shift - 1)));
  }
  for (uint64_t v : probes) {
    const size_t idx = Histogram::BucketOf(v);
    const uint64_t upper = Histogram::BucketUpper(idx);
    ASSERT_GE(upper, v) << v;
    // <= 25% relative overestimate: the bucket's upper bound is within a
    // quarter of the value (sub-bucket width is lower/4 or less).
    ASSERT_LE(double(upper - v), 0.25 * double(v) + 1) << v;
  }
}

TEST(HistogramTest, BucketUpperIsStrictlyMonotone) {
  for (size_t i = 1; i < Histogram::kNumBuckets; i++) {
    ASSERT_LT(Histogram::BucketUpper(i - 1), Histogram::BucketUpper(i)) << i;
  }
}

TEST(HistogramTest, PercentilesExactInUnitBuckets) {
  Histogram h;
  // 50 x 4, 40 x 5, 10 x 7: nearest-rank p50 = 4, p90 = 5, p99 = 7.
  for (int i = 0; i < 50; i++) h.Record(4);
  for (int i = 0; i < 40; i++) h.Record(5);
  for (int i = 0; i < 10; i++) h.Record(7);
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.sum, 50u * 4 + 40u * 5 + 10u * 7);
  EXPECT_EQ(s.max, 7u);
  EXPECT_EQ(s.p50, 4u);
  EXPECT_EQ(s.p90, 5u);
  EXPECT_EQ(s.p99, 7u);
  EXPECT_DOUBLE_EQ(s.mean(), double(s.sum) / 100.0);
}

TEST(HistogramTest, PercentilesClampToExactMax) {
  Histogram h;
  h.Record(1000000);  // one sample: every percentile is the exact max
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.max, 1000000u);
  EXPECT_EQ(s.p50, 1000000u);
  EXPECT_EQ(s.p99, 1000000u);
}

TEST(HistogramTest, EmptySnapshotIsZero) {
  Histogram h;
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.max, 0u);
  EXPECT_EQ(s.p50, 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(HistogramTest, ConcurrentRecordingLosesNothing) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&h, t]() {
      for (uint64_t i = 0; i < kPerThread; i++) {
        h.Record(uint64_t(t) * 1000 + (i % 97));
      }
    });
  }
  for (auto& t : threads) t.join();
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, uint64_t(kThreads) * kPerThread);
  uint64_t expect_sum = 0;
  for (int t = 0; t < kThreads; t++) {
    for (uint64_t i = 0; i < kPerThread; i++) {
      expect_sum += uint64_t(t) * 1000 + (i % 97);
    }
  }
  EXPECT_EQ(s.sum, expect_sum);
  EXPECT_EQ(s.max, 7u * 1000 + 96);
}

// ---------------------------------------------------------------------------
// Registry + snapshot JSON
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, GetOrCreateReturnsStablePointers) {
  MetricsRegistry reg;
  obs::Counter* c1 = reg.counter("ingest.ops");
  obs::Counter* c2 = reg.counter("ingest.ops");
  EXPECT_EQ(c1, c2);
  ++*c1;
  *c1 += 4;
  Histogram* h1 = reg.histogram("lat_ns");
  Histogram* h2 = reg.histogram("lat_ns");
  EXPECT_EQ(h1, h2);
  h1->Record(3);
  reg.SetGauge("depth", [] { return 12.5; });

  const MetricsSnapshot s = reg.Snapshot();
  ASSERT_EQ(s.values.count("ingest.ops"), 1u);
  EXPECT_DOUBLE_EQ(s.values.at("ingest.ops"), 5.0);
  ASSERT_EQ(s.values.count("depth"), 1u);
  EXPECT_DOUBLE_EQ(s.values.at("depth"), 12.5);
  ASSERT_EQ(s.histograms.count("lat_ns"), 1u);
  EXPECT_EQ(s.histograms.at("lat_ns").count, 1u);
}

TEST(MetricsSnapshotTest, JsonRoundTrip) {
  MetricsSnapshot s;
  s.Set("a.count", 42);
  s.Set("b.ratio", 0.125);
  s.Set("c \"quoted\"\\path\n", 3);  // name needing escapes
  HistogramSnapshot h;
  h.count = 7;
  h.sum = 700;
  h.max = 250;
  h.p50 = 90;
  h.p90 = 200;
  h.p99 = 250;
  s.histograms["lat_ns"] = h;

  const std::string json = s.ToJson();
  MetricsSnapshot back;
  ASSERT_TRUE(MetricsSnapshot::FromJson(json, &back)) << json;
  EXPECT_EQ(back.values.size(), s.values.size());
  for (const auto& [k, v] : s.values) {
    ASSERT_EQ(back.values.count(k), 1u) << k;
    EXPECT_DOUBLE_EQ(back.values.at(k), v) << k;
  }
  ASSERT_EQ(back.histograms.count("lat_ns"), 1u);
  const HistogramSnapshot& bh = back.histograms.at("lat_ns");
  EXPECT_EQ(bh.count, h.count);
  EXPECT_EQ(bh.sum, h.sum);
  EXPECT_EQ(bh.max, h.max);
  EXPECT_EQ(bh.p50, h.p50);
  EXPECT_EQ(bh.p90, h.p90);
  EXPECT_EQ(bh.p99, h.p99);
  // Stability: serializing the parse reproduces the exact bytes.
  EXPECT_EQ(back.ToJson(), json);
}

TEST(MetricsSnapshotTest, FromJsonRejectsMalformed) {
  MetricsSnapshot out;
  EXPECT_FALSE(MetricsSnapshot::FromJson("", &out));
  EXPECT_FALSE(MetricsSnapshot::FromJson("{\"values\":", &out));
  EXPECT_FALSE(MetricsSnapshot::FromJson("not json", &out));
}

TEST(MetricsSnapshotTest, MergePrefersOther) {
  MetricsSnapshot a, b;
  a.Set("x", 1);
  a.Set("y", 2);
  b.Set("y", 20);
  b.histograms["h"].count = 3;
  a.Merge(b);
  EXPECT_DOUBLE_EQ(a.values.at("x"), 1);
  EXPECT_DOUBLE_EQ(a.values.at("y"), 20);
  EXPECT_EQ(a.histograms.at("h").count, 3u);
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

TEST(TracerTest, SpanNestingRecordsBothWithContainment) {
  Tracer tracer(1 << 16);
  double modeled = 100.0;
  tracer.set_modeled_clock([&modeled] { return modeled; });
  {
    TraceSpan outer(&tracer, "outer", "test");
    modeled += 40;
    {
      TraceSpan inner(&tracer, "inner", "test", /*queue=*/2);
      modeled += 10;
    }
    modeled += 5;
  }
  std::vector<TraceEvent> events = tracer.Drain();
  ASSERT_EQ(events.size(), 2u);
  // Destruction order: inner records first.
  const TraceEvent& inner = events[0];
  const TraceEvent& outer = events[1];
  EXPECT_STREQ(inner.name, "inner");
  EXPECT_STREQ(outer.name, "outer");
  EXPECT_EQ(inner.queue, 2);
  EXPECT_EQ(inner.tid, outer.tid);
  // Wall containment: inner starts at/after outer and ends at/before it.
  EXPECT_GE(inner.wall_ts_us, outer.wall_ts_us);
  EXPECT_LE(inner.wall_ts_us + inner.wall_dur_us,
            outer.wall_ts_us + outer.wall_dur_us + 1e-6);
  // Modeled stamps follow the virtual clock: outer spans 55 us, inner 10.
  EXPECT_DOUBLE_EQ(outer.modeled_ts_us, 100.0);
  EXPECT_DOUBLE_EQ(outer.modeled_dur_us, 55.0);
  EXPECT_DOUBLE_EQ(inner.modeled_ts_us, 140.0);
  EXPECT_DOUBLE_EQ(inner.modeled_dur_us, 10.0);
}

TEST(TracerTest, RingOverflowKeepsNewestAndCountsDropped) {
  Tracer tracer(16 * sizeof(TraceEvent));  // tiny ring (min 16 events)
  const size_t cap = tracer.events_per_thread();
  const size_t extra = 5;
  for (size_t i = 0; i < cap + extra; i++) {
    tracer.Instant(("e" + std::to_string(i)).c_str(), "test");
  }
  EXPECT_EQ(tracer.dropped(), extra);
  std::vector<TraceEvent> events = tracer.Drain();
  ASSERT_EQ(events.size(), cap);
  // Oldest-first drain of the newest `cap` events.
  EXPECT_STREQ(events.front().name, ("e" + std::to_string(extra)).c_str());
  EXPECT_STREQ(events.back().name,
               ("e" + std::to_string(cap + extra - 1)).c_str());
  // Drain cleared the rings.
  EXPECT_TRUE(tracer.Drain().empty());
}

TEST(TracerTest, ThreadsGetDistinctTids) {
  Tracer tracer(1 << 16);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; t++) {
    threads.emplace_back([&tracer] { tracer.Instant("hi", "test"); });
  }
  for (auto& t : threads) t.join();
  std::vector<TraceEvent> events = tracer.Drain();
  ASSERT_EQ(events.size(), 4u);
  std::vector<uint32_t> tids;
  for (const auto& e : events) tids.push_back(e.tid);
  std::sort(tids.begin(), tids.end());
  EXPECT_EQ(std::unique(tids.begin(), tids.end()), tids.end());
}

TEST(TracerTest, ChromeExportShapesEvents) {
  Tracer tracer(1 << 16);
  double modeled = 0;
  tracer.set_modeled_clock([&modeled] { return modeled; });
  {
    TraceSpan span(&tracer, "flush_build(user_id)", "maintenance", 1);
    modeled += 123.5;
  }
  tracer.Instant("dataset.degraded", "health");
  const std::string json = Tracer::ToChromeJson(tracer.Drain());
  // Chrome trace-event envelope and both timelines.
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"flush_build(user_id)\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"maintenance\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // complete event
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // instant event
  EXPECT_NE(json.find("\"modeled_ts_us\""), std::string::npos);
  EXPECT_NE(json.find("\"modeled_dur_us\":123.5"), std::string::npos);
  EXPECT_NE(json.find("\"queue\":1"), std::string::npos);
  // Balanced braces/brackets (cheap well-formedness check).
  int depth = 0;
  bool in_str = false;
  for (size_t i = 0; i < json.size(); i++) {
    const char c = json[i];
    if (in_str) {
      if (c == '\\') i++;
      else if (c == '"') in_str = false;
    } else if (c == '"') {
      in_str = true;
    } else if (c == '{' || c == '[') {
      depth++;
    } else if (c == '}' || c == ']') {
      depth--;
    }
  }
  EXPECT_EQ(depth, 0);
}

// ---------------------------------------------------------------------------
// Stats-struct operator- ergonomics (satellite)
// ---------------------------------------------------------------------------

TEST(StatsDeltaTest, WalStatsSubtracts) {
  WalStats a, b;
  a.records = 100;
  a.commits = 50;
  a.syncs = 9;
  a.batched_commits = 41;
  a.commit_latency_us_total = 900.0;
  a.commit_latency_us_max = 80.0;
  b.records = 40;
  b.commits = 20;
  b.syncs = 4;
  b.batched_commits = 16;
  b.commit_latency_us_total = 300.0;
  b.commit_latency_us_max = 80.0;
  const WalStats d = a - b;
  EXPECT_EQ(d.records, 60u);
  EXPECT_EQ(d.commits, 30u);
  EXPECT_EQ(d.syncs, 5u);
  EXPECT_EQ(d.batched_commits, 25u);
  EXPECT_DOUBLE_EQ(d.commit_latency_us_total, 600.0);
  EXPECT_DOUBLE_EQ(d.commit_latency_us_max, 80.0);  // high-water kept
}

TEST(StatsDeltaTest, MaintenanceStatsSubtracts) {
  MaintenanceStats a;
  a.transient_failures = 7;
  a.retries_attempted = 6;
  a.retries_succeeded = 5;
  a.rounds_abandoned = 2;
  a.degraded_transitions = 1;
  MaintenanceStats b;
  b.transient_failures = 3;
  b.retries_attempted = 2;
  b.retries_succeeded = 2;
  b.rounds_abandoned = 1;
  b.degraded_transitions = 0;
  const MaintenanceStats d = a - b;
  EXPECT_EQ(d.transient_failures.load(), 4u);
  EXPECT_EQ(d.retries_attempted.load(), 4u);
  EXPECT_EQ(d.retries_succeeded.load(), 3u);
  EXPECT_EQ(d.rounds_abandoned.load(), 1u);
  EXPECT_EQ(d.degraded_transitions.load(), 1u);
}

TEST(StatsDeltaTest, TupleCacheStatsSubtracts) {
  TupleCacheStats a;
  a.hits = 10;
  a.chain_served = 30;
  a.misses = 5;
  a.invalidations = 4;
  a.evictions = 3;
  a.inserts = 12;
  a.stale_drops = 2;
  a.resident_bytes = 4096;
  TupleCacheStats b;
  b.hits = 4;
  b.chain_served = 10;
  b.misses = 2;
  b.invalidations = 1;
  b.evictions = 1;
  b.inserts = 5;
  b.stale_drops = 0;
  b.resident_bytes = 9999;  // ignored: level gauge
  const TupleCacheStats d = a - b;
  EXPECT_EQ(d.hits, 6u);
  EXPECT_EQ(d.chain_served, 20u);
  EXPECT_EQ(d.misses, 3u);
  EXPECT_EQ(d.invalidations, 3u);
  EXPECT_EQ(d.evictions, 2u);
  EXPECT_EQ(d.inserts, 7u);
  EXPECT_EQ(d.stale_drops, 2u);
  EXPECT_EQ(d.resident_bytes, 4096u);  // minuend's current value kept
}

// ---------------------------------------------------------------------------
// Dataset integration: snapshot contents, DebugString, armed-parity
// ---------------------------------------------------------------------------

TweetRecord MakeTweet(uint64_t id) {
  TweetRecord r;
  r.id = id;
  r.user_id = id % 100;
  r.location = id % 2 ? "CA" : "NY";
  r.creation_time = 1000 + id;
  r.message = "observability #" + std::to_string(id);
  return r;
}

/// Small deterministic workload: enough upserts to trigger flushes and
/// merges, one delete, then a point read and a secondary query.
void RunWorkload(Env* env, Dataset* ds) {
  for (uint64_t i = 1; i <= 3000; i++) {
    ASSERT_TRUE(ds->Upsert(MakeTweet(i)).ok());
  }
  ASSERT_TRUE(ds->Delete(7).ok());
  ASSERT_TRUE(ds->FlushAll().ok());
  TweetRecord got;
  ASSERT_TRUE(ds->GetById(42, &got).ok());
  QueryResult res;
  SecondaryQueryOptions q;
  ASSERT_TRUE(ds->QueryUserRange(10, 20, q, &res).ok());
  (void)env;
}

DatasetOptions SmallOptions(MaintenanceStrategy strategy) {
  DatasetOptions o;
  o.strategy = strategy;
  o.mem_budget_bytes = 256 << 10;
  o.max_mergeable_bytes = 2 << 20;
  return o;
}

TEST(DatasetObsTest, MetricsSnapshotFoldsEverySubsystem) {
  MetricsRegistry reg;
  EnvOptions eo;
  eo.metrics = &reg;
  Env env(eo);
  DatasetOptions o = SmallOptions(MaintenanceStrategy::kValidation);
  o.metrics = &reg;
  o.trace_buffer_bytes = 1 << 16;
  Dataset ds(&env, o);
  RunWorkload(&env, &ds);

  const MetricsSnapshot s = ds.MetricsSnapshot();
  // Folded stats-struct counters.
  EXPECT_DOUBLE_EQ(s.values.at("ingest.upserts"), 3000.0);
  EXPECT_DOUBLE_EQ(s.values.at("ingest.deletes"), 1.0);
  EXPECT_GT(s.values.at("maintenance.flushes"), 0.0);
  EXPECT_GT(s.values.at("wal.records"), 0.0);
  EXPECT_GT(s.values.at("io.storage.pages_written"), 0.0);
  EXPECT_GT(s.values.at("io.storage.simulated_us"), 0.0);
  EXPECT_GE(s.values.at("io.log.simulated_us"), 0.0);
  EXPECT_DOUBLE_EQ(s.values.at("dataset.degraded"), 0.0);
  EXPECT_DOUBLE_EQ(s.values.at("dataset.records"), 2999.0);
  // Live backlog gauges (satellite): per-tree + WAL + exec.
  EXPECT_EQ(s.values.count("wal.commit_waiters"), 1u);
  EXPECT_EQ(s.values.count("wal.unsynced_records"), 1u);
  EXPECT_EQ(s.values.count("exec.merge_rounds_pending"), 1u);
  size_t tree_gauges = 0;
  for (const auto& [k, v] : s.values) {
    if (k.rfind("lsm.", 0) == 0 &&
        k.find(".merge_pending_jobs") != std::string::npos) {
      tree_gauges++;
      EXPECT_DOUBLE_EQ(v, 0.0) << k;  // quiescent after FlushAll
    }
  }
  EXPECT_GE(tree_gauges, 2u);  // at least primary + one secondary tree
  // Registry metrics merged on top: the ingest-op latency histograms.
  ASSERT_EQ(s.histograms.count("ingest.op_modeled_ns"), 1u);
  EXPECT_EQ(s.histograms.at("ingest.op_modeled_ns").count, 3001u);
  EXPECT_GT(s.histograms.at("ingest.op_modeled_ns").max, 0u);
  ASSERT_EQ(s.histograms.count("ingest.op_wall_ns"), 1u);
  // io.* request counters from both engines.
  EXPECT_GT(s.values.at("io.storage.requests"), 0.0);
  // Tracing armed: drop gauge present.
  EXPECT_EQ(s.values.count("trace.dropped_events"), 1u);

  // DebugString: one-call dump, mentions strategy + some metric names.
  const std::string dump = ds.DebugString();
  EXPECT_NE(dump.find("validation"), std::string::npos);
  EXPECT_NE(dump.find("ingest.upserts"), std::string::npos);
  EXPECT_NE(dump.find("ingest.op_modeled_ns"), std::string::npos);

  // The traced workload recorded maintenance-cycle spans.
  std::vector<TraceEvent> events = ds.tracer()->Drain();
  bool saw_seal = false, saw_build = false, saw_install = false;
  bool saw_op = false;
  for (const auto& e : events) {
    if (std::string(e.name) == "seal") saw_seal = true;
    if (std::string(e.name).rfind("flush_build", 0) == 0) saw_build = true;
    if (std::string(e.name) == "install") saw_install = true;
    if (std::string(e.name) == "ingest.op") saw_op = true;
  }
  EXPECT_TRUE(saw_seal);
  EXPECT_TRUE(saw_build);
  EXPECT_TRUE(saw_install);
  EXPECT_TRUE(saw_op);
}

TEST(DatasetObsTest, SnapshotJsonRoundTripsThroughFile) {
  MetricsRegistry reg;
  EnvOptions eo;
  eo.metrics = &reg;
  Env env(eo);
  DatasetOptions o = SmallOptions(MaintenanceStrategy::kEager);
  o.metrics = &reg;
  Dataset ds(&env, o);
  for (uint64_t i = 1; i <= 500; i++) {
    ASSERT_TRUE(ds.Upsert(MakeTweet(i)).ok());
  }
  const MetricsSnapshot s = ds.MetricsSnapshot();
  MetricsSnapshot back;
  ASSERT_TRUE(MetricsSnapshot::FromJson(s.ToJson(), &back));
  EXPECT_EQ(back.ToJson(), s.ToJson());
  EXPECT_EQ(back.values.size(), s.values.size());
}

struct ParityResult {
  double sim_us = 0;
  double wal_sim_us = 0;
  uint64_t pages_read = 0;
  uint64_t pages_written = 0;
  uint64_t records = 0;
};

ParityResult RunParityWorkload(MaintenanceStrategy strategy, bool armed) {
  MetricsRegistry reg;
  Tracer* tracer = nullptr;
  EnvOptions eo;
  if (armed) eo.metrics = &reg;
  Env env(eo);
  DatasetOptions o = SmallOptions(strategy);
  if (armed) {
    o.metrics = &reg;
    o.trace_buffer_bytes = 1 << 18;
  }
  Dataset ds(&env, o);
  RunWorkload(&env, &ds);
  ParityResult r;
  r.sim_us = env.stats().simulated_us;
  r.wal_sim_us = ds.wal()->stats().simulated_us;
  r.pages_read = env.stats().pages_read;
  r.pages_written = env.stats().pages_written;
  r.records = ds.num_records();
  if (armed) {
    // The armed run must actually have recorded something — otherwise this
    // parity check would pass vacuously.
    EXPECT_GT(reg.Snapshot().histograms.at("ingest.op_modeled_ns").count, 0u);
    tracer = ds.tracer();
    EXPECT_FALSE(tracer->Drain().empty());
  }
  return r;
}

/// The armed-but-quiet contract: metrics + tracing wired in must not change
/// one modeled microsecond or page count, for every maintenance strategy.
TEST(DatasetObsTest, ArmedButQuietParityAcrossStrategies) {
  for (MaintenanceStrategy s :
       {MaintenanceStrategy::kEager, MaintenanceStrategy::kValidation,
        MaintenanceStrategy::kMutableBitmap,
        MaintenanceStrategy::kDeletedKeyBtree}) {
    const ParityResult off = RunParityWorkload(s, /*armed=*/false);
    const ParityResult on = RunParityWorkload(s, /*armed=*/true);
    EXPECT_DOUBLE_EQ(on.sim_us, off.sim_us) << StrategyName(s);
    EXPECT_DOUBLE_EQ(on.wal_sim_us, off.wal_sim_us) << StrategyName(s);
    EXPECT_EQ(on.pages_read, off.pages_read) << StrategyName(s);
    EXPECT_EQ(on.pages_written, off.pages_written) << StrategyName(s);
    EXPECT_EQ(on.records, off.records) << StrategyName(s);
  }
}

}  // namespace
}  // namespace auxlsm
