// Shared harness for the paper-figure benchmarks. Each bench binary prints
// the series a figure in §6 reports, as CSV-ish rows: the absolute numbers
// come from the simulated disk model plus measured CPU time (DESIGN.md
// explains the substitution), but the *shape* — who wins, by what factor,
// where crossovers fall — is the reproduction target.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "workload/driver.h"
#include "workload/tweet_gen.h"

namespace auxlsm {
namespace bench {

/// Wall-clock + simulated-I/O stopwatch over an Env (and optionally a WAL).
class Stopwatch {
 public:
  explicit Stopwatch(Env* env, Wal* wal = nullptr)
      : env_(env), wal_(wal) { Reset(); }

  void Reset() {
    t0_ = std::chrono::steady_clock::now();
    io0_ = env_->stats();
    wal_us0_ = wal_ ? wal_->stats().simulated_us : 0;
    env_clocks0_ = env_->io()->QueueClocks();
    wal_clocks0_ = wal_ ? wal_->io()->QueueClocks() : std::vector<double>{};
  }

  /// CPU-side elapsed seconds.
  double WallSeconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0_)
        .count();
  }
  /// Simulated disk seconds since Reset: total device work, summed over
  /// every queue of the storage (and log) device.
  double IoSeconds() const {
    double us = env_->stats().simulated_us - io0_.simulated_us;
    if (wal_ != nullptr) us += wal_->stats().simulated_us - wal_us0_;
    return us / 1e6;
  }
  /// Completed simulated seconds of the measured interval: per device, the
  /// max over queues of each queue's clock advance since Reset (diffing the
  /// aggregate critical_path_us would miss work on non-leading queues of a
  /// warm engine). Equals IoSeconds on single-queue devices; below it when
  /// concurrent maintenance spread I/O over queues.
  double CriticalPathSeconds() const {
    double us = IntervalCriticalPath(env_->io()->QueueClocks(), env_clocks0_);
    if (wal_ != nullptr) {
      us += IntervalCriticalPath(wal_->io()->QueueClocks(), wal_clocks0_);
    }
    return us / 1e6;
  }
  /// Total modeled time: CPU + simulated I/O (single-head convention kept
  /// by the paper-figure series).
  double Seconds() const { return WallSeconds() + IoSeconds(); }

  IoStats IoDelta() const { return env_->stats() - io0_; }

 private:
  static double IntervalCriticalPath(const std::vector<double>& now,
                                     const std::vector<double>& base) {
    double max_us = 0;
    for (size_t q = 0; q < now.size(); q++) {
      const double b = q < base.size() ? base[q] : 0;
      max_us = std::max(max_us, now[q] - b);
    }
    return max_us;
  }

  Env* env_;
  Wal* wal_;
  std::chrono::steady_clock::time_point t0_;
  IoStats io0_;
  double wal_us0_ = 0;
  std::vector<double> env_clocks0_;
  std::vector<double> wal_clocks0_;
};

inline void PrintHeader(const std::string& figure, const std::string& title) {
  std::printf("\n=== %s: %s ===\n", figure.c_str(), title.c_str());
}

inline void PrintRow(const std::string& series, const std::string& x,
                     double seconds, const std::string& extra = "") {
  std::printf("%-32s x=%-12s time_s=%10.4f %s\n", series.c_str(), x.c_str(),
              seconds, extra.c_str());
}

inline void PrintNote(const std::string& note) {
  std::printf("note: %s\n", note.c_str());
}

/// Common scaled-down environment: 4 KiB pages, HDD cost model. Cache sized
/// by the caller to mimic the paper's cache:data ratios. cache_shards > 1
/// lock-stripes the buffer cache for multi-writer runs (serial runs keep 1
/// to stay bit-for-bit comparable). io_queues > 1
/// models a multi-queue device (io/io_engine.h): maintenance spread over
/// queues overlaps in *simulated* time; 1 is the legacy single head.
inline EnvOptions BenchEnv(size_t cache_mb, bool ssd = false,
                           size_t cache_shards = 1,
                           uint32_t io_queues = 1) {
  EnvOptions o;
  o.page_size = 4096;
  o.cache_pages = cache_mb * 1024 * 1024 / o.page_size;
  o.cache_shards = cache_shards;
  o.disk_profile = ssd ? DiskProfile::Ssd() : DiskProfile::Hdd();
  o.io_queues = io_queues;
  return o;
}

/// Parses the shared bench flags: --tiny shrinks op counts for the CI smoke
/// job; --queues=N sets the multi-queue sections' device queue count (the
/// serial baseline sections always run queues=1 regardless, which is what
/// the smoke job's DIGEST parity check relies on). --metrics-json=PATH arms
/// the obs::MetricsRegistry on the instrumented sections and writes a
/// machine-readable BENCH_<fig>.json snapshot (BenchReport below);
/// --trace-json=PATH arms the span tracer on the traced section and exports
/// Chrome trace-event JSON. Both are off by default, and arming them must
/// not change a single DIGEST line (the armed-but-quiet contract CI checks).
struct BenchFlags {
  bool tiny = false;
  uint32_t queues = 4;
  /// Run the fault-injection diagnostic sections at full size (they are
  /// always on for --tiny smoke runs).
  bool faults = false;
  /// Destination for the machine-readable metrics report; empty = disabled.
  std::string metrics_json;
  /// Destination for the Chrome trace-event export; empty = disabled.
  std::string trace_json;

  static BenchFlags Parse(int argc, char** argv) {
    BenchFlags f;
    auto value = [&](const std::string& a, const char* name, int* i,
                     std::string* out) {
      const std::string eq = std::string(name) + "=";
      if (a.rfind(eq, 0) == 0) {
        *out = a.substr(eq.size());
        return true;
      }
      if (a == name && *i + 1 < argc) {
        *out = argv[++*i];
        return true;
      }
      return false;
    };
    for (int i = 1; i < argc; i++) {
      const std::string a = argv[i];
      if (a == "--tiny") {
        f.tiny = true;
      } else if (a == "--faults") {
        f.faults = true;
      } else if (a.rfind("--queues=", 0) == 0) {
        f.queues = uint32_t(std::max(1, std::atoi(a.c_str() + 9)));
      } else if (value(a, "--metrics-json", &i, &f.metrics_json) ||
                 value(a, "--trace-json", &i, &f.trace_json)) {
        // handled by value()
      }
    }
    return f;
  }
};

/// Machine-readable bench output (PR 8): per-section modeled rows/costs plus
/// one obs::MetricsSnapshot, serialized as stable JSON. CI's bench-smoke job
/// produces one BENCH_<fig>.json per figure and asserts the latency
/// histogram percentiles are present, so downstream tooling can track the
/// modeled-performance trajectory across PRs without scraping stdout.
class BenchReport {
 public:
  explicit BenchReport(std::string fig) : fig_(std::move(fig)) {}

  void AddSection(const std::string& name, uint64_t rows, double sim_us,
                  double crit_us) {
    sections_.push_back(Section{name, rows, sim_us, crit_us});
  }
  void SetSnapshot(obs::MetricsSnapshot snapshot) {
    snapshot_ = std::move(snapshot);
    have_snapshot_ = true;
  }

  /// Writes {"fig":...,"sections":[...],"snapshot":{...}} to `path`.
  /// Returns false (after perror) when the file cannot be written.
  bool WriteTo(const std::string& path) const {
    std::string out = "{\"fig\":\"" + fig_ + "\",\"sections\":[";
    char buf[256];
    for (size_t i = 0; i < sections_.size(); i++) {
      const Section& s = sections_[i];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"rows\":%llu,\"sim_us\":%.3f,"
                    "\"crit_us\":%.3f}",
                    i == 0 ? "" : ",", s.name.c_str(),
                    (unsigned long long)s.rows, s.sim_us, s.crit_us);
      out += buf;
    }
    out += "],\"snapshot\":";
    out += have_snapshot_ ? snapshot_.ToJson() : std::string("{}");
    out += "}\n";
    std::FILE* fp = std::fopen(path.c_str(), "w");
    if (fp == nullptr) {
      std::perror(("BenchReport: " + path).c_str());
      return false;
    }
    const bool ok = std::fwrite(out.data(), 1, out.size(), fp) == out.size();
    std::fclose(fp);
    if (ok) std::printf("metrics-json: wrote %s\n", path.c_str());
    return ok;
  }

 private:
  struct Section {
    std::string name;
    uint64_t rows;
    double sim_us;
    double crit_us;
  };
  std::string fig_;
  std::vector<Section> sections_;
  obs::MetricsSnapshot snapshot_;
  bool have_snapshot_ = false;
};

/// Writes a drained tracer's events as Chrome trace-event JSON (load in
/// Perfetto / chrome://tracing). Returns false when the file can't open.
inline bool WriteChromeTrace(obs::Tracer* tracer, const std::string& path) {
  if (tracer == nullptr) return false;
  const std::string json = obs::Tracer::ToChromeJson(tracer->Drain());
  std::FILE* fp = std::fopen(path.c_str(), "w");
  if (fp == nullptr) {
    std::perror(("WriteChromeTrace: " + path).c_str());
    return false;
  }
  const bool ok = std::fwrite(json.data(), 1, json.size(), fp) == json.size();
  std::fclose(fp);
  if (ok) std::printf("trace-json: wrote %s\n", path.c_str());
  return ok;
}

/// Deterministic modeled-I/O digest line for the CI smoke job: covers only
/// serial-path sections (writers=1, queues=1), whose simulated costs are
/// bit-for-bit reproducible. The job diffs these lines
/// across --queues=1 and --queues=4 runs; any difference means the
/// multi-queue engine perturbed the legacy serial accounting. `extra`
/// appends further `key=value` fields.
inline void PrintDigest(const std::string& section, double simulated_us,
                        double critical_path_us,
                        const std::string& extra = "") {
  std::printf("DIGEST %-24s sim_us=%.3f crit_us=%.3f%s%s\n", section.c_str(),
              simulated_us, critical_path_us, extra.empty() ? "" : " ",
              extra.c_str());
}

/// Per-op latency distribution summary for the ingest-stall sections
/// (fig13-lat / fig23f): median, tail, and worst observed stall.
struct LatencyPercentiles {
  double p50 = 0, p99 = 0, max = 0;
};

inline LatencyPercentiles ComputePercentiles(std::vector<double> samples) {
  LatencyPercentiles p;
  if (samples.empty()) return p;
  std::sort(samples.begin(), samples.end());
  // Nearest-rank: the q-th percentile is the ceil(q*n)-th order statistic.
  auto rank = [&](double q) {
    const size_t r = size_t(std::ceil(q * double(samples.size())));
    return samples[std::min(samples.size() - 1, r == 0 ? 0 : r - 1)];
  };
  p.p50 = rank(0.50);
  p.p99 = rank(0.99);
  p.max = samples.back();
  return p;
}

/// A dataset prepared by upserting `base_records` fresh records and then
/// applying extra updates so that `update_ratio` of the final live records
/// have an obsolete older version (the §6.4 datasets).
struct QueryFixture {
  std::unique_ptr<Env> env;
  std::unique_ptr<Dataset> ds;
};

inline QueryFixture BuildQueryFixture(MaintenanceStrategy strategy,
                                      bool merge_repair,
                                      double update_ratio,
                                      uint64_t base_records,
                                      size_t cache_mb,
                                      size_t record_bytes = 0,
                                      size_t tuple_cache_bytes = 0) {
  QueryFixture f;
  f.env = std::make_unique<Env>(BenchEnv(cache_mb));
  DatasetOptions o;
  o.strategy = strategy;
  o.merge_repair = merge_repair;
  o.tuple_cache_bytes = tuple_cache_bytes;
  o.mem_budget_bytes = 1 << 20;
  o.max_mergeable_bytes = 4 << 20;
  f.ds = std::make_unique<Dataset>(f.env.get(), o);
  TweetGenOptions go;
  if (record_bytes > 0) {
    go.min_message_bytes = record_bytes;
    go.max_message_bytes = record_bytes;
  }
  TweetGenerator gen(go);
  for (uint64_t i = 0; i < base_records; i++) {
    if (!f.ds->Upsert(gen.Next()).ok()) std::abort();
  }
  if (update_ratio > 0) {
    Random rng(17);
    const auto updates = uint64_t(update_ratio * double(base_records));
    for (uint64_t i = 0; i < updates; i++) {
      if (!f.ds->Upsert(gen.Update(rng.Uniform(base_records))).ok()) {
        std::abort();
      }
    }
  }
  if (!f.ds->FlushAll().ok()) std::abort();
  return f;
}

/// Measures a secondary query of `width` user ids, following the paper's
/// methodology: run with *different* range predicates until the cache is
/// warm, then average the stable time. A process-wide counter keeps every
/// call on fresh predicates so one series cannot pre-warm the next.
inline double MeasureSecondaryQuery(QueryFixture& f, uint64_t width,
                                    const SecondaryQueryOptions& q,
                                    uint64_t user_domain = 100000) {
  static uint64_t counter = 0;
  auto range_at = [&](int i) {
    const uint64_t span = user_domain - width;
    return ((counter + uint64_t(i)) * 7919 * (width + 13)) % span;
  };
  const int kWarm = 2, kMeasure = 3;
  for (int i = 0; i < kWarm; i++) {
    QueryResult res;
    if (!f.ds->QueryUserRange(range_at(i), range_at(i) + width - 1, q, &res)
             .ok()) {
      std::abort();
    }
  }
  double total = 0;
  for (int i = kWarm; i < kWarm + kMeasure; i++) {
    Stopwatch sw(f.env.get());
    QueryResult res;
    if (!f.ds->QueryUserRange(range_at(i), range_at(i) + width - 1, q, &res)
             .ok()) {
      std::abort();
    }
    total += sw.Seconds();
  }
  counter += kWarm + kMeasure;
  return total / kMeasure;
}

}  // namespace bench
}  // namespace auxlsm
