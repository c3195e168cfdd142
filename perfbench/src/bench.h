// Shared plumbing of the repository benchmark: the result report, the
// benchmark-side span recorder, percentile helpers, deterministic input
// generation, and stat windows over the engine's exported counters.
//
// Everything here lives outside the engine: spans are recorded around the
// calls the benchmark makes into the engine's public API, and every count
// comes from a stats struct the engine already exports.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "format/record.h"

namespace perfbench {

using auxlsm::Dataset;
using auxlsm::Env;
using auxlsm::TweetRecord;

inline uint64_t NowNs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

// --- Result report -----------------------------------------------------------

/// What one run prints: the metrics by name with their units, the gate
/// outcome, the operation counts, run parameters and free-form notes. The
/// last line of stdout is this report as one JSON object.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  double Get(const std::string& name) const;

  void Param(const std::string& name, const std::string& value);
  void Param(const std::string& name, double value);
  void Note(const std::string& note);
  /// Records a failed correctness gate: the run is marked incorrect and the
  /// failure counts against `failed`.
  void GateFailed(const std::string& why);
  /// Records a passed correctness gate (printed for the reader).
  void GatePassed(const std::string& what);
  /// Attaches a raw JSON value under `key` in the report.
  void Extra(const std::string& key, const std::string& json);

  void AddAttempted(uint64_t n) { attempted_ += n; }
  void AddFailed(uint64_t n) { failed_ += n; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const { return correct_; }

  /// Human-readable lines, then the JSON object as the last line.
  void Print() const;

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  std::vector<std::pair<std::string, Metric>> ordered_;
  std::map<std::string, size_t> metrics_;
  std::vector<std::pair<std::string, std::string>> params_;
  std::vector<std::string> notes_;
  std::vector<std::pair<std::string, std::string>> extras_;
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

std::string JsonEscape(const std::string& s);
std::string JsonNumber(double v);

// --- Percentiles -------------------------------------------------------------

/// Nearest-rank percentile of `sorted` (ascending); q in (0, 1].
double PercentileSorted(const std::vector<double>& sorted, double q);
/// Sorts in place and returns {p50, p99}.
std::pair<double, double> P50P99(std::vector<double>* samples);
double Median(std::vector<double> v);

// --- Span recorder -----------------------------------------------------------

/// The benchmark's own tracer. Armed only in the traced pass; disarmed, a
/// Scope is one relaxed load. Spans live in per-thread buffers (no locking
/// on the hot path) and are written out when the run ends.
class SpanRecorder {
 public:
  struct Span {
    const char* name;
    uint64_t start_ns;
    uint64_t end_ns;
    int64_t parent;  ///< index in the same thread's buffer; -1 = root
    uint64_t request_id;
  };

  static SpanRecorder& Get();

  void Arm(bool on) { armed_ = on; }
  bool armed() const { return armed_; }

  class Scope {
   public:
    Scope(const char* name, uint64_t request_id = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    int64_t index_ = -1;
  };

  struct Aggregate {
    uint64_t count = 0;
    double total_ns = 0;
    double self_ns = 0;  ///< duration minus the time covered by children
  };
  /// Per span name: count, total and self time over every thread.
  std::map<std::string, Aggregate> Aggregates() const;
  uint64_t total_spans() const;
  /// Writes up to `max_spans` spans as JSON lines (name, tid, start, end,
  /// parent, request id). Returns the number written.
  uint64_t WriteJsonLines(const std::string& path, uint64_t max_spans) const;

 private:
  struct ThreadBuf {
    uint32_t tid = 0;
    std::vector<Span> spans;
    std::vector<int64_t> open;
  };
  ThreadBuf* Local();

  bool armed_ = false;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuf>> bufs_;
};

/// Shorthand for a span around one call into a layer.
#define PB_SPAN_CAT2(a, b) a##b
#define PB_SPAN_CAT(a, b) PB_SPAN_CAT2(a, b)
#define PB_SPAN(name, req) \
  ::perfbench::SpanRecorder::Scope PB_SPAN_CAT(pb_span_, __LINE__)((name), (req))

/// Dataset::FlushAll and Dataset::WaitForMaintenance, each inside a span.
auxlsm::Status FlushAll(Dataset* ds);
auxlsm::Status WaitForMaintenance(Dataset* ds);

// --- Deterministic inputs ----------------------------------------------------

/// Bijective 64-bit mix: distinct counters give distinct primary keys, so
/// generated ids never collide and ids past the used counter range are
/// known to be absent.
uint64_t MixId(uint64_t seed, uint64_t counter);

/// A pool of random lowercase text; record messages are slices of it, so
/// op streams stay compact (offset + length) and materialising a record is
/// one copy.
class TextPool {
 public:
  explicit TextPool(uint64_t seed, size_t bytes = 1 << 20);
  std::string Slice(uint32_t offset, uint32_t length) const {
    return text_.substr(offset, length);
  }
  size_t size() const { return text_.size(); }

 private:
  std::string text_;
};

/// One write in a compact op stream.
struct WriteOp {
  uint64_t id = 0;
  uint64_t user_id = 0;
  uint64_t creation_time = 0;
  uint32_t msg_offset = 0;
  uint16_t msg_length = 0;
  uint8_t location = 0;
  bool update = false;  ///< the id was written before
};

/// Draws the non-key fields of a write (user, location, message slice).
void FillBody(auxlsm::Random* rng, const TextPool& pool, uint64_t user_domain,
              size_t min_msg, size_t max_msg, WriteOp* op);
TweetRecord Materialize(const WriteOp& op, const TextPool& pool);
/// Serialized size of the record an op writes (the user bytes it ingests).
uint64_t RecordBytes(const WriteOp& op);

// --- Process ------------------------------------------------------------------

/// Resident set size of this process now, MiB.
double RssMb();
/// Returns freed heap memory to the OS, so the next epoch's resident set
/// is its own and not the previous epoch's leftovers.
void ReleaseFreeMemory();

// --- Stat windows -------------------------------------------------------------

/// Every counter the engine exports, captured at one instant.
struct EngineStats {
  auxlsm::IoStats storage;
  auxlsm::IoStats log;
  auxlsm::WalStats wal;
  auxlsm::BufferCacheStats page_cache;
  auxlsm::TupleCacheStats tuple_cache;
  uint64_t lookups = 0, flushes = 0, merges = 0;
  uint64_t retries = 0;
  std::vector<double> storage_clocks;
  std::vector<double> log_clocks;

  static EngineStats Capture(Dataset* ds);
};

/// Largest per-queue clock advance between two captures (modeled µs).
double ClockAdvance(const std::vector<double>& before,
                    const std::vector<double>& after);

/// Every index tree of the dataset (primary, pk index, secondaries,
/// deleted-key trees).
std::vector<auxlsm::LsmTree*> AllTrees(Dataset* ds);
/// On-disk bytes (whole pages) of one tree / of every tree of the dataset.
uint64_t DiskBytes(auxlsm::LsmTree* tree);
uint64_t DiskBytes(Dataset* ds);
/// Mean number of disk components per index tree.
double ComponentsPerTree(Dataset* ds);

}  // namespace perfbench
