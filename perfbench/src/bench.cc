#include "bench.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include <malloc.h>
#include <unistd.h>

#include "common/random.h"
#include "core/dataset.h"

namespace perfbench {

// --- Report ------------------------------------------------------------------

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) value = 0;
  auto it = metrics_.find(name);
  if (it != metrics_.end()) {
    ordered_[it->second].second = Metric{value, unit};
    return;
  }
  metrics_[name] = ordered_.size();
  ordered_.push_back({name, Metric{value, unit}});
}

double Report::Get(const std::string& name) const {
  auto it = metrics_.find(name);
  return it == metrics_.end() ? 0.0 : ordered_[it->second].second.value;
}

void Report::Param(const std::string& name, const std::string& value) {
  params_.push_back({name, "\"" + JsonEscape(value) + "\""});
}

void Report::Param(const std::string& name, double value) {
  params_.push_back({name, JsonNumber(value)});
}

void Report::Note(const std::string& note) {
  notes_.push_back(note);
  std::printf("note: %s\n", note.c_str());
}

void Report::GateFailed(const std::string& why) {
  correct_ = false;
  failed_++;
  Note("GATE FAILED: " + why);
}

void Report::GatePassed(const std::string& what) { Note("gate ok: " + what); }

void Report::Extra(const std::string& key, const std::string& json) {
  extras_.push_back({key, json});
}

void Report::Print() const {
  for (const auto& [name, m] : ordered_) {
    std::printf("metric %-36s %18.6f %s\n", name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("correct=%s attempted=%" PRIu64 " failed=%" PRIu64 "\n",
              correct_ ? "true" : "false", attempted_, failed_);
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < ordered_.size(); i++) {
    const auto& [name, m] = ordered_[i];
    out += (i ? ", \"" : "\"") + JsonEscape(name) + "\": {\"value\": " +
           JsonNumber(m.value) + ", \"unit\": \"" + JsonEscape(m.unit) + "\"}";
  }
  out += "}, \"params\": {";
  for (size_t i = 0; i < params_.size(); i++) {
    out += (i ? ", \"" : "\"") + JsonEscape(params_[i].first) +
           "\": " + params_[i].second;
  }
  out += "}, \"notes\": [";
  for (size_t i = 0; i < notes_.size(); i++) {
    out += (i ? ", \"" : "\"") + JsonEscape(notes_[i]) + "\"";
  }
  out += "]";
  for (const auto& [key, json] : extras_) {
    out += ", \"" + JsonEscape(key) + "\": " + json;
  }
  out += "}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// --- Percentiles -------------------------------------------------------------

double PercentileSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  size_t rank = size_t(std::ceil(q * double(sorted.size())));
  if (rank == 0) rank = 1;
  return sorted[std::min(rank, sorted.size()) - 1];
}

std::pair<double, double> P50P99(std::vector<double>* samples) {
  std::sort(samples->begin(), samples->end());
  return {PercentileSorted(*samples, 0.50), PercentileSorted(*samples, 0.99)};
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  if (v.empty()) return 0;
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- Span recorder -----------------------------------------------------------

SpanRecorder& SpanRecorder::Get() {
  static SpanRecorder recorder;
  return recorder;
}

SpanRecorder::ThreadBuf* SpanRecorder::Local() {
  thread_local ThreadBuf* local = nullptr;
  if (local == nullptr) {
    std::lock_guard<std::mutex> l(mu_);
    bufs_.push_back(std::make_unique<ThreadBuf>());
    local = bufs_.back().get();
    local->tid = uint32_t(bufs_.size());
    local->spans.reserve(1 << 16);
  }
  return local;
}

SpanRecorder::Scope::Scope(const char* name, uint64_t request_id) {
  SpanRecorder& r = Get();
  if (!r.armed_) return;
  ThreadBuf* b = r.Local();
  const int64_t parent = b->open.empty() ? -1 : b->open.back();
  index_ = int64_t(b->spans.size());
  b->spans.push_back(Span{name, NowNs(), 0, parent, request_id});
  b->open.push_back(index_);
}

SpanRecorder::Scope::~Scope() {
  if (index_ < 0) return;
  ThreadBuf* b = Get().Local();
  b->spans[size_t(index_)].end_ns = NowNs();
  b->open.pop_back();
}

std::map<std::string, SpanRecorder::Aggregate> SpanRecorder::Aggregates()
    const {
  std::lock_guard<std::mutex> l(mu_);
  std::map<std::string, Aggregate> out;
  for (const auto& b : bufs_) {
    std::vector<double> child_ns(b->spans.size(), 0.0);
    for (const Span& s : b->spans) {
      if (s.parent >= 0 && s.end_ns >= s.start_ns) {
        child_ns[size_t(s.parent)] += double(s.end_ns - s.start_ns);
      }
    }
    for (size_t i = 0; i < b->spans.size(); i++) {
      const Span& s = b->spans[i];
      if (s.end_ns < s.start_ns) continue;  // still open
      Aggregate& a = out[s.name];
      const double dur = double(s.end_ns - s.start_ns);
      a.count++;
      a.total_ns += dur;
      a.self_ns += dur - child_ns[i];
    }
  }
  return out;
}

uint64_t SpanRecorder::total_spans() const {
  std::lock_guard<std::mutex> l(mu_);
  uint64_t n = 0;
  for (const auto& b : bufs_) n += b->spans.size();
  return n;
}

uint64_t SpanRecorder::WriteJsonLines(const std::string& path,
                                      uint64_t max_spans) const {
  std::lock_guard<std::mutex> l(mu_);
  std::FILE* fp = std::fopen(path.c_str(), "w");
  if (fp == nullptr) return 0;
  uint64_t t0 = UINT64_MAX;
  for (const auto& b : bufs_) {
    for (const Span& s : b->spans) t0 = std::min(t0, s.start_ns);
  }
  uint64_t written = 0;
  for (const auto& b : bufs_) {
    for (const Span& s : b->spans) {
      if (written >= max_spans) break;
      std::fprintf(fp,
                   "{\"name\":\"%s\",\"tid\":%u,\"start_ns\":%" PRIu64
                   ",\"end_ns\":%" PRIu64 ",\"parent\":%" PRId64
                   ",\"request_id\":%" PRIu64 "}\n",
                   s.name, b->tid, s.start_ns - t0, s.end_ns - t0, s.parent,
                   s.request_id);
      written++;
    }
  }
  std::fclose(fp);
  return written;
}

auxlsm::Status FlushAll(Dataset* ds) {
  PB_SPAN("core.flush_all", 0);
  return ds->FlushAll();
}

auxlsm::Status WaitForMaintenance(Dataset* ds) {
  PB_SPAN("core.wait_for_maintenance", 0);
  return ds->WaitForMaintenance();
}

// --- Deterministic inputs ----------------------------------------------------

uint64_t MixId(uint64_t seed, uint64_t counter) {
  // SplitMix64 finalizer: a bijection on 64-bit words.
  uint64_t z = counter + seed * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

TextPool::TextPool(uint64_t seed, size_t bytes) {
  auxlsm::Random rng(seed ^ 0x7e7e7e7eULL);
  text_.resize(bytes);
  for (size_t i = 0; i < bytes; i += 8) {
    uint64_t r = rng.Next();
    for (size_t j = 0; j < 8 && i + j < bytes; j++) {
      text_[i + j] = char('a' + (r & 0xff) % 26);
      r >>= 8;
    }
  }
}

namespace {
const char* kStates[] = {"CA", "NY", "TX", "WA", "MA", "UT", "FL", "IL",
                         "OH", "GA", "NC", "PA", "AZ", "MI", "NJ", "VA"};
}  // namespace

void FillBody(auxlsm::Random* rng, const TextPool& pool, uint64_t user_domain,
              size_t min_msg, size_t max_msg, WriteOp* op) {
  op->user_id = rng->Uniform(user_domain);
  op->location = uint8_t(rng->Uniform(16));
  op->msg_length = uint16_t(min_msg + rng->Uniform(max_msg - min_msg + 1));
  op->msg_offset = uint32_t(rng->Uniform(pool.size() - op->msg_length));
}

TweetRecord Materialize(const WriteOp& op, const TextPool& pool) {
  TweetRecord r;
  r.id = op.id;
  r.user_id = op.user_id;
  r.location = kStates[op.location % 16];
  r.creation_time = op.creation_time;
  r.message = pool.Slice(op.msg_offset, op.msg_length);
  return r;
}

uint64_t RecordBytes(const WriteOp& op) {
  // id + user_id + creation_time, then varint-length-prefixed location (two
  // letters) and message: the stored record format (format/record.cc).
  const uint64_t msg_prefix = op.msg_length < 128 ? 1 : 2;
  return 24 + (1 + 2) + msg_prefix + uint64_t(op.msg_length);
}

// --- Process ------------------------------------------------------------------

double RssMb() {
  std::ifstream in("/proc/self/statm");
  uint64_t size = 0, resident = 0;
  in >> size >> resident;
  return double(resident) * double(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

void ReleaseFreeMemory() { malloc_trim(0); }

// --- Stat windows -------------------------------------------------------------

EngineStats EngineStats::Capture(Dataset* ds) {
  EngineStats s;
  s.storage = ds->env()->stats();
  s.log = ds->wal()->stats();
  s.wal = ds->wal()->wal_stats();
  s.page_cache = ds->env()->cache()->stats();
  s.tuple_cache = ds->tuple_cache_stats();
  const auxlsm::IngestStats& in = ds->ingest_stats();
  s.lookups = in.ingest_point_lookups.load();
  s.flushes = in.flushes.load();
  s.merges = in.merges.load();
  s.retries = ds->maintenance_stats().retries_attempted.load();
  s.storage_clocks = ds->env()->io()->QueueClocks();
  s.log_clocks = ds->wal()->io()->QueueClocks();
  return s;
}

double ClockAdvance(const std::vector<double>& before,
                    const std::vector<double>& after) {
  double m = 0;
  for (size_t q = 0; q < after.size(); q++) {
    m = std::max(m, after[q] - (q < before.size() ? before[q] : 0.0));
  }
  return m;
}

std::vector<auxlsm::LsmTree*> AllTrees(Dataset* ds) {
  std::vector<auxlsm::LsmTree*> trees = {ds->primary()};
  if (ds->primary_key_index() != nullptr) {
    trees.push_back(ds->primary_key_index());
  }
  for (const auto& s : ds->secondaries()) {
    trees.push_back(s->tree.get());
    if (s->deleted_keys) trees.push_back(s->deleted_keys.get());
  }
  return trees;
}

uint64_t DiskBytes(auxlsm::LsmTree* tree) {
  uint64_t pages = 0;
  for (const auto& c : tree->Components()) pages += c->meta().num_pages;
  return pages * tree->env()->page_size();
}

uint64_t DiskBytes(Dataset* ds) {
  uint64_t bytes = 0;
  for (auxlsm::LsmTree* t : AllTrees(ds)) bytes += DiskBytes(t);
  return bytes;
}

double ComponentsPerTree(Dataset* ds) {
  const std::vector<auxlsm::LsmTree*> trees = AllTrees(ds);
  double comps = 0;
  for (auxlsm::LsmTree* t : trees) comps += double(t->NumDiskComponents());
  return comps / double(trees.size());
}

}  // namespace perfbench
