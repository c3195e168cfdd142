#include "workloads.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "layers.h"
#include "obs/trace.h"

namespace perfbench {

double MergeBacklog(Dataset* ds) {
  double jobs = 0;
  for (auxlsm::LsmTree* t : AllTrees(ds)) jobs += double(t->merge_pending_jobs());
  return jobs;
}

double TracerMergeWallMs(Dataset* ds) {
  if (ds->tracer() == nullptr) return 0;
  double total_us = 0;
  uint64_t n = 0;
  for (const auto& ev : ds->tracer()->Drain()) {
    if (std::strcmp(ev.name, "merge") == 0 && !ev.instant) {
      total_us += ev.wall_dur_us;
      n++;
    }
  }
  return n > 0 ? total_us / double(n) / 1e3 : 0;
}

void SetExecMetrics(auxlsm::obs::MetricsRegistry* registry,
                    double phase_wall_s, double max_merge_backlog,
                    double merge_wall_ms, Report* out) {
  const auxlsm::obs::MetricsSnapshot snap = registry->Snapshot();
  auto hist = [&](const char* name) {
    auto it = snap.histograms.find(name);
    return it == snap.histograms.end() ? auxlsm::obs::HistogramSnapshot{}
                                       : it->second;
  };
  const auto cycle = hist("maintenance.cycle_wall_ns");
  const auto flush = hist("maintenance.flush_build_wall_ns");
  const auto job = hist("maintenance.merge_job_wall_ns");
  out->Set("exec.cycle_wall_ms_p50", double(cycle.p50) / 1e6, "ms");
  out->Set("exec.cycle_wall_ms_p99", double(cycle.p99) / 1e6, "ms");
  out->Set("exec.flush_build_wall_ms", flush.mean() / 1e6, "ms");
  out->Set("exec.merge_job_wall_ms",
           job.count > 0 ? job.mean() / 1e6 : merge_wall_ms, "ms");
  out->Set("exec.busy_frac",
           phase_wall_s > 0 ? double(cycle.sum) / 1e9 / phase_wall_s : 0,
           "ratio");
  out->Set("exec.max_merge_backlog", max_merge_backlog, "count");
}

void CheckArmedButQuiet(const Report& untraced, const Report& traced,
                        const std::vector<std::string>& names, Report* out) {
  std::string diff;
  for (const std::string& n : names) {
    const double a = untraced.Get(n), b = traced.Get(n);
    if (std::memcmp(&a, &b, sizeof(double)) != 0) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), " %s %.17g vs %.17g;", n.c_str(), a, b);
      diff += buf;
    }
  }
  if (!diff.empty()) {
    out->GateFailed("modeled metrics differ traced vs untraced:" + diff);
  } else {
    out->GatePassed("modeled metrics bit-identical traced vs untraced");
  }
}

void FinishSpans(const RunOptions& opt, const std::string& workload,
                 Report* out) {
  const SpanRecorder& rec = SpanRecorder::Get();
  const auto agg = rec.Aggregates();
  std::string json = "{";
  bool first = true;
  for (const auto& [name, a] : agg) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"count\": %" PRIu64
                  ", \"total_ns\": %.0f, \"self_ns\": %.0f, "
                  "\"mean_self_ns\": %.1f}",
                  first ? "" : ", ", JsonEscape(name).c_str(), a.count,
                  a.total_ns, a.self_ns,
                  a.count ? a.self_ns / double(a.count) : 0.0);
    json += buf;
    first = false;
    std::printf("span %-28s count=%-9" PRIu64 " mean_ns=%12.1f self_ns=%12.1f\n",
                name.c_str(), a.count,
                a.count ? a.total_ns / double(a.count) : 0.0,
                a.count ? a.self_ns / double(a.count) : 0.0);
  }
  json += "}";
  out->Extra("self_times", json);
  if (!opt.out_dir.empty()) {
    const std::string path = opt.out_dir + "/spans-" + workload + "-seed" +
                             std::to_string(opt.seed) + ".jsonl";
    const uint64_t written = rec.WriteJsonLines(path, 200000);
    out->Note("spans: " + std::to_string(rec.total_spans()) + " recorded, " +
              std::to_string(written) + " written to " + path);
  }
}

}  // namespace perfbench
