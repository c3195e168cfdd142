// The three workloads of the repository benchmark. Each runs from one
// process, takes its seed, generates all of its inputs before timing
// starts, measures for the requested wall seconds, checks its outputs, and
// fills a Report:
//   - untraced (trace = false): every end-to-end metric;
//   - traced (trace = true): every per-layer metric. The traced run first
//     repeats the measured phase untraced on a fresh fixture (the overhead
//     baseline and the armed-but-quiet reference), then runs it with the
//     benchmark's spans and the engine's metrics registry and tracer armed,
//     then replays each layer on the inputs and components the run built.
#pragma once

#include <string>

#include "bench.h"
#include "obs/metrics.h"

namespace perfbench {

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;  ///< where the span file goes (traced runs)
};

void RunIngest(const RunOptions& opt, Report* out);
void RunQuery(const RunOptions& opt, Report* out);
void RunService(const RunOptions& opt, Report* out);

/// Mean wall time of the `merge` spans still in the engine tracer's rings
/// (coupled maintenance cycles run merges inline and record no merge-job
/// histogram), ms; drains the tracer. 0 without a tracer or merges.
double TracerMergeWallMs(Dataset* ds);

/// exec.* metrics of a traced pass from the engine's metrics registry
/// (maintenance cycle and flush build wall times; merge jobs when merges
/// are queued, else `merge_wall_ms`) plus the benchmark's backlog samples.
void SetExecMetrics(auxlsm::obs::MetricsRegistry* registry,
                    double phase_wall_s, double max_merge_backlog,
                    double merge_wall_ms, Report* out);

/// Current merge backlog: queued merge jobs over every tree.
double MergeBacklog(Dataset* ds);

/// Compares the modeled end-to-end metrics of the untraced and traced
/// passes bit for bit (the armed-but-quiet contract on serial workloads).
void CheckArmedButQuiet(const Report& untraced, const Report& traced,
                        const std::vector<std::string>& names, Report* out);

/// Appends the span recorder's per-name self times to the report and
/// writes the spans to `<out_dir>/spans-<workload>-seed<seed>.jsonl`.
void FinishSpans(const RunOptions& opt, const std::string& workload,
                 Report* out);

/// Trace-mode engine instrumentation: the existing metrics registry and
/// tracer, armed on the traced pass only.
inline constexpr size_t kTraceBufferBytes = 8u << 20;

}  // namespace perfbench
