// Repository benchmark driver binary. Usage:
//
//   perfbench --workload ingest|query|service --seed N --seconds S
//             --trace 0|1 [--out-dir DIR]
//
// Prints one line per metric (name, value, unit), the gate outcomes, and as
// its last line one JSON object: correct, attempted, failed, metrics, plus
// run parameters and notes. Exits 1 when a correctness gate fails, 2 on a
// usage error or a non-Release build (which it refuses to measure).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  RunOptions opt;
  for (int i = 1; i < argc; i++) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--workload") {
      workload = value();
    } else if (a == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::atof(value().c_str());
    } else if (a == "--trace") {
      opt.trace = value() != "0";
    } else if (a == "--out-dir") {
      opt.out_dir = value();
    } else {
      std::fprintf(stderr, "unknown argument %s\n", a.c_str());
      return 2;
    }
  }
  if (opt.seconds <= 0) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }

  bool release = std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
#ifndef NDEBUG
  release = false;  // assertions compiled in
#endif
  if (!release) {
    std::fprintf(stderr,
                 "refusing to measure a %s build (assertions %s); build with "
                 "CMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE,
#ifdef NDEBUG
                 "off"
#else
                 "on"
#endif
    );
    return 2;
  }

  Report report;
  report.Param("workload", workload);
  report.Param("seed", double(opt.seed));
  report.Param("seconds", opt.seconds);
  report.Param("trace", opt.trace ? 1.0 : 0.0);
  report.Param("build_type", PERFBENCH_BUILD_TYPE);
  report.Param("compiler", PERFBENCH_COMPILER);
  report.Param("nproc", double(std::thread::hardware_concurrency()));

  if (workload == "ingest") {
    RunIngest(opt, &report);
  } else if (workload == "query") {
    RunQuery(opt, &report);
  } else if (workload == "service") {
    RunService(opt, &report);
  } else {
    std::fprintf(stderr, "unknown workload '%s' (ingest, query, service)\n",
                 workload.c_str());
    return 2;
  }
  report.Param("failed_frac",
               report.attempted() > 0
                   ? double(report.failed()) / double(report.attempted())
                   : 0.0);
  report.Print();
  return report.correct() ? 0 : 1;
}
