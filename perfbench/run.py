#!/usr/bin/env python3
"""Repository benchmark runner.

One run:
    python3 perfbench/run.py --workload ingest|service|query --seed N \
        --seconds S --trace 0|1

builds the engine and the benchmark binary from source (Release, into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), runs one
workload, prints every metric with its unit and the correctness gates, saves
the full result with its run metadata under .bench_out/, and prints as its
last line one JSON object with the keys correct, attempted, failed and
metrics. --trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace
1 the per-layer ones. A failed gate exits 1.

Steadiness mode:
    python3 perfbench/run.py --steady 10 --workload query --seed 1 \
        [--seconds S] [--trace 0]

runs the workload on seeds N..N+9 and prints, per metric, the median, the
quartiles, the spread (Q3 - Q1) / median and whether it fits the metric's
bound in BENCHMARK.json. --workload all runs every workload BENCHMARK.json
lists. The summary is saved as
.bench_out/steady-<workload>-trace<t>-seed<N>x<count>.json.

`query` is not listed in BENCHMARK.json (its wall-clock figures are too
unsteady on a shared host to gate on) but runs the same way by name.

Comparing two sets:
    python3 perfbench/run.py --compare A.json B.json

checks, per end-to-end metric, that B's median is not worse than A's by
more than the metric's bound.
"""

import argparse
import fcntl
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 700  # + one run stays within the 900 s first-run budget
RUN_TIMEOUT_S = 170
# Runnable by hand but not listed in BENCHMARK.json: `query`'s wall-clock
# metrics follow the host's slow phases by up to 25% over ten runs, more than
# a gate can hold (see STEADINESS.md).
UNGATED_WORKLOADS = ("query",)
RESULT_KEYS = ("correct", "attempted", "failed", "metrics")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def out_dir():
    path = os.path.join(ROOT, ".bench_out")
    os.makedirs(path, exist_ok=True)
    return path


def build():
    """Configures and builds in Release; returns the binary path or None."""
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    with open(os.path.join(bdir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        jobs = str(max(1, os.cpu_count() or 1))
        steps = [
            ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", bdir, "-j", jobs],
        ]
        deadline = time.time() + BUILD_TIMEOUT_S
        for cmd in steps:
            try:
                proc = subprocess.run(
                    cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                    timeout=max(1, deadline - time.time()))
            except (OSError, subprocess.TimeoutExpired) as e:
                log("build failed: %s" % e)
                return None
            if proc.returncode != 0:
                log(proc.stdout.decode(errors="replace")[-4000:])
                log("build failed: %s" % " ".join(cmd))
                return None
    return os.path.join(bdir, "perfbench")


def git_sha():
    """The checkout's commit, read here rather than compiled in."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              timeout=10)
        sha = proc.stdout.decode().strip()
        return sha if proc.returncode == 0 and sha else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def source_digest():
    """sha256 over the engine and benchmark sources, so results stay tied to
    the code even in a checkout without git metadata."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def run_once(binary, workload, seed, seconds, trace):
    """Runs the binary; returns (returncode, human lines, result dict)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", out_dir()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark timed out after %d s" % RUN_TIMEOUT_S)
        return 1, [], None
    sys.stderr.write(proc.stderr.decode(errors="replace"))
    lines = proc.stdout.decode(errors="replace").splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
            lines = lines[:-1]
        except json.JSONDecodeError:
            result = None
    return proc.returncode, lines, result


def manifest_units(spec, trace):
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def result_problems(spec, trace, result):
    """What keeps the binary's `result` from giving the contract's result
    line: its keys, counts, and every metric BENCHMARK.json lists, with its
    unit and a finite value. Metrics the binary reports beyond the manifest
    (the wall-clock ops_s, wall_p50_us, wall_p99_us) are informational and
    left out of the last line."""
    problems = []
    missing_keys = [k for k in RESULT_KEYS if k not in result]
    if missing_keys:
        return ["result lacks %s" % missing_keys]
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append("%s is not a whole number" % key)
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted is below 1")
    want = manifest_units(spec, trace)
    got = result["metrics"]
    missing = sorted(set(want) - set(got))
    if missing:
        problems.append("metrics of BENCHMARK.json missing: %s" % missing)
    for name in sorted(set(want) & set(got)):
        m = got[name]
        if not isinstance(m, dict) or sorted(m) != ["unit", "value"]:
            problems.append("%s is not {value, unit}" % name)
            continue
        if m["unit"] != want[name]:
            problems.append("%s has unit %r, BENCHMARK.json says %r" %
                            (name, m["unit"], want[name]))
        v = m["value"]
        if (not isinstance(v, (int, float)) or isinstance(v, bool) or
                v != v or v in (float("inf"), float("-inf"))):
            problems.append("%s has value %r, not a finite number" % (name, v))
    return problems


def one_run(args):
    spec = load_spec()
    if (args.workload not in [w["name"] for w in spec["workloads"]] and
            args.workload not in UNGATED_WORKLOADS):
        log("unknown workload %r" % args.workload)
        return 2
    binary = build()
    if binary is None:
        return 1
    rc, lines, result = run_once(binary, args.workload, args.seed,
                                 args.seconds, args.trace)
    for line in lines:
        print(line)
    if result is None:
        log("benchmark produced no result (exit code %d)" % rc)
        return rc or 1
    problems = result_problems(spec, args.trace, result)
    if problems:
        for problem in problems:
            log("bad result line: %s" % problem)
        return 1
    meta = {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    saved = dict(result)
    saved["run"] = meta
    path = os.path.join(out_dir(), "result-%s-seed%d-trace%d.json" %
                        (args.workload, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump(saved, f, indent=1, sort_keys=True)
    print("run: git %s, sources %s, nproc %s, build %s (%s); result saved to %s"
          % (meta["git_sha"], meta["source_sha256"][:12], meta["nproc"],
             result["params"].get("build_type"), result["params"].get("compiler"),
             os.path.relpath(path, ROOT)))
    final = {k: result[k] for k in RESULT_KEYS}
    final["metrics"] = {name: result["metrics"][name]
                        for name in manifest_units(spec, args.trace)}
    print(json.dumps(final, sort_keys=False))
    sys.stdout.flush()
    return rc


def spread_row(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return q1, med, q3, spread


def steady(args):
    spec = load_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    binary = build()
    if binary is None:
        return 1
    workloads = ([w["name"] for w in spec["workloads"]]
                 if args.workload == "all" else [args.workload])
    status = 0
    for wl in workloads:
        values = {}
        seeds = list(range(args.seed, args.seed + args.steady))
        for seed in seeds:
            t0 = time.time()
            rc, _, result = run_once(binary, wl, seed, args.seconds, args.trace)
            if result is None or rc != 0 or not result.get("correct"):
                log("%s seed %d failed (exit %d)" % (wl, seed, rc))
                status = 1
                continue
            problems = result_problems(spec, args.trace, result)
            if problems:
                for problem in problems:
                    log("%s seed %d: bad result line: %s" % (wl, seed, problem))
                status = 1
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            log("%s seed %d done in %.1f s" % (wl, seed, time.time() - t0))
        summary = {"workload": wl, "trace": args.trace, "seeds": seeds,
                   "seconds": args.seconds, "git_sha": git_sha(),
                   "source_sha256": source_digest(), "metrics": {}}
        print("\n%s (trace=%d, seeds %d..%d)" % (wl, args.trace, seeds[0], seeds[-1]))
        print("%-34s %14s %14s %14s %8s %6s  %s" %
              ("metric", "q1", "median", "q3", "spread", "bound", "verdict"))
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3, spread = spread_row(vals)
            bound = bounds.get(name, {}).get("bound")
            if bound is None:
                verdict = "-"
            elif name == "setup_s":
                verdict = "exempt"
            elif spread <= bound / 3:
                verdict = "ok"
            elif spread <= bound:
                verdict = "within bound, above a third"
            else:
                verdict = "TOO WIDE"
                status = 1
            summary["metrics"][name] = {"values": vals, "q1": q1, "median": med,
                                        "q3": q3, "spread": spread,
                                        "bound": bound, "verdict": verdict}
            print("%-34s %14.6g %14.6g %14.6g %8.4f %6s  %s" %
                  (name, q1, med, q3, spread,
                   "-" if bound is None else "%.2f" % bound, verdict))
        path = os.path.join(out_dir(), "steady-%s-trace%d-seed%dx%d.json" %
                            (wl, args.trace, args.seed, args.steady))
        with open(path, "w") as f:
            json.dump(summary, f, indent=1)
        print("summary saved to %s" % os.path.relpath(path, ROOT))
    return status


def compare(paths):
    spec = load_spec()
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    with open(paths[0]) as f:
        a = json.load(f)
    with open(paths[1]) as f:
        b = json.load(f)
    status = 0
    print("%-20s %14s %14s %9s %6s  %s" %
          ("metric", "median A", "median B", "worse by", "bound", "verdict"))
    for name, m in metrics.items():
        if name not in a["metrics"] or name not in b["metrics"]:
            continue
        ma, mb = a["metrics"][name]["median"], b["metrics"][name]["median"]
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        ok = worse <= m["bound"]
        status |= 0 if ok else 1
        print("%-20s %14.6g %14.6g %9.4f %6.2f  %s" %
              (name, ma, mb, worse, m["bound"], "ok" if ok else "WORSE"))
    return status


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", default=None)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steady", type=int, default=0,
                   help="run this many seeds and report medians and spreads")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = p.parse_args()
    if args.compare:
        return compare(args.compare)
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    if args.workload is None:
        p.error("--workload is required")
    if args.steady:
        if args.steady < 2:
            p.error("--steady needs at least 2 runs")
        return steady(args)
    return one_run(args)


if __name__ == "__main__":
    sys.exit(main())
