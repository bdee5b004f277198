#!/usr/bin/env python3
"""lfstx benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the runner (perfbench/CMakeLists.txt)
into $CARGO_TARGET_DIR or .bench_build, runs one workload in one
single-threaded process, checks its outputs, and prints one JSON object as
the last line of stdout:

    {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 runs
the workload untraced and then traced, and reports the per-layer metrics
plus trace.overhead_s (traced minus untraced run_s). The work in a run is
fixed, so every virtual metric is a function of the seed alone; --seconds
sets the host-time watchdog (15x, at most 150 s). See perfbench/README.md.
"""
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tpcb", "tpcb_cached", "scan")
USAGE = ("usage: python3 perfbench/run.py --workload {%s} --seed N "
         "--seconds S --trace {0,1}" % ",".join(WORKLOADS))


def die(msg):
    print("run.py: " + msg, file=sys.stderr)
    print(USAGE, file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    """Strict: every flag exactly once, nothing unknown, --help exits 2."""
    want = {"--workload", "--seed", "--seconds", "--trace"}
    args = {}
    i = 0
    while i < len(argv):
        flag = argv[i]
        if flag in ("--help", "-h"):
            print(USAGE)
            sys.exit(2)
        value = None
        if "=" in flag:
            flag, value = flag.split("=", 1)
        elif i + 1 < len(argv):
            i += 1
            value = argv[i]
        if flag not in want:
            die("unknown flag %s" % flag)
        if value is None:
            die("%s needs a value" % flag)
        if flag in args:
            die("%s given twice" % flag)
        args[flag] = value
        i += 1
    missing = sorted(want - set(args))
    if missing:
        die("missing " + ", ".join(missing))
    if args["--workload"] not in WORKLOADS:
        die("unknown workload %s" % args["--workload"])
    try:
        seed = int(args["--seed"])
        seconds = int(args["--seconds"])
    except ValueError:
        die("--seed and --seconds take whole numbers")
    if seed < 0 or seconds < 1:
        die("--seed must be >= 0 and --seconds >= 1")
    if args["--trace"] not in ("0", "1"):
        die("--trace takes 0 or 1")
    return args["--workload"], seed, seconds, args["--trace"] == "1"


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out):
    """Configure, then an incremental build of the runner."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", out,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", out, "-j", jobs, "--target", "lfstx_bench"]]
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            sys.exit(1)
    return os.path.join(out, "lfstx_bench")


def run_once(binary, workload, seed, budget_s, trace_file):
    """One runner process. Returns its report, or a failure report when it
    crashed, hung past the budget, or printed no result."""
    cmd = [binary, "--workload=" + workload, "--seed=%d" % seed,
           "--host-budget-s=%g" % budget_s]
    if trace_file:
        cmd += ["--trace=1", "--trace-file=" + trace_file]
    try:
        # The runner's own watchdog fires at budget_s; this is the backstop
        # for a hang that stops virtual time. run() kills and reaps it.
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           timeout=budget_s + 15, text=True)
    except subprocess.TimeoutExpired:
        return {"attempted": 1, "failed": 1,
                "failures": ["timed out after %.0f s" % (budget_s + 15)]}
    lines = r.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"attempted": 1, "failed": 1,
                "failures": ["runner exited %d without a result"
                             % r.returncode]}
    if r.returncode not in (0, 3):
        report["failed"] = report.get("failed", 0) + 1
        report.setdefault("failures", []).append(
            "runner exited %d" % r.returncode)
    return report


def metric_values(report, key, spec):
    """The metrics of `spec` from report[key]; missing ones are failures."""
    got = report.get(key, {})
    out, problems = {}, []
    for m in spec:
        if m["name"] not in got:
            problems.append("missing metric " + m["name"])
            continue
        value, unit = got[m["name"]]
        if unit != m["unit"] or not math.isfinite(value):
            problems.append("bad metric %s: %r %s" % (m["name"], value, unit))
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out, problems


def main():
    workload, seed, seconds, trace = parse_args(sys.argv[1:])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    out = build_dir()
    binary = build(out)

    deadline = time.monotonic() + min(150.0, 15.0 * seconds)
    reports = [run_once(binary, workload, seed,
                        deadline - time.monotonic(), None)]
    if trace:
        trace_dir = os.path.join(out, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_file = os.path.join(trace_dir, "%s-%d.jsonl" % (workload, seed))
        reports.append(run_once(binary, workload, seed,
                                max(1.0, deadline - time.monotonic()),
                                trace_file))
        print("run.py: spans in " + os.path.relpath(trace_file, ROOT),
              file=sys.stderr)

    attempted = sum(r.get("attempted", 0) for r in reports)
    failed = sum(r.get("failed", 0) for r in reports)
    for r in reports:
        for why in r.get("failures", []):
            print("run.py: failure: " + why, file=sys.stderr)

    if trace:
        untraced, traced = reports
        layer = traced.setdefault("layer", {})
        if "run_s" in traced.get("e2e", {}) and "run_s" in untraced.get(
                "e2e", {}):
            layer["trace.overhead_s"] = [
                traced["e2e"]["run_s"][0] - untraced["e2e"]["run_s"][0], "s"]
        metrics, problems = metric_values(traced, "layer", spec["per_layer"])
    else:
        metrics, problems = metric_values(reports[0], "e2e",
                                          spec["end_to_end"])
        # End-to-end metrics are chosen to be nonzero on every workload.
        problems += ["zero metric " + k for k, v in metrics.items()
                     if v["value"] <= 0]
    for p in problems:
        print("run.py: " + p, file=sys.stderr)
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
