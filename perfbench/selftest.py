#!/usr/bin/env python3
"""Self-tests of the lfstx benchmark. Run from the root of a checkout:

    python3 perfbench/selftest.py

Builds the runner like run.py does, then checks, at small sizes:
  * the same seed gives byte-identical virtual metrics across two runs and
    across --sim-backend=threads vs fibers;
  * per arch, the phase.*_ms values times the window's transactions sum to
    the traced tpcb.measure span's virtual time (within the part of each
    transaction outside the profiler's span);
  * the verifier flags a deliberately understated expected-commit count;
  * the watchdog reports the scale-64-disk user_lfs livelock, and a run
    over its virtual-time budget, as failed runs;
  * both entry points reject unknown flags and --help with usage and a
    non-zero exit.
Exits 0 when every check passes.
"""
import json
import os
import subprocess
import sys
import tempfile

sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the entry point's build step)

# Scale 128 keeps LIBTP's automatic checkpoint out of the window: it runs
# after the committing transaction's profiler span closes, so its time is
# in no phase (see README.md) and would break the phase-sum check.
SMALL = ["--workload=tpcb", "--scale=128", "--cylinders=320", "--warmup=20",
         "--txns=120"]
FAILURES = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def runner(binary, args, expect_code=0):
    r = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True, timeout=600)
    if r.returncode != expect_code:
        print(r.stderr[-2000:], file=sys.stderr)
    lines = r.stdout.strip().splitlines()
    report = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return r.returncode, report


def virtual(report):
    """Every metric that is a function of the seed alone."""
    host = {"setup_s", "run_s", "peak_rss_mb"}
    out = {}
    for key in ("e2e", "layer"):
        for name, (value, _) in report[key].items():
            if name not in host and not name.startswith("host."):
                out[name] = value
    return out


def test_determinism(binary):
    _, a = runner(binary, SMALL + ["--seed=7"])
    _, b = runner(binary, SMALL + ["--seed=7"])
    _, t = runner(binary, SMALL + ["--seed=7", "--sim-backend=threads"])
    _, c = runner(binary, SMALL + ["--seed=8"])
    check(a["failed"] == 0 and b["failed"] == 0 and t["failed"] == 0,
          "small runs complete without failures")
    check(json.dumps(virtual(a)) == json.dumps(virtual(b)),
          "same seed, same virtual metrics across two runs")
    check(json.dumps(virtual(a)) == json.dumps(virtual(t)),
          "same seed, same virtual metrics on threads and fibers")
    check(virtual(a) != virtual(c), "another seed gives other inputs")


def test_phase_sum(binary):
    with tempfile.TemporaryDirectory(dir=run.build_dir()) as d:
        path = os.path.join(d, "spans.jsonl")
        _, rep = runner(binary, SMALL + ["--seed=7", "--trace=1",
                                         "--trace-file=" + path])
        with open(path) as f:
            spans = [json.loads(line) for line in f]
    phases = ("run", "runq_wait", "disk_read_wait", "disk_write_wait",
              "lock_wait", "log_wait", "cleaner_stall")
    for arch in ("user_ffs", "user_lfs", "embedded_lfs"):
        mgr = "embedded" if arch == "embedded_lfs" else "libtp"
        window = [s for s in spans
                  if s["name"] == "tpcb.measure" and s["arch"] == arch][0]
        txns = [s for s in spans if s["name"] == "tpcb.txn"
                and s["parent"] == window["span"]]
        window_us = window["virt_end_us"] - window["virt_start_us"]
        d = window["deltas"]
        # The profiler's seven phases partition its span time exactly; the
        # two the runner leaves out are zero.
        all_phases = sum(d.get("prof.%s.%s_us.sum" % (mgr, p), 0)
                         for p in phases)
        elapsed = d.get("prof.%s.elapsed_us.sum" % mgr, 0)
        reported = 1e3 * len(txns) * sum(
            v for k, (v, _) in rep["layer"].items()
            if k.startswith("phase.") and k.endswith("." + arch))
        check(len(txns) == 120 and all_phases == elapsed and
              abs(reported - elapsed) <= 1e-6 * elapsed + 1 and
              0.99 * window_us <= elapsed <= window_us,
              "%s: phase.*_ms x %d txns = %.0f us, profiler spans %.0f us, "
              "tpcb.measure span %d us" % (arch, len(txns), reported,
                                           elapsed, window_us))


def test_verifier(binary):
    _, rep = runner(binary, SMALL + ["--seed=7", "--archs=user_lfs",
                                     "--understate-acks=3"])
    check(rep["failed"] == 3 and any("durability" in f
                                     for f in rep["failures"]),
          "verifier counts 3 failures for 3 understated commits")


def test_watchdog(binary):
    # Scale-64 TPC-B on the scale-64 default disk (96 cylinders): user_lfs
    # livelocks between 6000 and 7000 measured transactions, spinning
    # without completing one, so the host budget must catch it.
    code, rep = runner(binary, ["--workload=tpcb_cached", "--seed=17",
                                "--cylinders=96", "--archs=user_lfs",
                                "--warmup=2000", "--txns=7000",
                                "--host-budget-s=20"], expect_code=3)
    check(code == 3 and rep is not None and rep["failed"] >= 1 and
          "host-time" in (rep["watchdog"] or ""),
          "host watchdog reports the livelock as a failed run: %s"
          % (rep or {}).get("watchdog"))
    code, rep = runner(binary, SMALL + ["--seed=7", "--virt-budget-s=5"],
                       expect_code=3)
    check(code == 3 and rep is not None and rep["failed"] >= 1 and
          "virtual-time" in (rep["watchdog"] or ""),
          "virtual watchdog reports an over-budget run as failed: %s"
          % (rep or {}).get("watchdog"))


def test_cli(binary):
    for args in (["--help"], ["--workload=tpcb", "--seed=1", "--sacle=4"],
                 ["--workload=tpcb"], ["--workload=nope", "--seed=1"]):
        code, _ = runner(binary, args, expect_code=2)
        check(code == 2, "runner rejects %s" % " ".join(args))
    entry = os.path.join(run.HERE, "run.py")
    for args in (["--help"], ["--workload", "tpcb", "--seed", "1",
                              "--seconds", "10", "--trace", "0", "--x", "1"],
                 ["--workload", "tpcb", "--seed", "1"]):
        r = subprocess.run([sys.executable, entry] + args,
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        check(r.returncode == 2 and b"usage" in r.stdout + r.stderr,
              "run.py rejects %s" % " ".join(args))


def main():
    binary = run.build(run.build_dir())
    test_cli(binary)
    test_determinism(binary)
    test_phase_sum(binary)
    test_verifier(binary)
    test_watchdog(binary)
    print("%d failed" % len(FAILURES))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
