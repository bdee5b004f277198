#!/usr/bin/env python3
"""Run a small-scale bench and write its committed baseline JSON.

CI runs this after every build as a cheap performance-tracking step: a
tiny measurement per architecture (seconds of wall time) with enough
attribution attached that a regression shows up not just as a number
delta but as the phase — and the blamed resource — that ate the time.

Four modes:
  --mode fig4  (default) closed-loop TPC-B TPS per architecture, with the
               profiler breakdown and wait-blame counters; writes
               BENCH_fig4.json.
  --mode tail  open-loop offered-load sweep through bench/fig_tail:
               goodput vs offered plus HDR percentile curves
               (p50/p90/p95/p99/p99.9/max) and tail exemplars per load
               point; validates the queueing invariants (monotone offered
               axis, goodput <= offered, non-decreasing percentiles,
               exact shed/admission accounting, exemplar phase sums) and
               writes BENCH_tail.json.
  --mode recovery  restart-recovery curves through bench/fig_recovery:
               recovery virtual time vs log written since the last
               checkpoint, with and without fuzzy checkpoints, plus the
               checkpoint daemon's TPS overhead; validates that the
               no-checkpoint baseline grows with the log while the fuzzy
               curve stays bounded (sublinear), and that the daemon's
               overhead is bounded; writes BENCH_recovery.json.
  --mode cleaning  log-economics sweep through bench/fig_cleaning:
               byte provenance, write amplification, and victim
               utilization over disk fullness x cleaner watermark for the
               embedded and user-space LFS; validates that the provenance
               categories partition disk bytes exactly at every point,
               that physical WA never drops below 1.0, and that the sweep
               actually exercised the cleaner (nonzero cleaner-rewrite
               bytes); writes BENCH_cleaning.json.

The output is deterministic — the simulation is virtual-time and seeded,
and no wall-clock timestamps are recorded — so the committed baselines
only change when behaviour changes.

Usage:
    python3 tools/bench_summary.py [--mode fig4|tail|recovery|cleaning]
                                   [--bench PATH] [--out FILE]
                                   [--scale 64] [--txns N] [--users N]
                                   [--min-coverage 0.95] [--no-blame]
                                   [--offered-tps LIST] [--queue-cap N]
                                   [--exemplars K] [--fullness LIST]
                                   [--watermark lazy|eager]
"""
import argparse
import json
import os
import subprocess
import sys
import tempfile
from collections import defaultdict

import tracelib

EXPECTED_ARCHS = ["user_ffs", "user_lfs", "embedded_lfs"]
TAIL_PERCENTILE_ORDER = ["p50", "p90", "p95", "p99", "p999"]


def run_bench(bench, scale, txns, users, blame, summary_path):
    cmd = [
        bench,
        f"--scale={scale}",
        f"--txns={txns}",
        f"--users={users}",
        f"--summary={summary_path}",
    ]
    if blame:
        cmd.append("--blame")
    print("+ " + " ".join(cmd), flush=True)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        sys.exit(f"bench failed with exit code {proc.returncode}")


def validate(summary, min_coverage, blame):
    configs = summary.get("configs", [])
    archs = [c.get("arch") for c in configs]
    if archs != EXPECTED_ARCHS:
        sys.exit(f"expected configs {EXPECTED_ARCHS}, got {archs}")
    for c in configs:
        arch = c["arch"]
        if not c["tps"] > 0:
            sys.exit(f"{arch}: non-positive TPS {c['tps']}")
        prof = c["prof"]
        if sorted(prof["phases"]) != sorted(tracelib.PHASES):
            sys.exit(f"{arch}: phase set {sorted(prof['phases'])} does not "
                     f"match the profiler's ({sorted(tracelib.PHASES)})")
        phase_sum = sum(prof["phases"].values())
        if phase_sum != prof["elapsed_us"]:
            sys.exit(f"{arch}: phases sum to {phase_sum}, span elapsed is "
                     f"{prof['elapsed_us']} — profiler bug")
        if c["coverage"] < min_coverage:
            sys.exit(f"{arch}: only {c['coverage']:.1%} of the measured "
                     f"window attributed to transaction spans "
                     f"(floor {min_coverage:.0%})")
        if blame:
            if "blame" not in c:
                sys.exit(f"{arch}: no blame object in the summary "
                         f"(bench too old for --blame?)")
            # Lock-wait blame is exact by construction: every lock-wait
            # microsecond inside a measured span carries exactly one
            # wait_edge naming the holder, so the histogram's windowed sum
            # must equal the windowed lock_wait phase.
            lock_sum = sum(v for k, v in c["blame"].items()
                           if k.startswith("blame.lock.")
                           and k.endswith(".sum"))
            if lock_sum != prof["phases"]["lock_wait"]:
                sys.exit(f"{arch}: blame.lock.* sums to {lock_sum} but the "
                         f"lock_wait phase is "
                         f"{prof['phases']['lock_wait']} — blame bug")
        print(f"  {arch}: {c['tps']:.2f} TPS, "
              f"coverage {c['coverage']:.1%}, "
              f"{prof['phases']['log_wait']} us in log_wait")


def run_tail_bench(args, summary_path):
    cmd = [
        args.bench,
        f"--scale={args.scale}",
        f"--txns={args.txns}",
        f"--users={args.users}",
        f"--offered-tps={args.offered_tps}",
        f"--queue-cap={args.queue_cap}",
        f"--exemplars={args.exemplars}",
        f"--summary={summary_path}",
    ]
    print("+ " + " ".join(cmd), flush=True)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        sys.exit(f"bench failed with exit code {proc.returncode}")


def validate_tail(summary):
    """Queueing invariants every open-loop sweep must satisfy exactly."""
    if summary.get("bench") != "fig_tail":
        sys.exit(f"expected a fig_tail summary, got {summary.get('bench')}")
    by_arch = defaultdict(list)
    for c in summary.get("configs", []):
        by_arch[c["arch"]].append(c)
    if len(by_arch) < 2:
        sys.exit(f"need >= 2 architectures, got {sorted(by_arch)}")
    for arch, points in sorted(by_arch.items()):
        offered = [p["offered_tps"] for p in points]
        if offered != sorted(set(offered)) or len(offered) < 2:
            sys.exit(f"{arch}: offered axis must be strictly increasing "
                     f"with >= 2 points, got {offered}")
        for p in points:
            where = f"{arch} @ {p['offered_tps']} tps"
            if p["goodput_tps"] > p["offered_tps"] + 1e-9:
                sys.exit(f"{where}: goodput {p['goodput_tps']} exceeds the "
                         f"offered rate — accounting bug")
            if p["admitted"] + p["shed"] != p["arrivals"]:
                sys.exit(f"{where}: admitted {p['admitted']} + shed "
                         f"{p['shed']} != arrivals {p['arrivals']}")
            if p["completed"] != p["admitted"]:
                sys.exit(f"{where}: completed {p['completed']} != admitted "
                         f"{p['admitted']} (requests lost)")
            if p["committed"] > p["completed"]:
                sys.exit(f"{where}: committed {p['committed']} > completed "
                         f"{p['completed']}")
            if p["queue"]["max_depth"] > p["queue"]["cap"]:
                sys.exit(f"{where}: queue depth {p['queue']['max_depth']} "
                         f"exceeded the cap {p['queue']['cap']}")
            for name, h in sorted(p["latency"].items()):
                if h["count"] != p["completed"]:
                    sys.exit(f"{where}: {name} histogram count "
                             f"{h['count']} != completed {p['completed']}")
                seq = ([float(h["min"])]
                       + [h[q] for q in TAIL_PERCENTILE_ORDER]
                       + [float(h["max"])])
                for a, b in zip(seq, seq[1:]):
                    if a > b + 1e-9:
                        sys.exit(f"{where}: {name} percentiles are not "
                                 f"non-decreasing: {seq}")
            for ex in p["exemplars"]:
                phase_sum = sum(ex["phases"][q] for q in tracelib.PHASES)
                if phase_sum != ex["service_us"]:
                    sys.exit(f"{where} txn {ex['txn']}: phases sum to "
                             f"{phase_sum} but service_us is "
                             f"{ex['service_us']}")
                if ex["queued_us"] + ex["service_us"] != ex["sojourn_us"]:
                    sys.exit(f"{where} txn {ex['txn']}: queued + service "
                             f"!= sojourn")
        rates = ", ".join(
            f"{p['offered_tps']:g}->{p['goodput_tps']:.2f}" for p in points)
        print(f"  {arch}: offered->goodput tps: {rates}")


def run_recovery_bench(args, summary_path):
    cmd = [args.bench, f"--summary={summary_path}"]
    if args.txns:
        cmd.append(f"--txns={args.txns}")
    print("+ " + " ".join(cmd), flush=True)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        sys.exit(f"bench failed with exit code {proc.returncode}")


def validate_recovery(summary):
    """Bounded-recovery gates: nocp grows with the log, fuzzy does not."""
    if summary.get("bench") != "fig_recovery":
        sys.exit(f"expected a fig_recovery summary, "
                 f"got {summary.get('bench')}")
    by_mode = defaultdict(list)
    for p in summary.get("curve", []):
        by_mode[p["mode"]].append(p)
    for mode in ("nocp", "fuzzy"):
        pts = by_mode[mode]
        rounds = [p["rounds"] for p in pts]
        if rounds != sorted(set(rounds)) or len(rounds) < 3:
            sys.exit(f"{mode}: rounds axis must be strictly increasing with "
                     f">= 3 points, got {rounds}")
        for p in pts:
            if p["recovery_us"] <= 0 or p["written_blocks"] <= 0:
                sys.exit(f"{mode} @ {p['rounds']} rounds: non-positive "
                         f"recovery_us/written_blocks")
    nocp, fuzzy = by_mode["nocp"], by_mode["fuzzy"]
    log_growth = nocp[-1]["written_blocks"] / nocp[0]["written_blocks"]
    nocp_growth = nocp[-1]["recovery_us"] / nocp[0]["recovery_us"]
    fuzzy_growth = fuzzy[-1]["recovery_us"] / fuzzy[0]["recovery_us"]
    # The unbounded baseline must actually track the log (recovery time is
    # what the log makes it) ...
    if nocp_growth < 0.5 * log_growth:
        sys.exit(f"nocp recovery grew {nocp_growth:.2f}x over a "
                 f"{log_growth:.2f}x log — baseline is not log-bound, "
                 f"the sublinearity comparison below is vacuous")
    # ... while fuzzy checkpoints must decouple recovery from log size:
    # sublinear growth, and strictly cheaper than the baseline at the top.
    if fuzzy_growth > 0.5 * log_growth:
        sys.exit(f"fuzzy recovery grew {fuzzy_growth:.2f}x over a "
                 f"{log_growth:.2f}x log — checkpoints are not bounding "
                 f"replay")
    if fuzzy[-1]["recovery_us"] > 0.25 * nocp[-1]["recovery_us"]:
        sys.exit(f"fuzzy recovery at the largest log "
                 f"({fuzzy[-1]['recovery_us']} us) is not well under the "
                 f"no-checkpoint baseline ({nocp[-1]['recovery_us']} us)")
    overhead = summary.get("overhead", [])
    by_daemon = {p["checkpointer"]: p for p in overhead}
    if set(by_daemon) != {False, True}:
        sys.exit(f"overhead needs daemon-off and daemon-on points, "
                 f"got {sorted(by_daemon)}")
    off, on = by_daemon[False], by_daemon[True]
    if off["tps"] <= 0 or on["tps"] <= 0:
        sys.exit("non-positive TPS in the overhead measurement")
    if on["fuzzy_checkpoints"] == 0:
        sys.exit("daemon-on run took no fuzzy checkpoints — overhead "
                 "measurement is vacuous")
    if on["tps"] < 0.5 * off["tps"]:
        sys.exit(f"checkpoint daemon halved TPS ({off['tps']:.2f} -> "
                 f"{on['tps']:.2f}) — overhead is not bounded")
    print(f"  nocp: {nocp_growth:.2f}x recovery over {log_growth:.2f}x log; "
          f"fuzzy: {fuzzy_growth:.2f}x "
          f"({fuzzy[-1]['recovery_us']} us at the top vs "
          f"{nocp[-1]['recovery_us']} us unbounded)")
    print(f"  daemon overhead: {off['tps']:.2f} -> {on['tps']:.2f} TPS "
          f"with {on['fuzzy_checkpoints']} fuzzy checkpoints")


def run_cleaning_bench(args, summary_path):
    cmd = [args.bench, f"--summary={summary_path}"]
    if args.fullness:
        cmd.append(f"--fullness={args.fullness}")
    if args.watermark:
        cmd.append(f"--watermark={args.watermark}")
    print("+ " + " ".join(cmd), flush=True)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        sys.exit(f"bench failed with exit code {proc.returncode}")


def validate_cleaning(summary):
    """Log-economics gates; the full report lives in cleaning_report.py."""
    if summary.get("bench") != "fig_cleaning":
        sys.exit(f"expected a fig_cleaning summary, "
                 f"got {summary.get('bench')}")
    points = summary.get("points", [])
    if not points:
        sys.exit("no sweep points")
    archs = {p["arch"] for p in points}
    if len(archs) < 2:
        sys.exit(f"need >= 2 architectures, got {sorted(archs)}")
    block = 4096
    for p in points:
        where = f"{p['arch']}/{p['watermark']}/{p['fullness_pct']}%"
        charged = sum(p["bytes"].values())
        if sorted(p["bytes"]) != sorted(tracelib.LOGECON_CATS):
            sys.exit(f"{where}: category set {sorted(p['bytes'])} does not "
                     f"match tracelib.LOGECON_CATS")
        if charged != p["disk_blocks"] * block:
            sys.exit(f"{where}: provenance sums to {charged} bytes but the "
                     f"disk wrote {p['disk_blocks'] * block} — the "
                     f"partition is broken")
        if p["wa_physical"] < 1.0:
            sys.exit(f"{where}: physical WA {p['wa_physical']} < 1.0 — "
                     f"payload accounting broken")
        if p["churn"]["disk_blocks"] <= 0:
            sys.exit(f"{where}: empty churn window")
    if not any(p["bytes"]["cleaner"] > 0 for p in points):
        sys.exit("no sweep point has nonzero cleaner-rewrite bytes — the "
                 "sweep never exercised the cleaner")
    for p in points:
        print(f"  {p['arch']}/{p['watermark']}/{p['fullness_pct']}%: "
              f"run WA {p['wa_physical']:.2f}, "
              f"churn WA {p['churn']['wa_physical']:.2f}, "
              f"write cost {p['write_cost']:.2f}, "
              f"{p['cleaner']['segments_cleaned']} cleaned")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=["fig4", "tail", "recovery", "cleaning"],
                    default="fig4")
    ap.add_argument("--bench")
    ap.add_argument("--out")
    ap.add_argument("--scale", type=int, default=64)
    ap.add_argument("--txns", type=int, default=0)
    ap.add_argument("--users", type=int, default=0)
    ap.add_argument("--min-coverage", type=float, default=0.95)
    ap.add_argument("--no-blame", dest="blame", action="store_false",
                    help="omit the wait-blame section (fig4 mode)")
    ap.add_argument("--offered-tps", default="4,8,16,32",
                    help="comma list of offered rates (tail mode)")
    ap.add_argument("--queue-cap", type=int, default=64)
    ap.add_argument("--exemplars", type=int, default=8)
    ap.add_argument("--fullness", default="",
                    help="comma list of fill percentages (cleaning mode)")
    ap.add_argument("--watermark", default="",
                    help="lazy|eager to restrict the sweep (cleaning mode)")
    args = ap.parse_args()

    tail = args.mode == "tail"
    recovery = args.mode == "recovery"
    cleaning = args.mode == "cleaning"
    if args.bench is None:
        args.bench = {"tail": "build/bench/fig_tail",
                      "recovery": "build/bench/fig_recovery",
                      "cleaning": "build/bench/fig_cleaning",
                      "fig4": "build/bench/fig4_tps"}[args.mode]
    if args.out is None:
        args.out = {"tail": "BENCH_tail.json",
                    "recovery": "BENCH_recovery.json",
                    "cleaning": "BENCH_cleaning.json",
                    "fig4": "BENCH_fig4.json"}[args.mode]
    if args.txns == 0 and not recovery and not cleaning:
        args.txns = 400 if tail else 40
    if args.users == 0:
        args.users = 100 if tail else 1

    if not os.path.exists(args.bench):
        sys.exit(f"{args.bench} not found (build first)")

    fd, tmp = tempfile.mkstemp(suffix=".json")
    os.close(fd)
    try:
        if tail:
            run_tail_bench(args, tmp)
        elif recovery:
            run_recovery_bench(args, tmp)
        elif cleaning:
            run_cleaning_bench(args, tmp)
        else:
            run_bench(args.bench, args.scale, args.txns, args.users,
                      args.blame, tmp)
        with open(tmp, "r", encoding="utf-8") as f:
            summary = json.load(f)
    finally:
        os.unlink(tmp)

    if tail:
        validate_tail(summary)
    elif recovery:
        validate_recovery(summary)
    elif cleaning:
        validate_cleaning(summary)
    else:
        validate(summary, args.min_coverage, args.blame)

    # Re-serialize with sorted keys so the file is canonical regardless of
    # the emitting code's field order.
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
