#!/usr/bin/env python3
"""Regenerate, gate and explain the lfstx bench baselines.

    python3 tools/report.py baseline fig4|tail|recovery|cleaning
                            [--bench PATH] [--out FILE]
    python3 tools/report.py profile TRACE
    python3 tools/report.py blame TRACE [--check] [--min-lock-share F]
                            [--require-disk-blame SRC]...
    python3 tools/report.py tail SUMMARY [--trace TRACE] [--check]
    python3 tools/report.py cleaning SUMMARY [--trace TRACE] [--check]

`baseline KIND` runs the bench behind BENCH_KIND.json at its committed
point (build/bench/ unless --bench names the binary), applies KIND's
summary validator and writes the summary with sorted keys (default
BENCH_KIND.json). The simulation is virtual-time and seeded, and no
wall-clock time is recorded, so a committed baseline changes only when
behaviour does.

The renderers explain one run:
  profile   per-transaction phase attribution from a `--trace=prof` trace,
            the table the benches print under `--profile`;
  blame     who each transaction waited for, from `--trace=prof,blame`:
            lock holders, commit leaders, disk-queue causes, the exact
            critical-path decomposition and mutual-blame anomalies;
  tail      why p99 is slow: the dominant blame source of every fig_tail
            exemplar, refined by a `--trace=prof,blame,openloop` trace;
  cleaning  where the bytes went: fig_cleaning's byte provenance, write
            amplification and victim utilization, with the provenance
            partition re-derived from a `--trace=disk,logecon,cleaner`
            trace.

`tail` and `cleaning` apply the same summary validator as `baseline`,
plus checks that need the trace. Every renderer prints its invariant
failures as `CHECK FAILED: ...` on stderr, and under --check exits 1.
Reports derive from integer virtual microseconds with deterministic
tie-breaking, so they are byte-identical across runs and simulator
backends.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
from collections import defaultdict

import tracelib

# The bench command behind each committed BENCH_<kind>.json. fig4 is
# Seltzer's Figure 4 at the CI point (one user), with the blame counters.
BASELINES = {
    "fig4": ["fig4_tps", "--scale=64", "--txns=40", "--blame"],
    "tail": ["fig_tail", "--scale=64", "--txns=400", "--users=100"],
    "recovery": ["fig_recovery"],
    "cleaning": ["fig_cleaning"],
}
FIG4_ARCHS = ["user_ffs", "user_lfs", "embedded_lfs"]
MIN_COVERAGE = 0.95  # share of fig4's measured window inside txn spans
PERCENTILES = ["p50", "p90", "p95", "p99", "p999"]
BLOCK_SIZE = 4096
TOP = 5  # rows per blame ranking table


# ---- summary validators: one per baseline kind, each yielding failures ----

def check_fig4(summary):
    """Profiler coverage and exact phase and lock-blame sums per arch."""
    archs = [c.get("arch") for c in summary.get("configs", [])]
    if archs != FIG4_ARCHS:
        yield f"expected configs {FIG4_ARCHS}, got {archs}"
        return
    for c in summary["configs"]:
        arch, prof = c["arch"], c["prof"]
        if not c["tps"] > 0:
            yield f"{arch}: non-positive TPS {c['tps']}"
        if sorted(prof["phases"]) != sorted(tracelib.PHASES):
            yield (f"{arch}: phase set {sorted(prof['phases'])} does not "
                   f"match the profiler's ({sorted(tracelib.PHASES)})")
            continue
        phase_sum = sum(prof["phases"].values())
        if phase_sum != prof["elapsed_us"]:
            yield (f"{arch}: phases sum to {phase_sum}, span elapsed is "
                   f"{prof['elapsed_us']} — profiler bug")
        if c["coverage"] < MIN_COVERAGE:
            yield (f"{arch}: only {c['coverage']:.1%} of the measured window "
                   f"attributed to transaction spans "
                   f"(floor {MIN_COVERAGE:.0%})")
        if "blame" not in c:
            yield f"{arch}: no blame object in the summary"
            continue
        # Lock-wait blame is exact by construction: every lock-wait
        # microsecond inside a measured span carries exactly one wait_edge
        # naming the holder, so the histogram's windowed sum must equal the
        # windowed lock_wait phase.
        lock_sum = sum(v for k, v in c["blame"].items()
                       if k.startswith("blame.lock.") and k.endswith(".sum"))
        if lock_sum != prof["phases"]["lock_wait"]:
            yield (f"{arch}: blame.lock.* sums to {lock_sum} but the "
                   f"lock_wait phase is {prof['phases']['lock_wait']} "
                   f"— blame bug")


def check_tail(summary):
    """Queueing invariants every open-loop sweep must satisfy exactly."""
    by_arch = defaultdict(list)
    for c in summary.get("configs", []):
        by_arch[c["arch"]].append(c)
    if len(by_arch) < 2:
        yield f"need >= 2 architectures, got {sorted(by_arch)}"
    for arch, points in sorted(by_arch.items()):
        offered = [p["offered_tps"] for p in points]
        if offered != sorted(set(offered)) or len(offered) < 2:
            yield (f"{arch}: offered axis must be strictly increasing with "
                   f">= 2 points, got {offered}")
        for p in points:
            where = f"{arch} @ {p['offered_tps']} tps"
            if p["goodput_tps"] > p["offered_tps"] + 1e-9:
                yield (f"{where}: goodput {p['goodput_tps']} exceeds the "
                       f"offered rate — accounting bug")
            if p["admitted"] + p["shed"] != p["arrivals"]:
                yield (f"{where}: admitted {p['admitted']} + shed "
                       f"{p['shed']} != arrivals {p['arrivals']}")
            if p["completed"] != p["admitted"]:
                yield (f"{where}: completed {p['completed']} != admitted "
                       f"{p['admitted']} (requests lost)")
            if p["committed"] > p["completed"]:
                yield (f"{where}: committed {p['committed']} > completed "
                       f"{p['completed']}")
            if p["queue"]["max_depth"] > p["queue"]["cap"]:
                yield (f"{where}: queue depth {p['queue']['max_depth']} "
                       f"exceeded the cap {p['queue']['cap']}")
            for name, h in sorted(p["latency"].items()):
                if h["count"] != p["completed"]:
                    yield (f"{where}: {name} histogram count {h['count']} "
                           f"!= completed {p['completed']}")
                seq = ([float(h["min"])] + [h[q] for q in PERCENTILES]
                       + [float(h["max"])])
                if any(a > b + 1e-9 for a, b in zip(seq, seq[1:])):
                    yield (f"{where}: {name} percentiles are not "
                           f"non-decreasing: {seq}")
            for ex in p["exemplars"]:
                phase_sum = sum(ex["phases"][q] for q in tracelib.PHASES)
                if phase_sum != ex["service_us"]:
                    yield (f"{where} txn {ex['txn']}: phases sum to "
                           f"{phase_sum} but service_us is "
                           f"{ex['service_us']} — harness bug")
                if ex["queued_us"] + ex["service_us"] != ex["sojourn_us"]:
                    yield (f"{where} txn {ex['txn']}: queued "
                           f"{ex['queued_us']} + service {ex['service_us']} "
                           f"!= sojourn {ex['sojourn_us']}")


def check_recovery(summary):
    """Bounded-recovery gates: nocp grows with the log, periodic does not."""
    by_mode = defaultdict(list)
    for p in summary.get("curve", []):
        by_mode[p["mode"]].append(p)
    for mode in ("nocp", "periodic"):
        rounds = [p["rounds"] for p in by_mode[mode]]
        if rounds != sorted(set(rounds)) or len(rounds) < 3:
            yield (f"{mode}: rounds axis must be strictly increasing with "
                   f">= 3 points, got {rounds}")
            return
        for p in by_mode[mode]:
            if p["recovery_us"] <= 0 or p["written_blocks"] <= 0:
                yield (f"{mode} @ {p['rounds']} rounds: non-positive "
                       f"recovery_us/written_blocks")
                return
    nocp, periodic = by_mode["nocp"], by_mode["periodic"]
    log_growth = nocp[-1]["written_blocks"] / nocp[0]["written_blocks"]
    nocp_growth = nocp[-1]["recovery_us"] / nocp[0]["recovery_us"]
    periodic_growth = periodic[-1]["recovery_us"] / periodic[0]["recovery_us"]
    # The unbounded baseline must actually track the log (recovery time is
    # what the log makes it) ...
    if nocp_growth < 0.5 * log_growth:
        yield (f"nocp recovery grew {nocp_growth:.2f}x over a "
               f"{log_growth:.2f}x log — baseline is not log-bound, the "
               f"sublinearity comparison below is vacuous")
    # ... while periodic checkpoints must decouple recovery from log size:
    # sublinear growth, and strictly cheaper than the baseline at the top.
    if periodic_growth > 0.5 * log_growth:
        yield (f"periodic recovery grew {periodic_growth:.2f}x over a "
               f"{log_growth:.2f}x log — checkpoints are not bounding replay")
    if periodic[-1]["recovery_us"] > 0.25 * nocp[-1]["recovery_us"]:
        yield (f"periodic recovery at the largest log "
               f"({periodic[-1]['recovery_us']} us) is not well under the "
               f"no-checkpoint baseline ({nocp[-1]['recovery_us']} us)")


def point_name(p):
    return f"{p['arch']}/{p['watermark']}/{p['fullness_pct']}%"


def check_cleaning(summary):
    """Exact provenance partition, WA >= 1, and a sweep that cleaned."""
    points = summary.get("points", [])
    archs = sorted({p["arch"] for p in points})
    if len(archs) < 2:
        yield f"need >= 2 architectures, got {archs}"
    for p in points:
        if sorted(p["bytes"]) != sorted(tracelib.LOGECON_CATS):
            yield (f"{point_name(p)}: category set {sorted(p['bytes'])} "
                   f"does not match tracelib.LOGECON_CATS")
        charged = sum(p["bytes"].values())
        if charged != p["disk_blocks"] * BLOCK_SIZE:
            yield (f"{point_name(p)}: provenance sums to {charged} bytes but "
                   f"the disk wrote {p['disk_blocks'] * BLOCK_SIZE} — "
                   f"partition broken")
        if p["wa_physical"] < 1.0:
            yield (f"{point_name(p)}: physical WA {p['wa_physical']:.4f} < "
                   f"1.0 — payload accounting broken")
        if p["churn"]["disk_blocks"] <= 0:
            yield f"{point_name(p)}: empty churn window"
    if not any(p["bytes"].get("cleaner", 0) > 0 for p in points):
        yield ("no sweep point has nonzero cleaner-rewrite bytes — the "
               "sweep never exercised the cleaner")


CHECKS = {"fig4": check_fig4, "tail": check_tail,
          "recovery": check_recovery, "cleaning": check_cleaning}


def read_summary(path, bench):
    with open(path, "r", encoding="utf-8") as f:
        summary = json.load(f)
    if summary.get("bench") != bench:
        sys.exit(f"{path}: not a {bench} summary")
    return summary


def baseline(args):
    """Runs the bench, gates its summary, and writes the baseline file."""
    bench_name, *flags = BASELINES[args.kind]
    bench = args.bench or f"build/bench/{bench_name}"
    out = args.out or f"BENCH_{args.kind}.json"
    if not os.path.exists(bench):
        sys.exit(f"{bench} not found (build first)")
    with tempfile.TemporaryDirectory() as tmp:
        cmd = [bench, *flags, f"--summary={tmp}/summary.json"]
        print("+ " + " ".join(cmd), flush=True)
        rc = subprocess.call(cmd)
        if rc != 0:
            sys.exit(f"bench failed with exit code {rc}")
        summary = read_summary(f"{tmp}/summary.json", bench_name)
    for failure in CHECKS[args.kind](summary):
        sys.exit(failure)
    # Sorted keys make the file canonical whatever the bench's field order.
    with open(out, "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {out}")
    return []


# ---- renderers ----

def pct(part, whole):
    return 100.0 * part / whole if whole else 0.0


def load_spans(path):
    spans, edges = tracelib.load_trace(path)
    if not spans:
        sys.exit(f"{path}: no txn_profile events "
                 f"(run the bench with --trace=prof)")
    return spans, edges


def profile(args):
    """One phase-attribution table per (machine, manager)."""
    spans, _ = load_spans(args.trace)
    for (machine, mgr), evs in sorted(spans.items()):
        elapsed = sum(e["elapsed_us"] for e in evs)
        committed = sum(1 for e in evs if e.get("committed"))
        print(f"\n[profile] machine={machine} mgr={mgr}: "
              f"{len(evs)} spans ({committed} committed)")
        totals = [(p, sum(e.get(p, 0) for e in evs)) for p in tracelib.PHASES]
        tracelib.print_table(
            [("phase", "total (us)", "per-txn (us)", "% of txn time")]
            + [(p, us, f"{us / len(evs):.1f}", f"{pct(us, elapsed):.1f}")
               for p, us in totals + [("total", elapsed)]])
    return []


def attach_edges(span_events, edge_events):
    """Maps each waiter edge onto the span whose interval covers it.

    Returns {id(span): [edge, ...]} plus the edges that matched no span
    (daemon waiters — the syncer and cleaner run outside transaction
    spans and stamp waiter 0).
    """
    by_txn = defaultdict(list)
    for s in span_events:  # already sorted by end time
        by_txn[s["txn"]].append(s)
    attached = defaultdict(list)
    orphans = []
    for e in edge_events:
        waiter = e.get("waiter", 0)
        home = next((s for s in by_txn[waiter] if waiter
                     and s["t"] - s["elapsed_us"] <= e["since"] < s["t"]),
                    None)
        if home is None:
            orphans.append(e)
        else:
            attached[id(home)].append(e)
    return attached, orphans


def critical_path(span, span_edges):
    """Exact decomposition of one span into (segment, us) pieces.

    Returns (segments, lock_exact) where segments maps (phase, blamed) to
    microseconds and lock_exact says whether the lock edges summed
    exactly to the lock_wait phase (they must). `lock_wait` splits among
    lock holders, `log_wait` among group-commit and log-flush leaders,
    `cleaner_stall` onto the cleaner; each phase's remainder, and every
    other phase, is the span's own time. Disk edges explain time *inside*
    the disk phases rather than partitioning them, so they are reported
    separately.
    """
    segs = defaultdict(int)
    blamed = defaultdict(int)  # phase -> us explained by edges
    for e in span_edges:
        if e["kind"] in tracelib.LOCK_KINDS:
            key = ("lock_wait", f"txn {e['holder']}")
        elif e["kind"] in tracelib.COMMIT_KINDS:
            key = ("log_wait", f"leader txn {e['holder']}")
        elif e["kind"] == "lfs":
            key = ("cleaner_stall", "cleaner")
        else:
            continue
        segs[key] += e["waited_us"]
        blamed[key[0]] += e["waited_us"]
    for phase in tracelib.PHASES:
        rest = span.get(phase, 0) - blamed[phase]
        if rest:
            segs[(phase, "self")] += rest
    return segs, blamed["lock_wait"] == span.get("lock_wait", 0)


def find_cycles(edge_events):
    """Mutual-blame pairs with overlapping wait intervals.

    Two transactions blocked on each other at the same time would be a
    deadlock the lock manager failed to see; expected count is zero and
    any hit is printed as an anomaly.
    """
    blames = defaultdict(list)  # (waiter, holder) -> [(since, until)]
    for e in edge_events:
        w, h = e.get("waiter", 0), e.get("holder", 0)
        if w and h:
            blames[(w, h)].append((e["since"], e["since"] + e["waited_us"]))
    hits = []
    for (w, h), ivals in sorted(blames.items()):
        if w >= h:  # count each unordered pair once
            continue
        for s0, u0 in ivals:
            for s1, u1 in blames.get((h, w), ()):
                if s0 < u1 and s1 < u0:
                    hits.append((w, h, max(s0, s1), min(u0, u1)))
    return hits


def edge_totals(edges):
    """{(kind, src): [count, waited_us]}."""
    totals = defaultdict(lambda: [0, 0])
    for e in edges:
        t = totals[(e["kind"], e["src"])]
        t[0] += 1
        t[1] += e["waited_us"]
    return totals


def ranked(table, n):
    """The n largest entries of {key: [count, us, ...]} by us, then key."""
    return sorted(table.items(), key=lambda kv: (-kv[1][1], kv[0]))[:n]


def blame_machine(machine, mgr, span_events, edge_events, min_lock_share):
    """Prints one (machine, manager) report; returns its failures."""
    span_events = sorted(span_events, key=lambda s: s["t"])
    committed = sum(1 for s in span_events if s.get("committed"))
    elapsed = sum(s["elapsed_us"] for s in span_events)
    lock_wait = sum(s.get("lock_wait", 0) for s in span_events)
    where = f"machine {machine} mgr {mgr}"
    failures = []
    print(f"\n[blame] machine={machine} mgr={mgr}: {len(span_events)} spans "
          f"({committed} committed), {elapsed} us inside transactions")
    attached, orphans = attach_edges(span_events, edge_events)

    rows = [("edge", "count", "total (us)")]
    for (kind, src), (n, us) in sorted(edge_totals(edge_events).items()):
        rows.append((f"{kind}/{src}", n, us))
    if len(rows) > 1:
        tracelib.print_table(rows)
    else:
        print("  (no wait edges recorded)")

    # ---- lock blame: by holder transaction and by contended page ----
    holders = defaultdict(lambda: [0, 0, set()])   # txn -> n, us, waiters
    resources = defaultdict(lambda: [0, 0, set()])  # (file, page) -> same
    for es in attached.values():
        for e in es:
            if e["kind"] not in tracelib.LOCK_KINDS:
                continue
            for agg in (holders[e["holder"]],
                        resources[(e["file"], e["page"])]):
                agg[0] += 1
                agg[1] += e["waited_us"]
                agg[2].add(e["waiter"])
    lock_attr = sum(v[1] for v in holders.values())
    print(f"  lock blame: {lock_attr} of {lock_wait} us of lock_wait "
          f"attributed to identified holders ({pct(lock_attr, lock_wait):.1f}%)")
    if lock_wait and lock_attr / lock_wait < min_lock_share:
        failures.append(f"{where}: lock blame covers only "
                        f"{lock_attr / lock_wait:.1%} of lock_wait "
                        f"(floor {min_lock_share:.0%})")
    if holders:
        rows = [("holder", "edges", "blamed (us)", "distinct waiters")]
        for txn, (n, us, waiters) in ranked(holders, TOP):
            rows.append((f"txn {txn}", n, us, len(waiters)))
        tracelib.print_table(rows)
        rows = [("resource", "edges", "blamed (us)", "waiters", "shape")]
        for (fileno, page), (n, us, waiters) in ranked(resources, TOP):
            shape = ("convoy" if len(waiters) >= 3 and us * 2 >= lock_attr
                     else "")
            rows.append((f"file {fileno} page {page}", n, us, len(waiters),
                         shape))
        tracelib.print_table(rows)

    # ---- critical paths ----
    path_totals = defaultdict(int)
    inexact = 0
    for s in span_events:
        segs, lock_exact = critical_path(s, attached.get(id(s), []))
        inexact += not lock_exact
        for key, us in segs.items():
            path_totals[key] += us
    check_sum = sum(path_totals.values())
    exact = check_sum == elapsed and not inexact
    print(f"  critical path: segment totals sum to {check_sum} us over "
          f"{elapsed} us of span time ({'exact' if exact else 'INEXACT'})")
    if inexact:
        print(f"  WARNING: {inexact} spans whose lock edges do not sum to "
              f"their lock_wait phase")
    if not exact:
        failures.append(f"{where}: critical paths do not sum exactly")
    rows = [("segment", "total (us)", "% of txn time")]
    for (phase, blamed), us in sorted(path_totals.items(),
                                      key=lambda kv: (-kv[1], kv[0]))[:TOP + 5]:
        rows.append((f"{phase}[{blamed}]", us, f"{pct(us, elapsed):.1f}"))
    tracelib.print_table(rows)

    # ---- most-blamed transactions (any mechanism) ----
    blamed_txns = defaultdict(int)
    for e in edge_events:
        if e["kind"] in tracelib.LOCK_KINDS + tracelib.COMMIT_KINDS:
            blamed_txns[e["holder"]] += e["waited_us"]
        elif e["kind"] == "disk" and e.get("ahead_txn"):
            blamed_txns[e["ahead_txn"]] += e["waited_us"]
    if blamed_txns:
        top = sorted(blamed_txns.items(), key=lambda kv: (-kv[1], kv[0]))
        print("  most-blamed transactions: "
              + ", ".join(f"txn {t}={us} us" for t, us in top[:TOP]))

    if orphans:
        print("  outside transaction spans (daemons): " + ", ".join(
            f"{k}/{s}: {n} edges {us} us"
            for (k, s), (n, us) in sorted(edge_totals(orphans).items())))

    cycles = find_cycles(edge_events)
    if cycles:
        print(f"  ANOMALY: {len(cycles)} mutual-blame interval overlaps "
              f"(possible undetected deadlock):")
        for w, h, s, u in cycles[:TOP]:
            print(f"    txn {w} <-> txn {h} overlapping [{s}, {u}] us")
    else:
        print("  no mutual-blame cycles (no overlapping A<->B waits)")
    return failures


def blame(args):
    """Causal wait-blame attribution and critical paths per manager.

    Fails when a critical path is inexact, lock blame covers less than
    --min-lock-share of lock_wait, or a --require-disk-blame source has
    no disk wait edge.
    """
    spans, edges = load_spans(args.trace)
    failures = []
    for (machine, mgr), evs in sorted(spans.items()):
        failures += blame_machine(machine, mgr, evs, edges[machine],
                                  args.min_lock_share)
    for src in args.require_disk_blame:
        n = sum(1 for es in edges.values() for e in es
                if e["kind"] == "disk" and e["src"] == src)
        if n == 0:
            failures.append(f"no disk wait edges blamed on '{src}'")
        else:
            print(f"\ndisk blame on '{src}': {n} edges")
    return failures


def components(ex):
    """[(label, us)]: the pieces that partition one exemplar's sojourn.

    queued_us plus the seven phases (which partition service time by
    construction), grouped.
    """
    ph = ex["phases"]
    return [
        ("admission", ex["queued_us"]),
        ("lock", ph["lock_wait"]),
        ("log", ph["log_wait"]),
        ("cleaner", ph["cleaner_stall"]),
        ("disk", ph["disk_read_wait"] + ph["disk_write_wait"]),
        ("cpu", ph["run"] + ph["runq_wait"]),
    ]


def top_holder(txn_edges, kinds):
    """The holder these edges waited on longest (lowest id on a tie)."""
    waited = defaultdict(int)
    for e in txn_edges:
        if e["kind"] in kinds:
            waited[e["holder"]] += e["waited_us"]
    return min(waited, key=lambda h: (-waited[h], h)) if waited else None


def source_name(label, txn_edges):
    """Human-readable source name, refined by this transaction's edges."""
    if label == "lock":
        holder = top_holder(txn_edges, tracelib.LOCK_KINDS)
        return ("lock wait" if holder is None
                else f"lock convoy (behind txn {holder})")
    if label == "log":
        leader = top_holder(txn_edges, tracelib.COMMIT_KINDS)
        return ("log flush (self)" if leader is None
                else f"group commit (leader txn {leader})")
    if label == "disk" and any(e["kind"] == "disk" and e.get("src") == "cleaner"
                               for e in txn_edges):
        return "disk queue (behind cleaner)"
    return {"admission": "admission queue", "cleaner": "cleaner stall",
            "disk": "disk I/O", "cpu": "cpu/scheduling"}[label]


def tail(args):
    """One exemplar table per fig_tail load point, naming p99's cause."""
    summary = read_summary(args.summary, "fig_tail")
    failures = list(check_tail(summary))
    edges = defaultdict(list)  # (machine, waiter txn) -> [wait_edge, ...]
    if args.trace:
        for machine, es in tracelib.load_trace(args.trace)[1].items():
            for e in es:
                edges[(machine, e.get("waiter", 0))].append(e)
    for cfg in summary.get("configs", []):
        sojourn = cfg["latency"]["sojourn"]
        print(f"\n[tail] {cfg['arch']} @ {cfg['offered_tps']} tps: "
              f"goodput {cfg['goodput_tps']:.2f} tps, "
              f"{cfg['committed']}/{cfg['arrivals']} committed, "
              f"{cfg['shed']} shed, sojourn p50/p99/p99.9 = "
              f"{sojourn['p50']:.0f}/{sojourn['p99']:.0f}/"
              f"{sojourn['p999']:.0f} us")
        rows = [("txn", "sojourn (us)", "p99?", "dominant source", "share",
                 "breakdown")]
        for ex in cfg["exemplars"]:
            where = f"{cfg['arch']} @ {cfg['offered_tps']} tps txn {ex['txn']}"
            txn_edges = edges[(cfg.get("machine", 0), ex["txn"])]
            comps = components(ex)
            # Deterministic dominance: largest time, label order breaks ties.
            label, dom_us = max(comps, key=lambda c: (c[1], -comps.index(c)))
            is_p99 = ex["sojourn_us"] >= sojourn["p99"]
            rows.append((ex["txn"], ex["sojourn_us"], "*" if is_p99 else "",
                         source_name(label, txn_edges),
                         f"{100.0 * dom_us / ex['sojourn_us']:.0f}%",
                         " ".join(f"{k}={us}" for k, us in comps if us)))
            if is_p99 and dom_us == 0:
                failures.append(f"{where}: p99 exemplar has no nonzero "
                                f"blame source")
            if not args.trace:
                continue
            # Lock edges carry phase-charged microseconds, so a retry-free
            # exemplar's edges sum exactly to its lock_wait phase. Deadlock
            # retries run under earlier (aborted) transaction ids, whose
            # edges do not carry this txn's id.
            lock_us = sum(e["waited_us"] for e in txn_edges
                          if e["kind"] in tracelib.LOCK_KINDS)
            lock_wait = ex["phases"]["lock_wait"]
            if ex["deadlock_retries"] == 0 and lock_us != lock_wait:
                failures.append(f"{where}: lock edges sum to {lock_us} but "
                                f"lock_wait phase is {lock_wait} "
                                f"— blame bug")
            adm_us = sum(e["waited_us"] for e in txn_edges
                         if e["kind"] == "admission")
            if ex["queued_us"] > 0 and adm_us != ex["queued_us"]:
                failures.append(f"{where}: admission edges sum to {adm_us} "
                                f"but queued_us is {ex['queued_us']}")
        if len(rows) > 1:
            tracelib.print_table(rows)
        else:
            print("  (no exemplars captured)")
    return failures


def cleaning_trace(path, points):
    """Re-derives the provenance partition from raw trace events.

    Per machine, the logecon `bytes` charges must equal the disk's
    io_submit write blocks exactly (both sides skip RawWrite, untimed mkfs
    I/O). io_submit, not io_begin, is the submit-time twin of the disk's
    blocks_written counter that LogEcon charges against: a write still
    queued when the simulation stops is counted and charged but never
    reaches service.
    """
    charged, written = defaultdict(int), defaultdict(int)
    events = victims = cleaned = 0
    for _, ev in tracelib.read_events(path):
        events += 1
        m, cat, name = tracelib.machine_of(ev), ev.get("cat"), ev.get("ev")
        if cat == "logecon" and name == "bytes":
            charged[m] += ev["blocks"]
        elif cat == "disk" and name == "io_submit" and ev.get("op") == "write":
            written[m] += ev["nblocks"]
        victims += cat == "logecon" and name == "victim"
        cleaned += cat == "logecon" and name == "seg_cleaned"
    machines = sorted(set(charged) | set(written))
    failures = [f"trace machine {m}: logecon charges {charged[m]} blocks but "
                f"the disk wrote {written[m]} — partition broken at the "
                f"event level" for m in machines if charged[m] != written[m]]
    print(f"\ntrace: {events} events, {len(machines)} machine(s)")
    tracelib.print_table(
        [["machine", "charged blk", "disk write blk", "exact"]]
        + [[m, charged[m], written[m],
            "yes" if charged[m] == written[m] else "NO"] for m in machines])
    # Same bench, same machines: the grand totals must agree too.
    trace_total = sum(charged.values())
    summary_total = sum(p["disk_blocks"] for p in points)
    if trace_total != summary_total:
        failures.append(f"trace charges {trace_total} blocks total but the "
                        f"summary reports {summary_total} — trace and "
                        f"summary are from different runs?")
    print(f"\n  victim picks in trace: {victims}, segments cleaned: {cleaned}")
    return failures


def cleaning(args):
    """Byte provenance and write-amplification tables per sweep point."""
    summary = read_summary(args.summary, "fig_cleaning")
    points = summary.get("points", [])
    failures = list(check_cleaning(summary))
    print("byte provenance (share of bytes written to disk):")
    rows = [["point"] + tracelib.LOGECON_CATS + ["total MB"]]
    for p in points:
        total = sum(p["bytes"].values())
        rows.append(
            [point_name(p)]
            + [f"{100.0 * p['bytes'][c] / total:.1f}%" if p["bytes"].get(c)
               else "0" for c in tracelib.LOGECON_CATS]
            + [f"{total / (1 << 20):.1f}"])
    tracelib.print_table(rows)
    print("\nwrite amplification & cleaning economics:")
    rows = [["point", "live frac", "run WA", "churn WA", "write cost",
             "victim u p50/p90", "victims", "cleaned", "lifetime p50 (s)"]]
    for p in points:
        vu = p["victim_util"]
        rows.append([
            point_name(p), f"{p['live_fraction_end']:.3f}",
            f"{p['wa_physical']:.2f}", f"{p['churn']['wa_physical']:.2f}",
            f"{p['write_cost']:.2f}", f"{vu['p50']:.0f}/{vu['p90']:.0f}",
            vu["count"], p["cleaner"]["segments_cleaned"],
            f"{p['segment_lifetime_us']['p50'] / 1e6:.1f}"])
    tracelib.print_table(rows)
    if args.trace:
        failures += cleaning_trace(args.trace, points)
    if args.check and not failures:
        print("\nall cleaning-economics invariants hold")
    return failures


def main():
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)  # quiet under `| head`
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    p = sub.add_parser("baseline", help=baseline.__doc__)
    p.set_defaults(run=baseline, check=True)
    p.add_argument("kind", choices=BASELINES)
    p.add_argument("--bench", help="bench binary (default build/bench/...)")
    p.add_argument("--out", help="output file (default BENCH_<kind>.json)")
    for run, inp in ((profile, "trace"), (blame, "trace"),
                     (tail, "summary"), (cleaning, "summary")):
        p = sub.add_parser(run.__name__, help=run.__doc__.splitlines()[0])
        p.add_argument(inp)
        if run is not profile:
            p.add_argument("--check", action="store_true",
                           help="exit 1 when an invariant fails")
        if inp == "summary":
            p.add_argument("--trace", help="trace JSONL of the same run")
        p.set_defaults(run=run, check=False)
    p = sub.choices["blame"]
    p.add_argument("--min-lock-share", type=float, default=0.9,
                   help="least share of lock_wait blamed on a holder")
    p.add_argument("--require-disk-blame", action="append", default=[],
                   metavar="SRC", help="require disk wait edges blamed on "
                                       "SRC (e.g. cleaner); repeatable")
    args = ap.parse_args()
    failures = args.run(args)
    for f in failures:
        print(f"CHECK FAILED: {f}", file=sys.stderr)
    if failures and args.check:
        sys.exit(1)


if __name__ == "__main__":
    main()
