"""Shared helpers for reading lfstx trace files (JSONL).

A trace file written with `--trace-file` holds one JSON object per line
(see OBSERVABILITY.md for the event schemas). A bench process that builds
several simulated machines in sequence shares one file; each machine's
events carry a distinct "m" tag. Traces written by a single machine have
no "m" field; those group under machine 0.

tools/report.py reads every trace through this module, so the phase list,
the wait-edge kinds and the exact-sum validation live in exactly one place.
"""
import json
import sys
from collections import defaultdict

# Must match kPhaseNames in src/sim/profiler.cc.
PHASES = [
    "run",
    "runq_wait",
    "disk_read_wait",
    "disk_write_wait",
    "lock_wait",
    "log_wait",
    "cleaner_stall",
]

# Byte-provenance categories; must match LogByteCatName in
# src/sim/log_econ.h (and the logecon.bytes.* metric names).
LOGECON_CATS = [
    "user_data",
    "wal",
    "inode",
    "imap",
    "summary",
    "checkpoint",
    "cleaner",
    "ffs",
]

# wait_edge kinds that name a lock holder, and those that name the
# group-commit or log-flush leader a commit waited on.
LOCK_KINDS = ("lock.kernel", "lock.libtp")
COMMIT_KINDS = ("group_commit", "log")


def machine_of(ev):
    """Machine tag of an event (0 for single-machine traces)."""
    return ev.get("m", 0)


def read_events(path):
    """Yields (lineno, event) for every line; exits non-zero on bad JSON."""
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                ev = json.loads(line)
            except json.JSONDecodeError as e:
                sys.exit(f"{path}:{lineno}: not JSON: {e}")
            yield lineno, ev


def validate_span(ev, where):
    """Dies unless the span's phases sum exactly to its elapsed time.

    The virtual-clock profiler partitions each transaction span into
    phases with no gaps and no overlap, so the sum is exact by
    construction (integer microseconds, no epsilon). A mismatch is a
    profiler bug, never measurement noise.
    """
    phase_sum = sum(ev.get(p, 0) for p in PHASES)
    if phase_sum != ev["elapsed_us"]:
        sys.exit(
            f"{where}: phases sum to {phase_sum} "
            f"but elapsed_us is {ev['elapsed_us']} — profiler bug"
        )


def load_trace(path):
    """Returns ({(machine, mgr): [txn_profile, ...]}, {machine: [wait_edge, ...]}).

    Every span is validated with validate_span before it is returned.
    """
    spans, edges = defaultdict(list), defaultdict(list)
    for lineno, ev in read_events(path):
        if ev.get("ev") == "txn_profile":
            validate_span(ev, f"{path}:{lineno}")
            spans[(machine_of(ev), ev["mgr"])].append(ev)
        elif ev.get("ev") == "wait_edge":
            edges[machine_of(ev)].append(ev)
    return spans, edges


def print_table(rows):
    """Left-justified column table; first row is the header."""
    rows = [[str(c) for c in r] for r in rows]
    widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
    for r in rows:
        print("  " + " ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
