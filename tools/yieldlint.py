#!/usr/bin/env python3
"""Static yield-point hazard analysis for the cooperative simulator.

Every blocking primitive in the simulator (WaitQueue::Sleep, SimMutex::Lock,
disk I/O, lock-manager acquires) is a *yield point*: the calling fiber parks
and any other simulated process may run. Code that computes something from
shared state, blocks, and keeps using the stale computation is the
cooperative equivalent of a data race — and TSan cannot see it, because all
fibers share one OS thread.

This tool extracts an approximate call graph from src/, seeds a may-block
set from the primitives, propagates it transitively, and then flags three
hazard shapes inside every function that contains a may-block call:

  iterator-across-yield   an iterator/reference into a shared (member)
                          container obtained before a may-block call and
                          used after it — the container may have rehashed,
                          rebalanced, or dropped the element meanwhile
  stale-cache-across-yield  a local scalar initialized from member state
                          before a may-block call and reused after it
                          without revalidation
  guard-across-yield      a SimMutexGuard scope that encloses a may-block
                          call — the lock is held across the yield, which
                          is either a deliberate design (annotate it) or a
                          latent convoy/deadlock

The analysis is textual and over-approximate by design: unresolvable
receivers fall back to matching any known function of the same name, and
"may block" spreads through every call edge. Findings are therefore
*candidates for triage*, not verdicts. A reviewed site opts out with a
`// LFSTX_YIELD_OK(reason)` comment on the flagged line or the line above;
the reason is mandatory and shows up in review, mirroring lint.py's
lint-allow policy. The runtime side of the same contract lives in
src/sim/lockdep.* and src/check/gen_stamp.h.

Usage: tools/yieldlint.py [root]       (default root: repo's src/)
       tools/yieldlint.py --self-test  (fixtures in tools/testdata/yieldlint)
Exit status 0 = clean, 1 = findings (or self-test failure).
"""
import os
import re
import sys
from collections import defaultdict

# ---------------------------------------------------------------- seeds --

# Qualified primitives that park the calling fiber. Everything that can
# reach one of these transitively may block.
BLOCKING_SEEDS = {
    "WaitQueue::Sleep",
    "WaitQueue::SleepFor",
    "SimMutex::Lock",
    "IoEvent::Wait",
    "SimEnv::SleepUntil",
    "SimEnv::SleepFor",
    "SimEnv::Yield",
    "SimEnv::Run",
    "SimDisk::Read",
    "SimDisk::Write",
    "LockManager::Lock",
}

SUPPRESS_RE = re.compile(r"//.*LFSTX_YIELD_OK\s*\(\s*[^)\s]")
EXPECT_RE = re.compile(r"//\s*EXPECT-HAZARD:\s*([\w-]+)")

# ------------------------------------------------------------- stripping --


def strip_comments_and_strings(text):
    """Blank out comments, string and char literals, preserving newlines.
    (Suppression markers live in comments, so they are checked against the
    *raw* lines, not this stripped text.)"""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.append(re.sub(r"[^\n]", " ", text[i:j]))
            i = j
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(quote + " " * max(0, j - i - 2) +
                       (quote if j - i >= 2 else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


# -------------------------------------------------------------- parsing --

MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:static\s+)?(?:constexpr\s+)?(?:const\s+)?"
    r"(?:std::)?([A-Za-z_][\w]*(?:::[\w]+)*)\s*"
    r"(?:<\s*(?:std::)?([\w:]+)[^;>]*>)?\s*[*&]?\s*"
    r"(\w+_)\s*(?:;|=|\{)")

SMART_PTRS = {"unique_ptr", "shared_ptr"}

FUNC_HDR_RE = re.compile(
    r"(~?\w[\w]*(?:::~?\w+)*)\s*\(", re.S)


class Function:
    def __init__(self, qual, cls, start_line, body, body_start_line):
        self.qual = qual          # e.g. "Lfs::Flush" (best effort)
        self.cls = cls            # enclosing/owning class name or None
        self.start_line = start_line
        self.body = body          # stripped body text including braces
        self.body_start_line = body_start_line
        self.calls = set()        # resolved ("Cls::Name") or bare ("Name")
        self.may_block = False
        self.block_lines = []     # line numbers of may-block calls


def parse_file(path, text):
    """Returns (classes, functions).
    classes: {class_name: {member_name: type_name}}
    functions: [Function]"""
    classes = defaultdict(dict)
    functions = []
    n = len(text)
    # scope stack entries: (kind, name, depth_at_open)
    stack = []
    i = 0
    stmt_start = 0  # char index just after the last ; { or }
    line = 1
    line_of = []  # filled lazily

    def lineno(idx):
        return text.count("\n", 0, idx) + 1

    while i < n:
        c = text[i]
        if c == ";":
            # A member declaration, if we're directly inside a class body.
            if stack and stack[-1][0] == "class":
                m = MEMBER_RE.match(text[stmt_start:i + 1].strip())
                if m:
                    base, targ, name = m.group(1), m.group(2), m.group(3)
                    t = targ if base in SMART_PTRS and targ else base
                    classes[stack[-1][1]][name] = t.split("::")[-1]
            stmt_start = i + 1
        elif c == "{":
            header = text[stmt_start:i].strip()
            kind, name = classify_brace(header)
            if kind == "func":
                # Find the matching close brace; whole body is one unit.
                j = match_brace(text, i)
                cls = None
                qual = name
                if "::" in name:
                    cls = name.split("::")[-2]
                else:
                    for k, nm, _ in reversed(stack):
                        if k == "class":
                            cls = nm
                            qual = nm + "::" + name
                            break
                fn = Function(qual, cls, lineno(stmt_start),
                              text[i:j + 1], lineno(i))
                functions.append(fn)
                # Member declarations of an inline-heavy class would be
                # skipped if we jumped the whole body, which is fine:
                # bodies contain locals, not members.
                i = j
                stmt_start = i + 1
            else:
                stack.append((kind, name, i))
                stmt_start = i + 1
        elif c == "}":
            if stack:
                stack.pop()
            stmt_start = i + 1
        i += 1
    return classes, functions


def classify_brace(header):
    """What does the '{' following `header` open?"""
    h = header.strip()
    if h.startswith("namespace") or re.match(r"namespace\b", h):
        m = re.match(r"namespace\s+(\w+)?", h)
        return "namespace", (m.group(1) if m and m.group(1) else "")
    m = re.search(r"\b(?:class|struct)\s+(\w+)\s*(?::[^{]*)?$", h)
    if m and "(" not in h.split("class")[-1].split("struct")[-1].split(":")[0]:
        return "class", m.group(1)
    if h.startswith("enum") or re.match(r"enum\b", h):
        return "other", ""
    if h.endswith("=") or h.endswith("return") or h.endswith(","):
        return "other", ""  # brace initializer
    # Function definition: a name followed by an argument list, possibly
    # trailed by const/noexcept/override/ctor-initializers.
    if "(" in h and ")" in h:
        # take the identifier right before the first top-level '('
        depth = 0
        first_open = h.find("(")
        pre = h[:first_open].strip()
        m = re.search(r"(~?\w[\w]*(?:::~?\w+)*)$", pre)
        if m and not re.search(
                r"\b(if|for|while|switch|catch|return|sizeof|do)$", pre):
            return "func", m.group(1)
    if re.match(r"(?:extern|export)\b", h):
        return "namespace", ""
    return "other", ""


def match_brace(text, i):
    """Index of the '}' matching the '{' at text[i]."""
    depth = 0
    n = len(text)
    while i < n:
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i
        i += 1
    return n - 1


# ------------------------------------------------------------ call graph --

CALL_RE = re.compile(r"(?:(\w+)\s*(?:\.|->)\s*)?(~?\w+)\s*\(")
KEYWORDS = {"if", "for", "while", "switch", "return", "sizeof", "catch",
            "assert", "static_cast", "dynamic_cast", "const_cast",
            "reinterpret_cast", "defined", "do", "new", "delete", "not"}


def resolve_calls(fn, classes, all_names):
    """Populate fn.calls with the best resolution for each call site."""
    members = classes.get(fn.cls, {}) if fn.cls else {}
    for m in CALL_RE.finditer(fn.body):
        recv, callee = m.group(1), m.group(2)
        if callee in KEYWORDS:
            continue
        if recv:
            if recv in members:
                fn.calls.add(members[recv] + "::" + callee)
            elif recv in ("this",):
                if fn.cls:
                    fn.calls.add(fn.cls + "::" + callee)
                else:
                    fn.calls.add(callee)
            else:
                # Unknown receiver: over-approximate by bare name, but only
                # if some known function answers to it (else it's a std::
                # or libc call we treat as non-blocking).
                if callee in all_names:
                    fn.calls.add(callee)
        else:
            if fn.cls and (fn.cls + "::" + callee) in all_names.get(
                    callee, set()):
                fn.calls.add(fn.cls + "::" + callee)
            elif callee in all_names:
                fn.calls.add(callee)


def propagate_may_block(functions, all_names):
    """Fixpoint: a function may block if any call resolves into the
    blocking set. Returns the set of may-block qualified names."""
    blocking = set(BLOCKING_SEEDS)
    blocking_bare = {q.split("::")[-1] for q in blocking}
    by_qual = {}
    for fn in functions:
        by_qual.setdefault(fn.qual, []).append(fn)

    def call_blocks(call):
        if call in blocking:
            return True
        if "::" not in call:
            # bare: any known function of that name blocking?
            for q in all_names.get(call, ()):  # known definitions
                if q in blocking:
                    return True
            return call in blocking_bare
        return False

    changed = True
    while changed:
        changed = False
        for fn in functions:
            if fn.qual in blocking:
                continue
            if any(call_blocks(c) for c in fn.calls):
                blocking.add(fn.qual)
                blocking_bare.add(fn.qual.split("::")[-1])
                changed = True
    return blocking


# -------------------------------------------------------- hazard scanning --

ITER_DECL_RE = re.compile(
    r"\b(?:auto|[\w:]+::(?:const_)?iterator)\s*&?\s+(\w+)\s*=\s*"
    r"(\w+_)\s*(?:\.|->)\s*(?:find|begin|rbegin|lower_bound|upper_bound)\b")
REF_DECL_RE = re.compile(
    r"\b(?:auto|[A-Za-z_][\w:<>]*)\s*&\s+(\w+)\s*=\s*\*?(\w+_)\b")
RANGE_FOR_RE = re.compile(
    r"for\s*\(\s*[^;()]*?:\s*\*?(\w+_)\s*(?:\.|->)?\s*\w*\s*\(?\s*\)?\s*\)")
SCALAR_TYPES = (r"uint8_t|uint16_t|uint32_t|uint64_t|int|int32_t|int64_t|"
                r"unsigned(?:\s+(?:int|long))?|long(?:\s+long)?|"
                r"size_t|bool|double|float|SimTime|BlockAddr|InodeNum|TxnId|"
                r"FileId|LockId|auto")
SCALAR_DECL_RE = re.compile(
    r"^\s*(?:const\s+)?(?:" + SCALAR_TYPES + r")\s+(\w+)\s*=\s*([^;]+);")
GUARD_RE = re.compile(r"\bSimMutexGuard\s+(\w+)\s*[({]\s*&?\s*([\w.>*-]+)")
YIELD_OK_MUTEX_RE = re.compile(
    r"(\w+)\s*\([^;{}()]*/\*\s*yield_ok\s*=\s*\*/\s*true\s*\)")
MEMBER_TOKEN_RE = re.compile(r"\b(\w+_)\b")


class Finding:
    def __init__(self, path, line, hclass, detail):
        self.path = path
        self.line = line
        self.hclass = hclass
        self.detail = detail


def body_lines(fn):
    """[(lineno, text)] for the function body."""
    lines = fn.body.split("\n")
    return [(fn.body_start_line + k, t) for k, t in enumerate(lines)]


def depth_at_lines(fn):
    """Brace depth at the *start* of each body line (relative to body)."""
    depths = []
    d = 0
    for ln in fn.body.split("\n"):
        depths.append(d)
        d += ln.count("{") - ln.count("}")
    return depths


def block_call_lines(fn, blocking, all_names, classes):
    """Line numbers in fn's body containing a call that may block."""
    members = classes.get(fn.cls, {}) if fn.cls else {}
    blocking_bare = {q.split("::")[-1] for q in blocking}
    out = []
    for lineno, text in body_lines(fn):
        hit = False
        for m in CALL_RE.finditer(text):
            recv, callee = m.group(1), m.group(2)
            if callee in KEYWORDS:
                continue
            if recv and recv in members:
                if members[recv] + "::" + callee in blocking:
                    hit = True
            elif recv:
                if callee in all_names and callee in blocking_bare:
                    hit = True
            else:
                if fn.cls and fn.cls + "::" + callee in blocking:
                    hit = True
                elif callee in all_names and callee in blocking_bare:
                    hit = True
        # A guard declaration is itself a blocking call (its constructor
        # locks), even though no explicit Lock() appears.
        if GUARD_RE.search(text):
            hit = True
        if hit:
            out.append(lineno)
    return out


def uses_of(var, lines, after_line):
    use_re = re.compile(r"\b" + re.escape(var) + r"\b")
    return [ln for ln, t in lines if ln > after_line and use_re.search(t)]


def scan_function(fn, blocking, all_names, classes, mutated_members,
                  yield_ok_mutexes, findings):
    blines = block_call_lines(fn, blocking, all_names, classes)
    if not blines:
        return
    lines = body_lines(fn)
    depths = depth_at_lines(fn)
    line0 = fn.body_start_line

    def block_between(a, b):
        # Strictly between: a value used *as an argument of* the blocking
        # call on line b is evaluated before the yield and is fine.
        return any(a < bl < b for bl in blines)

    def block_within(a, b):
        return any(a < bl <= b for bl in blines)

    def scope_end(decl_idx):
        """Last body line of the brace scope containing line index."""
        d = depths[decl_idx]
        for k in range(decl_idx + 1, len(depths)):
            if depths[k] < d:
                return line0 + k - 1
        return line0 + len(depths) - 1

    # --- iterator-across-yield ---
    for idx, (ln, text) in enumerate(lines):
        for m in list(ITER_DECL_RE.finditer(text)) + \
                 list(REF_DECL_RE.finditer(text)):
            var, container = m.group(1), m.group(2)
            for use in uses_of(var, lines, ln):
                if use > scope_end(idx):
                    break
                if block_between(ln, use):
                    findings.append(Finding(
                        fn.path, ln, "iterator-across-yield",
                        f"`{var}` into shared `{container}` is declared "
                        f"here, a call below may yield, and `{var}` is "
                        f"used again on line {use}"))
                    break
        m = RANGE_FOR_RE.search(text)
        if m:
            end = scope_end(idx + 1 if idx + 1 < len(depths) and
                            depths[idx + 1] > depths[idx] else idx)
            if block_within(ln, end):
                findings.append(Finding(
                    fn.path, ln, "iterator-across-yield",
                    f"range-for over shared `{m.group(1)}` encloses a "
                    f"call that may yield — the container may mutate "
                    f"under the loop"))

    # --- stale-cache-across-yield ---
    for idx, (ln, text) in enumerate(lines):
        m = SCALAR_DECL_RE.match(text)
        if not m:
            continue
        if ITER_DECL_RE.search(text) or REF_DECL_RE.search(text):
            continue  # already covered by iterator-across-yield
        var, init = m.group(1), m.group(2)
        if re.search(r"\b(?:Now|PhaseTotal|CurrentSpanTxn)\s*\(", init):
            # Capturing the virtual clock (or a profiler total) before a
            # wait is the *idiom* for measuring the wait, not stale state.
            continue
        read_members = [t for t in MEMBER_TOKEN_RE.findall(init)
                        if t in mutated_members]
        if not read_members:
            continue
        for use in uses_of(var, lines, ln):
            if use > scope_end(idx):
                break
            if block_between(ln, use):
                findings.append(Finding(
                    fn.path, ln, "stale-cache-across-yield",
                    f"`{var}` caches `{read_members[0]}` here, a call "
                    f"below may yield, and `{var}` is reused on line "
                    f"{use} without revalidation"))
                break

    # --- guard-across-yield ---
    for idx, (ln, text) in enumerate(lines):
        m = GUARD_RE.search(text)
        if not m:
            continue
        mutex = m.group(2).lstrip("&*").split("->")[0].split(".")[0]
        if mutex in yield_ok_mutexes:
            continue
        end = scope_end(idx)
        if block_within(ln, end):
            findings.append(Finding(
                fn.path, ln, "guard-across-yield",
                f"SimMutexGuard `{m.group(1)}` on `{mutex}` is held "
                f"across a call that may yield within its scope "
                f"(through line {end})"))


# ----------------------------------------------------------------- driver --


def analyze(root):
    """Returns (findings, suppressed_count, nfuncs)."""
    files = []
    for dirpath, _, names in os.walk(root):
        for name in sorted(names):
            if name.endswith((".h", ".cc", ".cpp", ".hpp")):
                files.append(os.path.join(dirpath, name))

    classes = defaultdict(dict)
    functions = []
    raw_by_path = {}
    yield_ok_mutexes = set()
    mutated_members = set()
    for path in files:
        with open(path, encoding="utf-8") as f:
            raw = f.read()
        raw_by_path[path] = raw.splitlines()
        for m in YIELD_OK_MUTEX_RE.finditer(raw):
            yield_ok_mutexes.add(m.group(1))
        text = strip_comments_and_strings(raw)
        fclasses, ffuncs = parse_file(path, text)
        for cls, members in fclasses.items():
            classes[cls].update(members)
        for fn in ffuncs:
            fn.path = path
            functions.append(fn)
        for m in re.finditer(r"\b(\w+_)\s*(?:=[^=]|\+\+|--|\+=|-=|\.erase|"
                             r"\.clear|\.push_back|\.insert|\[)", text):
            mutated_members.add(m.group(1))

    all_names = defaultdict(set)   # bare -> {qualified definitions}
    for fn in functions:
        all_names[fn.qual.split("::")[-1]].add(fn.qual)

    for fn in functions:
        resolve_calls(fn, classes, all_names)
    blocking = propagate_may_block(functions, all_names)

    findings = []
    for fn in functions:
        scan_function(fn, blocking, all_names, classes, mutated_members,
                      yield_ok_mutexes, findings)

    # Deduplicate (several patterns can fire on one line) and apply the
    # LFSTX_YIELD_OK suppressions against the raw source.
    seen = set()
    kept = []
    suppressed = 0
    for f in sorted(findings, key=lambda f: (f.path, f.line, f.hclass)):
        key = (f.path, f.line, f.hclass)
        if key in seen:
            continue
        seen.add(key)
        raw_lines = raw_by_path[f.path]
        here = raw_lines[f.line - 1] if f.line - 1 < len(raw_lines) else ""
        above = raw_lines[f.line - 2] if f.line >= 2 else ""
        if SUPPRESS_RE.search(here) or SUPPRESS_RE.search(above):
            suppressed += 1
            continue
        kept.append(f)
    return kept, suppressed, len(functions)


def self_test(repo):
    fixture_dir = os.path.join(repo, "tools", "testdata", "yieldlint")
    findings, suppressed, _ = analyze(fixture_dir)
    found = {(os.path.basename(f.path), f.line, f.hclass) for f in findings}

    expected = set()
    for dirpath, _, names in os.walk(fixture_dir):
        for name in sorted(names):
            if not name.endswith((".h", ".cc")):
                continue
            with open(os.path.join(dirpath, name), encoding="utf-8") as f:
                for lineno, line in enumerate(f, 1):
                    m = EXPECT_RE.search(line)
                    if m:
                        expected.add((name, lineno, m.group(1)))

    ok = True
    for exp in sorted(expected - found):
        print(f"self-test: MISSED expected hazard {exp[2]} at "
              f"{exp[0]}:{exp[1]}")
        ok = False
    for extra in sorted(found - expected):
        print(f"self-test: UNEXPECTED finding {extra[2]} at "
              f"{extra[0]}:{extra[1]}")
        ok = False
    if suppressed == 0:
        print("self-test: expected at least one LFSTX_YIELD_OK-suppressed "
              "site in the fixtures")
        ok = False
    if ok:
        print(f"yieldlint self-test: ok ({len(expected)} hazards detected, "
              f"{suppressed} suppressed)")
    return 0 if ok else 1


def main():
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if len(sys.argv) > 1 and sys.argv[1] == "--self-test":
        return self_test(repo)
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.join(repo, "src")
    findings, suppressed, nfuncs = analyze(root)
    for f in findings:
        rel = os.path.relpath(f.path, repo)
        print(f"{rel}:{f.line}: [{f.hclass}] {f.detail}")
    if findings:
        print(f"\nyieldlint: {len(findings)} finding(s) across {nfuncs} "
              "functions. Fix the hazard or annotate the line (or the one "
              "above it) with '// LFSTX_YIELD_OK(reason)'.")
        return 1
    print(f"yieldlint: clean ({nfuncs} functions, {suppressed} "
          "annotated sites)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
