#!/usr/bin/env python3
"""quadtour benchmark: three closed-loop workloads and a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --profile
    add --smoke to either for the tiny configuration used by selftest.py

Run from anywhere; the program is taken from `src/` next to this directory,
so nothing needs installing.  The last line of standard output is the
result: `{"correct", "attempted", "failed", "metrics"}`, with the
end-to-end metrics of BENCHMARK.json under `--trace 0` and its per-layer
metrics under `--trace 1`.  The line before it is `{"meta": ...}`: CPU
count, Python version, git SHA, `src/quadtour` line count, pass count,
the wall-time tail and the failure ratio.  With `--trace 1` the full
(span, parent) table goes to standard error.  `--profile` runs one pass
with every child under cProfile and prints the merged top functions.

Load model: one closed-loop client.  A pass runs the workload's steps in
order, each step in a fresh child process (child.py), the next starting
when the previous exits; passes repeat until `--seconds` have elapsed.
`quadtour` commands run as the console script would run them; library
calls run in a driver child.  At most two processes compute at once (the
two-worker search), matching an nproc = 2 machine.

Workloads, and why each was chosen:

* verify_sweep -- `quadtour verify all --n-max 6 --json`: every labelled
  tournament on n <= 6 plus the named corpus, 33,916 instances.  Cost is
  per-call overhead in theorems/core/generators: about 1.1M calls at
  n <= 6 that mostly exit early on the false side.  Deterministic; the
  seed is unused.
* symbol_search -- `quadtour search --n 31 --all --json`, with one worker
  and then two: 32,768 symbols, 32,378 hits.  The only workload that runs
  symbols.symbol_criterion and the process pool; both worker counts must
  return the same hits.  Deterministic; the seed is unused.
* large_instances -- a fixed script at n ~ 1000 (gen, check, dom, export
  and a classify driver).  The same layers as verify_sweep, but few calls
  doing long full scans with mostly true verdicts, so a kernel change
  shows here and a per-call-overhead change should not.  The seed draws a
  vertex relabelling for every instance and the random tournament.

Excluded on purpose:

* `verify --n-max 7`: one pass takes about 91 s, longer than a run.
* `search --threads` above the CPU count: on a 2-CPU machine that
  measures oversubscription, not the pool.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import operator
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"

WARMUP_SPAWNS = 3  # no-op processes before the first pass: fill caches
SETUP_SPAWNS = 21  # no-op processes after the last pass; setup_s is their median
CHILD_TIMEOUT_S = 150.0

CONFIGS = {
    "full": {"verify_n_max": 6, "search_n": 31, "family_n": 999, "regular_p": 499,
             "random_n": 800},
    "smoke": {"verify_n_max": 3, "search_n": 23, "family_n": 103, "regular_p": 67,
              "random_n": 80},
}

# `verify all` results recorded at the commit that introduced this benchmark.
GOLDEN_VERIFY = {
    6: {"instances": 33916, "passes": {
        "transmitter-receiver": 2115, "transmitter-only": 4396, "receiver-only": 4398,
        "not-strong": 80, "out-degree-one": 24275, "in-degree-one": 24273,
        "degree-lemmas": 4, "subtournament-degrees": 33916}},
    3: {"instances": 60, "passes": {
        "transmitter-receiver": 11, "transmitter-only": 4, "receiver-only": 6,
        "not-strong": 0, "out-degree-one": 19, "in-degree-one": 17,
        "degree-lemmas": 4, "subtournament-degrees": 60}},
}
# (hit count, sha256 of the JSON hit list) for `search --all`.
GOLDEN_SEARCH = {
    31: (32378, "181b4eaa0e16acfbcb561da333343b7aa792fa9c583e7d765ef92965bb50b4ce"),
    23: (1850, "f342bfa64db811a98aef507882f736e05488309a0a3a980f41ca2e3a33769470"),
}

# Metric names this file computes; BENCHMARK.json must use only these.
END_TO_END = {"wall_s", "items_per_s", "setup_s", "peak_rss_mb"}
DERIVED = {"trace_overhead_s", "theorems.verify.applicable_ratio", "symbols.pool_speedup"}
FIELDS = {"calls", "total_s", "self_s"}  # per-layer suffixes read from span tables

VERIFIERS = [
    "transmitter_receiver", "transmitter_only", "receiver_only", "not_strong",
    "outdeg_one", "indeg_one", "degree_lemmas", "subtournament_degrees",
]
RULES = [
    "trivial-small", "transmitter-receiver", "transmitter-only", "receiver-only",
    "not-strong", "out-degree-one", "in-degree-one", "regular", "direct-oracle",
]


@dataclass
class Step:
    name: str
    args: List[str]  # child.py arguments
    check: Callable[[int, str], List[str]]  # (exit code, stdout) -> failures
    items: int = 1


@dataclass
class Workload:
    steps: List[Step]
    items_per_pass: int  # instances, symbols or script items, for items_per_s
    expected_spans: dict  # span -> exact calls per pass, or None for "at least one"
    seeded: bool = False  # whether the inputs depend on --seed


# --- child processes ------------------------------------------------------


class Children:
    """Runs one child at a time; records its wall time and the peak max-RSS."""

    def __init__(self, work: Path):
        self.work = work
        self.spawned = 0
        self.peak_rss_kb = 0
        self.env = dict(os.environ)
        self.env.pop("QL_THREADS", None)
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")

    def run(self, args, option=()):
        """Run child.py with `args`; return (exit code, stdout, wall seconds).

        Standard output is read through a pipe, as a consumer of the command
        would; standard error goes to an unnamed file, echoed on a crash.
        """
        argv = [sys.executable, str(CHILD), *option, *args]
        self.spawned += 1
        with tempfile.TemporaryFile(dir=self.work) as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                    env=self.env, cwd=ROOT)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                with proc.stdout:
                    stdout = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            if proc.returncode not in (0, 1):
                err.seek(0)
                sys.stderr.write(err.read().decode("utf-8", errors="replace"))
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return proc.returncode, stdout.decode("utf-8", errors="replace"), wall


def result_of(stdout: str) -> dict:
    return json.loads(stdout)["result"]


# --- verify_sweep ---------------------------------------------------------


def verify_sweep(cfg, seed, work) -> Workload:
    n_max = cfg["verify_n_max"]
    golden = GOLDEN_VERIFY[n_max]
    want = {"instances": golden["instances"], "classify_agreements": golden["instances"],
            "passes": golden["passes"], "failure": None}

    def check(rc, out):
        got = result_of(out)
        return [] if rc == 0 and got == want else [f"verify: exit {rc}, result {got}"]

    n = golden["instances"]
    spans = {"cli.main": 1, "theorems.classify": n, "generators.all_tournaments": n_max,
             **{f"theorems.verify_{v}": n for v in VERIFIERS}}
    for span in ("theorems.verify_regular", "core.induced", "core.special_vertices",
                 "core.strong_decomposition", "core.dual", "orthogonality.is_quadrangular",
                 "domination.gamma_exceeds.k2", "domination.gamma_exceeds.k3",
                 "generators.rotational", "generators.augment"):
        spans[span] = None
    step = Step("verify", ["cli", "verify", "all", "--n-max", str(n_max), "--json"], check)
    return Workload([step], n, spans)


# --- symbol_search --------------------------------------------------------


def symbol_search(cfg, seed, work) -> Workload:
    n = cfg["search_n"]
    hit_count, digest = GOLDEN_SEARCH[n]
    examined = 1 << ((n - 1) // 2)

    def check(rc, out):
        got = result_of(out)
        hits = hashlib.sha256(json.dumps(got["hits"]).encode()).hexdigest()
        if (rc, got["examined"], got["hit_count"], hits) != (0, examined, hit_count, digest):
            return [f"search: exit {rc}, {got['hit_count']} hits, digest {hits}"]
        return []

    steps = [Step(f"search-t{t}", ["cli", "search", "--n", str(n), "--all", "--json",
                                   "--threads", str(t)], check) for t in (1, 2)]
    spans = {"cli.main": 2, "symbols.search.t1": 1, "symbols.search.t2": 1,
             "symbols.symbol_criterion": examined}
    return Workload(steps, 2 * examined, spans)


# --- large_instances: inputs built by the benchmark itself ----------------


def rotational_rows(n, members):
    base = sum(1 << d for d in members)
    full = (1 << n) - 1
    return [((base << i) | (base >> (n - i))) & full for i in range(n)]


def family_members(n):
    """The paper's n = 3 (mod 4) family symbol."""
    members = {i for i in range(1, n - 1, 2) if i != (n + 3) // 2}
    members.add((n - 3) // 2)
    return sorted(members)


def augment_rows(n, rows, transmitter, receiver):
    rows = list(rows)
    if transmitter:
        rows.append(((1 << (n + 1)) - 1) & ~(1 << n))
        n += 1
    if receiver:
        rows = [row | (1 << n) for row in rows] + [0]
        n += 1
    return n, rows


def to_strings(n, rows):
    """Matrix rows as '0'/'1' strings; column c is bit c."""
    return [format(row, f"0{n}b")[::-1] for row in rows]


def relabel(lines, rng):
    """Apply a random vertex permutation to a tournament given as row strings."""
    n = len(lines)
    perm = rng.sample(range(n), n)  # old label u becomes perm[u]
    inverse = [0] * n
    for u, p in enumerate(perm):
        inverse[p] = u
    pick = operator.itemgetter(*inverse)
    new = [""] * n
    for u, line in enumerate(lines):
        new[perm[u]] = "".join(pick(line))
    return new


def bits_of(lines):
    return [int(line[::-1], 2) for line in lines]


def in_rows(rows):
    full = (1 << len(rows)) - 1
    return [full & ~row & ~(1 << v) for v, row in enumerate(rows)]


def quadrangular(rows) -> bool:
    """Reference check: no two vertices share exactly one out- or in-neighbour."""
    n = len(rows)
    for side in (rows, in_rows(rows)):
        for u in range(n):
            mu = side[u]
            for v in range(u + 1, n):
                if (mu & side[v]).bit_count() == 1:
                    return False
    return True


def random_generic(n, rng):
    """Random tournament on which classify falls through to the direct oracle.

    Redraws until it has no score in {0, 1, n-2, n-1}, is not regular and is
    strong (Landau: no proper prefix of the descending scores sums to
    C(k,2) + k(n-k)).  For n >= 80 the first draw nearly always qualifies.
    """
    while True:
        rows = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if rng.getrandbits(1):
                    rows[u] |= 1 << v
                else:
                    rows[v] |= 1 << u
        scores = sorted((row.bit_count() for row in rows), reverse=True)
        prefix, strong = 0, True
        for k, s in enumerate(scores[:-1], start=1):
            prefix += s
            strong = strong and prefix != k * (k - 1) // 2 + k * (n - k)
        if strong and 2 <= scores[-1] and scores[0] <= n - 3 and scores[0] != scores[-1]:
            return rows


def write_matrix(path: Path, lines) -> str:
    path.write_text(f"{len(lines)}\n" + "\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def dot_digest(lines) -> str:
    out = ["digraph tournament {"] + [f"  {v};" for v in range(len(lines))]
    for u, line in enumerate(lines):
        out.extend(f"  {u} -> {v};" for v, ch in enumerate(line) if ch == "1")
    out.append("}")
    return hashlib.sha256(("\n".join(out) + "\n").encode()).hexdigest()


def large_instances(cfg, seed, work) -> Workload:
    rng = random.Random(seed)
    n, p = cfg["family_n"], cfg["regular_p"]
    members = family_members(n)
    family_rows = rotational_rows(n, members)
    family_canon = to_strings(n, family_rows)
    family = relabel(family_canon, rng)
    family_file = write_matrix(work / "family.txt", family)
    un = relabel(to_strings(n, rotational_rows(n, range(1, (n - 1) // 2 + 1))), rng)
    un_bits = bits_of(un)
    un_file = write_matrix(work / "un.txt", un)
    qr23 = relabel(to_strings(23, rotational_rows(23, {i * i % 23 for i in range(1, 23)})), rng)
    qr23_bits = bits_of(qr23)
    qr23_file = write_matrix(work / "qr23.txt", qr23)
    canon_text = f"{n}\n" + "\n".join(family_canon) + "\n"
    family_dot = dot_digest(family)
    gen_path = work / "gen.txt"

    # classify inputs: (name, rule implied by the construction, verdict, (n, rows)).
    # The family tournament is quadrangular and, being rotational, has pairwise
    # intersecting out- and in-sets, so adding a transmitter and/or receiver,
    # or letting one copy beat another, keeps every common neighbourhood at
    # size 0 or >= 2.  QR_p is doubly regular: every pair shares (p-3)/4.
    glue_rows = ([row | (((1 << n) - 1) << n) for row in family_rows]
                 + [row << n for row in family_rows])
    random_rows = random_generic(cfg["random_n"], rng)
    builds = [
        ("aug_tr", "transmitter-receiver", True, augment_rows(n, family_rows, True, True)),
        ("aug_t", "transmitter-only", True, augment_rows(n, family_rows, True, False)),
        ("aug_r", "receiver-only", True, augment_rows(n, family_rows, False, True)),
        ("glue", "not-strong", True, (2 * n, glue_rows)),
        ("qr_regular", "regular", True,
         (p, rotational_rows(p, {i * i % p for i in range(1, p)}))),
        ("random", "direct-oracle", quadrangular(random_rows), (len(random_rows), random_rows)),
    ]
    classify_files, classify_want = [], []
    for name, rule, verdict, (size, rows) in builds:
        lines = relabel(to_strings(size, rows), rng)
        classify_files.append(write_matrix(work / f"{name}.txt", lines))
        classify_want.append({"rule": rule, "verdict": verdict, "quadrangular": verdict})

    def expect(label, want_rc, want_result):
        def check(rc, out):
            got = result_of(out)
            return [] if rc == want_rc and got == want_result else [f"{label}: exit {rc}, {got}"]
        return check

    def check_gen(rc, out):
        text = gen_path.read_text(encoding="utf-8")
        gen_path.unlink()
        return [] if rc == 0 and out == "" and text == canon_text else [f"gen: exit {rc}"]

    def check_un(rc, out):
        got = result_of(out)
        witnesses = [(got[side]["witness"], rows) for side, rows in
                     (("out", un_bits), ("in", in_rows(un_bits))) if not got[side]["verdict"]]
        ok = rc == 1 and got["verdict"] is False and witnesses and all(
            len(w["common"]) == 1 and rows[w["u"]] & rows[w["v"]] == 1 << w["common"][0]
            for w, rows in witnesses)
        return [] if ok else [f"check U_{n}: exit {rc}, {got}"]

    def check_dom_number(rc, out):
        got = result_of(out)
        covered = 0
        for v in got["min_set"]:
            covered |= qr23_bits[v] | 1 << v
        ok = (rc == 0 and got["gamma"] == 4 and len(got["min_set"]) == 4
              and covered == (1 << 23) - 1 and got["pairs"] == [])
        return [] if ok else [f"dom number QR_23: exit {rc}, {got}"]

    def check_dot(rc, out):
        got = hashlib.sha256(out.encode()).hexdigest()
        return [] if rc == 0 and got == family_dot else [f"export dot: exit {rc}"]

    def check_classify(rc, out):
        got = json.loads(out) if rc == 0 else []
        if len(got) != len(classify_want):
            return [f"classify: exit {rc}"] * len(classify_want)
        return [f"classify {name}: {g} != {w}"
                for (name, *_), g, w in zip(builds, got, classify_want) if g != w]

    clear = {"verdict": True, "witness": None}
    steps = [
        Step("gen", ["cli", "gen", "rotational", "--n", str(n), "--symbol",
                     ",".join(map(str, members)), "--out", str(gen_path)], check_gen),
        Step("check", ["cli", "check", family_file, "--json"],
             expect("check family", 0, {"verdict": True, "out": clear, "in": clear})),
        Step("check-un", ["cli", "check", un_file, "--json"], check_un),
        Step("check-orth", ["cli", "check", family_file, "--what", "orth", "--json"],
             expect("check orth", 0, {"verdict": True, "row_witness": None,
                                      "col_witness": None})),
        Step("dom-graph", ["cli", "dom", family_file, "--what", "graph", "--json"],
             expect("dom graph", 0, {"n": n, "edges": []})),
        Step("dom-number", ["cli", "dom", qr23_file, "--what", "number", "--json"],
             check_dom_number),
        Step("export-json", ["cli", "export", family_file, "--format", "json"],
             expect("export json", 0, {"n": n, "rows": family})),
        Step("export-dot", ["cli", "export", family_file, "--format", "dot"], check_dot),
        Step("classify", ["classify", *classify_files], check_classify, len(builds)),
    ]
    reads = 6 + len(builds)  # parse_tournament: six CLI reads plus the driver's
    spans = {"cli.main": 8, "matrixio.parse_tournament": reads,
             "matrixio.parse_pattern": reads + 1, "core.validate": reads,
             "matrixio.render_tournament": 1, "matrixio.to_json_adjacency": 1,
             "matrixio.to_dot": 1, "generators.rotational": 1,
             "orthogonality.comb_orthogonal": 1, "orthogonality.quadrangularity": 2,
             "domination.domination_number": 1, "theorems.classify": len(builds),
             **{f"theorems.classify.rule.{rule}": 1 for _, rule, *_ in builds}}
    for span in ("core.induced", "core.strong_decomposition", "core.dual",
                 "domination.gamma_exceeds.k3", "domination.dominant_pairs",
                 "orthogonality.is_quadrangular"):
        spans[span] = None
    return Workload(steps, sum(step.items for step in steps), spans, seeded=True)


WORKLOADS = {
    "verify_sweep": verify_sweep,
    "symbol_search": symbol_search,
    "large_instances": large_instances,
}


# --- measurement ----------------------------------------------------------


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    messages: List[str] = field(default_factory=list)

    def add(self, items: int, failures: List[str]) -> None:
        self.attempted += items
        self.failed += min(items, len(failures))
        for msg in failures:
            self.messages.append(msg[:500])
            print(f"FAIL {msg[:500]}", file=sys.stderr)


def run_pass(workload, children, tally, step_walls, trace=None):
    """One pass over the steps; returns its wall time and the children's trace files.

    `trace` is None or (child.py option, directory for the files it writes).
    """
    wall, files = 0.0, []
    for step in workload.steps:
        option = ()
        if trace is not None:
            kind, directory = trace
            files.append(directory / f"{children.spawned}.out")
            option = (kind, str(files[-1]))
        rc, out, elapsed = children.run(step.args, option)
        wall += elapsed
        step_walls.setdefault(step.name, []).append(elapsed)
        try:
            failures = step.check(rc, out)
        except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
            failures = [f"{step.name}: exit {rc}, unreadable output ({exc!r})"]
        tally.add(step.items, failures)
    return wall, files


def loop(workload, children, tally, seconds, step_walls, trace=None):
    walls, files = [], []
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        wall, pass_files = run_pass(workload, children, tally, step_walls, trace)
        walls.append(wall)
        files.extend(pass_files)
    return walls, files


def setup_time(children, tally, spawns) -> float:
    """Median spawn-to-exit time of a no-op `quadtour --help` process.

    Measured after the passes rather than before them: at the start of a
    run the file writes of the input set-up, and of the run before, still
    compete with process start-up.
    """
    walls = []
    for _ in range(spawns):
        rc, out, wall = children.run(["cli", "--help"])
        walls.append(wall)
        ok = rc == 0 and out.startswith("usage: quadtour")
        tally.add(1, [] if ok else [f"quadtour --help: exit {rc}"])
    return statistics.median(walls)


def tail(samples):
    """Highest whole percentile with at least ten samples above it, nearest rank."""
    n = len(samples)
    if n <= 10:
        return None
    pct = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(pct * n / 100))
    return {"pct": pct, "value": sorted(samples)[rank - 1]}


def merge_spans(files, passes):
    """Sum the child tables per span (over parents) and per (span, parent)."""
    by_span, by_edge = {}, {}
    for path in files:
        if not path.exists():  # the child crashed; its step already counts as failed
            continue
        for span, parent, calls, total, self_s, raised in json.loads(path.read_text())["spans"]:
            for table, key in ((by_span, span), (by_edge, (span, parent))):
                rec = table.setdefault(key, [0, 0.0, 0.0, 0])
                rec[0] += calls
                rec[1] += total
                rec[2] += self_s
                rec[3] += raised
    for table in (by_span, by_edge):
        for rec in table.values():
            for i in range(4):
                rec[i] /= passes
    return by_span, by_edge


def layer_metric(name, by_span, overhead):
    """One per-layer metric per traced pass: a span field or a derived ratio.

    applicable_ratio counts a verifier call as applicable unless it raised
    (in the sweep, only HypothesisNotSatisfied is raised); pool_speedup is
    symbols.search.t1.total_s over symbols.search.t2.total_s.
    """
    def get(span):
        return by_span.get(span, [0, 0.0, 0.0, 0])

    if name == "trace_overhead_s":
        return overhead
    if name == "theorems.verify.applicable_ratio":
        verifiers = [get(f"theorems.verify_{v}") for v in VERIFIERS + ["regular"]]
        calls = sum(rec[0] for rec in verifiers)
        return (calls - sum(rec[3] for rec in verifiers)) / calls if calls else 0.0
    if name == "symbols.pool_speedup":
        t1, t2 = get("symbols.search.t1")[1], get("symbols.search.t2")[1]
        return t1 / t2 if t2 else 0.0
    span, field = name.rsplit(".", 1)
    return get(span)[{"calls": 0, "total_s": 1, "self_s": 2}[field]]


def check_spans(expected, by_span) -> List[str]:
    failures = []
    for span, want in expected.items():
        calls = by_span.get(span, [0])[0]
        if (want is None and calls <= 0) or (want is not None and calls != want):
            failures.append(f"span {span}: {calls} calls per pass, expected {want or '>0'}")
    rules = sum(by_span.get(f"theorems.classify.rule.{r}", [0])[0] for r in RULES)
    if rules != by_span.get("theorems.classify", [0])[0]:
        failures.append(f"classify rule counts sum to {rules}")
    return failures


def print_span_table(by_edge) -> None:
    print(f"{'span':<42} {'parent':<32} {'calls':>10} {'total_s':>10} {'self_s':>10}",
          file=sys.stderr)
    for (span, parent), (calls, total, self_s, _) in sorted(
            by_edge.items(), key=lambda item: -item[1][2]):
        print(f"{span:<42} {parent or '-':<32} {calls:>10.0f} {total:>10.4f} {self_s:>10.4f}",
              file=sys.stderr)


# --- metadata -------------------------------------------------------------


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines() -> int:
    return sum(len(path.read_text(encoding="utf-8").splitlines())
               for path in sorted((SRC / "quadtour").rglob("*.py")))


def metadata(args, config, workload) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seed_used": workload.seeded,
        "config": config,
        "cpu_count": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0], "git_sha": git_sha(), "src_lines": src_lines(),
    }


# --- main -----------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes for the self-test")
    parser.add_argument("--profile", action="store_true",
                        help="one pass under cProfile; print the merged top functions")
    return parser.parse_args(argv)


def load_metrics():
    """BENCHMARK.json's metric lists, after checking that this file can compute each."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    end_to_end, per_layer = bench["end_to_end"], bench["per_layer"]
    bases = {f"{mod.split('.', 1)[1]}.{fn}" for mod, fns in spans.TARGETS.items() for fn in fns}
    rules = {f"theorems.classify.rule.{rule}" for rule in RULES}
    unknown = [m["name"] for m in end_to_end if m["name"] not in END_TO_END]
    for m in per_layer:
        span, _, field = m["name"].rpartition(".")
        if m["name"] in DERIVED or (field in FIELDS and (
                span in bases - set(spans.NAMERS) or span in rules
                or span.rpartition(".")[0] in spans.NAMERS)):
            continue
        unknown.append(m["name"])
    if unknown:
        raise SystemExit(f"error: BENCHMARK.json names unknown metrics: {unknown}")
    return end_to_end, per_layer


def profile(workload, children, tally, work) -> int:
    import pstats

    prof_dir = work / "prof"
    prof_dir.mkdir()
    _, files = run_pass(workload, children, tally, {}, ("--profile", prof_dir))
    stats = pstats.Stats(*map(str, files), stream=sys.stdout)
    stats.strip_dirs().sort_stats("tottime").print_stats(30)
    return 0 if tally.failed == 0 else 1


def main(argv) -> int:
    args = parse_args(argv)
    if not (SRC / "quadtour" / "cli.py").is_file():
        print(f"error: no quadtour sources under {SRC}", file=sys.stderr)
        return 2
    end_to_end, per_layer = load_metrics()
    config = "smoke" if args.smoke else "full"
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        children = Children(work)
        tally = Tally()
        workload = WORKLOADS[args.workload](CONFIGS[config], args.seed, work)
        setup_time(children, tally, WARMUP_SPAWNS)
        if args.profile:
            return profile(workload, children, tally, work)
        meta = metadata(args, config, workload)
        step_walls = {}
        seconds = args.seconds / 2 if args.trace else args.seconds
        walls, _ = loop(workload, children, tally, seconds, step_walls)
        wall_s = statistics.median(walls)
        meta["wall_s"] = {"median": wall_s, "tail": tail(walls), "samples": len(walls)}
        if args.trace:
            spans_dir = work / "spans"
            spans_dir.mkdir()
            traced, files = loop(workload, children, tally, seconds, {}, ("--spans", spans_dir))
            by_span, by_edge = merge_spans(files, len(traced))
            tally.add(1, check_spans(workload.expected_spans, by_span))
            overhead = statistics.median(traced) - wall_s
            meta["traced_wall_s"] = {"median": statistics.median(traced), "samples": len(traced)}
            print_span_table(by_edge)
            metrics = {m["name"]: {"value": layer_metric(m["name"], by_span, overhead),
                                   "unit": m["unit"]} for m in per_layer}
        else:
            values = {"wall_s": wall_s, "items_per_s": workload.items_per_pass / wall_s,
                      "setup_s": setup_time(children, tally, SETUP_SPAWNS), "peak_rss_mb": children.peak_rss_kb / 1024}
            metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                       for m in end_to_end}
        meta["steps_median_s"] = {k: statistics.median(v) for k, v in step_walls.items()}
        meta["fail_ratio"] = tally.failed / tally.attempted
        meta["failures"] = tally.messages[:10]
        print(json.dumps({"meta": meta}))
        print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                          "failed": tally.failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
