#!/usr/bin/env python3
"""Benchmark of b2tensor: workloads, end-to-end metrics and a traced run.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md next to this file):
  verify-all   cold `b2tensor verify --suite all --format json --pmax 10`
               processes, one after another;
  large-power  cold processes that each run the four decomposition routes and
               the projected singular power for one large (module, p);
  query-mix    one long-lived process answering seeded CLI queries through
               b2tensor.cli.main, one at a time (closed loop, one client).

Every program process is started from this one, one at a time. With --trace 0
the run measures for S seconds in whole rounds and prints the end-to-end
metrics; with --trace 1 it runs a fixed number of rounds five times (plain,
with spans, with spans, plain, with hot counters) and prints the per-layer
metrics and the tracing overhead. All outputs are checked against b2tensor-independent
references outside the timed regions. The last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}; metric names and units
come from BENCHMARK.json at the repository root.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path

import reference as ref

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_ARGV = ["-c", "import b2tensor.cli as c; c.build_parser()"]
SETUP_EVERY_S = 1.0  # one set-up probe per second of a run, taken between rounds

# The shared machine runs for minutes at a time in phases that stretch every
# timing alike, by up to about 50 %. Between rounds, next to each set-up
# probe, the run times a fixed pure-Python calibration that shares no code
# with b2tensor; every timing metric is scaled by CALIBRATION_S over the
# calibration's mean time in the run, so it reads as seconds at the speed at
# which the calibration takes CALIBRATION_S. The raw values go to stderr.
CALIBRATION_S = 0.015
CALIBRATIONS_PER_PROBE = 2

VERIFY_PMAX = 10
VERIFY_ARGV = ["verify", "--suite", "all", "--format", "json", "--pmax", str(VERIFY_PMAX)]
VERIFY_CHECKS = 20

# parity and binary expansion differ (16 = 10000b, 19 = 10011b), so a change to
# how power() is evaluated shows on whichever p it favours
LARGE_POWER_TASKS = (("vector", 16), ("spinor", 19))

# query-mix: seven kinds of query with PER_KIND of each per round, plus the
# two KNOWN_FAULT queries. The mix is uniform over the kinds because no record
# of real use exists; the p ranges cover the examples in the repository's
# README (p up to 12; fan, singular and diagram at small p; fit at pmax 10).
PER_KIND = 14
QUERY_PMAX = 12
SMALL_PMAX = 5
FIT_PMAX = 10
# argparse reads a space-separated weight with a leading minus as an option, so
# these fail with exit 2 ("expected one argument") while `--weight=-1,0` works
KNOWN_FAULT = (
    ("multiplicity", "--module", "vector", "--power", "4", "--weight", "-1,0", "--extended"),
    ("closed-form", "--kind", "vector", "--power", "3", "--weight", "-1,1"),
)
KNOWN_FAULT_MESSAGE = "argument --weight: expected one argument"

TRACE_ROUNDS = {"verify-all": 1, "large-power": 1, "query-mix": 10}


class SetupError(RuntimeError):
    """The program cannot be run at all; no result is printed."""


@dataclass
class Child:
    rc: int
    wall: float
    out: bytes
    err: str
    rss_mb: float


class Run:
    """Working directory, child environment and correctness findings of one run."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.dir = OUT / f"run-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.env = dict(os.environ)
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env.update(
            PYTHONPATH=str(SRC),
            PYTHONPYCACHEPREFIX=str(OUT / "pycache"),
            PYTHONHASHSEED="0",
        )
        self.problems = []
        self.children = 0

    def check(self, ok: bool, message: str) -> None:
        if not ok and len(self.problems) < 20:
            self.problems.append(message)

    def path(self, stem: str) -> Path:
        self.children += 1
        return self.dir / f"{self.children}-{stem}"

    def spawn(self, argv) -> Child:
        """Run one program process to its end; wall time and peak RSS are its own."""
        out_path, err_path = self.path("out"), self.path("err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv],
                stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=self.env, cwd=ROOT,
            )
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        child = Child(
            proc.returncode, wall, out_path.read_bytes(),
            err_path.read_text(encoding="utf-8", errors="replace"), usage.ru_maxrss / 1024,
        )
        out_path.unlink()
        err_path.unlink()
        return child

    def program(self, mode, target: str, args) -> list:
        """argv of one program process, plain or under the tracer."""
        if mode is None:
            entry = {"cli": ["-m", "b2tensor"], "task": [str(HERE / "task.py")], "worker": [str(HERE / "worker.py")]}
            return [*entry[target], *args]
        trace = self.path(f"{mode}.trace.json")
        return [str(HERE / "tracing.py"), mode, str(trace), trace.stem, target, *args]


def repeat(one_round, seconds=None, count=None, between=None) -> None:
    """Whole rounds: `count` of them, or until `seconds` have passed.

    A round starts while at most half of it is expected to run past
    `seconds`, so a run lasts `seconds` give or take half a round.
    `between` runs after every round, outside the round's time.
    """
    durations = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        one_round(len(durations))
        durations.append(time.perf_counter() - t0)
        if between is not None:
            between()
        if count is not None:
            if len(durations) >= count:
                return
        elif time.perf_counter() - start + statistics.median(durations) / 2 > seconds:
            return


def calibration() -> float:
    """Wall time of a fixed series power computed by the reference."""
    t0 = time.perf_counter()
    ref.power(ref.singular_element(ref.HIGHEST["vector"]), 10)
    return time.perf_counter() - t0


def setup_probes(run: Run, n: int) -> list:
    """Wall times of n fresh interpreters that import b2tensor and build its parser."""
    walls = []
    for _ in range(n):
        child = run.spawn(SETUP_ARGV)
        if child.rc != 0:
            raise SetupError(f"cannot import b2tensor from {SRC}:\n{child.err}")
        walls.append(child.wall)
    return walls


# ---------------------------------------------------------------------------
# workloads: each returns {"times": {kind: [s, ...]}, "rss_mb", "attempted", "failed"}


def verify_all(run: Run, mode=None, **budget) -> dict:
    times, rss, outputs = [], [], set()

    def one(_):
        child = run.spawn(run.program(mode, "cli", VERIFY_ARGV))
        times.append(child.wall)
        rss.append(child.rss_mb)
        outputs.add(child.out)
        run.check(child.rc == 0, f"verify exited {child.rc}: {child.err[-300:]}")
        try:
            report = json.loads(child.out)
        except ValueError:
            run.check(False, "verify printed no JSON report")
            return
        run.check(report.get("fail") == 0, f"verify reported {report.get('fail')} failed checks")
        run.check(report.get("pmax") == VERIFY_PMAX, "verify ran another pmax")
        run.check(len(report.get("checks", ())) == VERIFY_CHECKS, "verify ran another set of checks")

    repeat(one, **budget)
    run.check(len(outputs) == 1, "verify stdout differs between processes of one run")
    return {"times": {"verify": times}, "rss_mb": max(rss), "attempted": len(times), "failed": 0}


def _check_task(run: Run, child: Child, module: str, p: int) -> None:
    where = f"{module} p={p}"
    run.check(child.rc == 0, f"task {where} exited {child.rc}: {child.err[-300:]}")
    try:
        got = json.loads(child.out)
        routes = got["routes"]
    except (ValueError, LookupError, TypeError):
        run.check(False, f"task {where} printed no result")
        return
    want = ref.decomposition(module, p)
    run.check(len(routes) == 4, f"task {where} ran {len(routes)} routes")
    for route, rows in routes.items():
        run.check({(a, b): m for a, b, m in rows} == want, f"{route} route differs from the reference at {where}")
    total = sum(m * ref.dim(w) for w, m in want.items())
    run.check(total == ref.MODULE_DIM[module] ** p, f"sum m*dim != dim^p at {where}")
    if module == "vector":
        run.check(want.get((2 * p - 4, 2)) == (p - 1) * (p - 2) // 2, f"M(p-2,1) at {where}")
        run.check(got["pi_p2_1"] == p * (p - 1), f"Pi(p-2,1) at {where}")
    line = [(-1) ** t * comb(p - 1, t) for t in range(p)] + [0]
    run.check(got["fan_line"] == line, f"lowest alpha1 line of R^(p-1) at p={p}")


def large_power(run: Run, mode=None, **budget) -> dict:
    times, rss = defaultdict(list), []

    def one(r):
        order = list(LARGE_POWER_TASKS)
        random.Random(run.seed * 1_000_003 + r).shuffle(order)
        for module, p in order:
            child = run.spawn(run.program(mode, "task", [module, str(p)]))
            times[f"{module}-{p}"].append(child.wall)
            rss.append(child.rss_mb)
            _check_task(run, child, module, p)

    repeat(one, **budget)
    n = sum(len(v) for v in times.values())
    return {"times": dict(times), "rss_mb": max(rss), "attempted": n, "failed": 0}


# -- query-mix inputs -------------------------------------------------------


def _weight_args(w) -> list:
    text = ref.weight_text(w)
    # a leading minus needs the '=' form (see KNOWN_FAULT)
    return [f"--weight={text}"] if text.startswith("-") else ["--weight", text]


def _lattice_point(rng, module: str, p: int, dominant: bool):
    if module == "vector" and dominant:
        a = rng.randint(0, p)
        b = rng.randint(0, min(a, p - a))
        return (2 * a, 2 * b)
    if module == "spinor" and dominant:
        d1 = rng.randrange(p % 2, p + 1, 2)
        return (d1, rng.randrange(d1 % 2, d1 + 1, 2))
    d1 = rng.randint(-2 * p, 2 * p)
    return (d1, rng.randrange(-2 * p + d1 % 2, 2 * p + 1, 2))


def _series_point(rng, series: dict):
    """A point of the support or of its one-step halo, where the closed forms are validated."""
    a, b = rng.choice(sorted(series))
    return (a + 2 * rng.randint(-1, 1), b + 2 * rng.randint(-1, 1))


def query_round(seed: int, r: int) -> list:
    """One round of queries as (argv, what to expect).

    Every kind of query gets the same count per round, split evenly between
    its variants; p is uniform over the range given for its kind.
    """
    rng = random.Random(seed * 1_000_003 + r)
    modules = ("vector", "spinor")
    out = []
    for i in range(PER_KIND):
        module, p, fmt = rng.choice(modules), rng.randint(1, QUERY_PMAX), rng.choice(("json", "csv"))
        argv = ["decompose", "--module", module, "--power", str(p), "--format", fmt]
        cached = i % 2 == 0
        if cached:
            argv += ["--cache", "CACHE"]
        out.append((argv, ("decompose", module, p, fmt, cached)))
    for i in range(PER_KIND):
        extended = i % 2 == 1
        module, p, fmt = rng.choice(modules), rng.randint(1, QUERY_PMAX), rng.choice(("json", "pretty"))
        w = _lattice_point(rng, module, p, dominant=not extended)
        argv = ["multiplicity", "--module", module, "--power", str(p), *_weight_args(w), "--format", fmt]
        out.append((argv + ["--extended"] * extended, ("multiplicity", module, p, w, fmt)))
    for _ in range(PER_KIND):
        kind, p = rng.choice(("fan", "vector", "spinor")), rng.randint(1, QUERY_PMAX)
        fmt = rng.choice(("json", "pretty"))
        w = _series_point(rng, ref.fan(p) if kind == "fan" else ref.projected(kind, p))
        argv = ["closed-form", "--kind", kind, "--power", str(p), *_weight_args(w), "--format", fmt]
        out.append((argv, ("closed-form", kind, p, w, fmt)))
    for _ in range(PER_KIND):
        s = rng.randint(1, 6)
        t = rng.randint(0, FIT_PMAX - 3 - s)  # s + t <= pmax - 3: the window certifies
        argv = ["fit", "--s", str(s), "--t", str(t), "--pmax", str(FIT_PMAX), "--format", "json"]
        out.append((argv, ("fit", s, t)))
    for _ in range(PER_KIND):
        p = rng.randint(1, SMALL_PMAX)
        out.append((["fan", "--power", str(p), "--format", "json"], ("fan", p)))
    for i in range(PER_KIND):
        module, p, projected = rng.choice(modules), rng.randint(1, SMALL_PMAX), i % 2 == 1
        argv = ["singular", "--module", module, "--power", str(p), "--format", "json"]
        out.append((argv + ["--projected"] * projected, ("singular", module, p, projected)))
    for _ in range(PER_KIND):
        module, pmax = rng.choice(modules), rng.randint(1, SMALL_PMAX)
        out.append((["diagram", "--module", module, "--pmax", str(pmax)], ("diagram", module, pmax)))
    for argv in KNOWN_FAULT:  # (kind, --module or --kind value, power, weight, format)
        w = ref.parse_weight(argv[argv.index("--weight") + 1])
        out.append((list(argv), (argv[0], argv[2], int(argv[4]), w, "pretty")))
    rng.shuffle(out)
    return out


# -- query-mix answers -------------------------------------------------------


def _series_json(text: str) -> dict:
    return {ref.parse_weight(e["weight"]): int(e["coeff"]) for e in json.loads(text)}


def _expected_value(expect):
    kind = expect[0]
    if kind == "multiplicity":
        _, module, p, w, _ = expect
        return ref.multiplicity(module, p, w)
    _, ckind, p, w, _ = expect
    return ref.closed_form_value(ckind, p, w)


def _answer_ok(expect, out: str) -> bool:
    kind = expect[0]
    if kind == "decompose":
        _, module, p, fmt, _ = expect
        want = {w: (m, ref.dim(w)) for w, m in ref.decomposition(module, p).items()}
        if fmt == "json":
            obj = json.loads(out)
            if (obj["module"], obj["power"]) != (module, p):
                return False
            got = {ref.parse_weight(t["weight"]): (int(t["mult"]), int(t["dim"])) for t in obj["terms"]}
        else:
            rows = list(csv.reader(out.splitlines()))
            if rows[0] != ["weight", "mult", "dim"]:
                return False
            got = {ref.parse_weight(w): (int(m), int(d)) for w, m, d in rows[1:]}
        return got == want
    if kind in ("multiplicity", "closed-form"):
        fmt = expect[4]
        value = _expected_value(expect)
        if fmt == "pretty":
            return out == f"{value}\n"
        obj = json.loads(out)
        field = "multiplicity" if kind == "multiplicity" else "coeff"
        return obj[field] == str(value) and ref.parse_weight(obj["weight"]) == expect[3]
    if kind == "fit":
        _, s, t = expect
        obj = json.loads(out)
        hi = FIT_PMAX + 4
        coeffs = [Fraction(c) for c in obj["coefficients"]]

        def truth(p):
            return ref.multiplicity("vector", p, (2 * (p - t - s + 1), 2 * t))

        def poly(p):
            return sum(c * p**k for k, c in enumerate(coeffs))

        if obj["window"] != [6, hi] or any(poly(p) != truth(p) for p in range(6, hi + 1)):
            return False
        preds = obj["predictions"]
        return [x["p"] for x in preds] == [hi + 1, hi + 2, hi + 3] and all(
            x["fit"] == x["recurrence"] == str(truth(x["p"])) and poly(x["p"]) == truth(x["p"]) for x in preds
        )
    if kind == "fan":
        return _series_json(out) == ref.fan(expect[1])
    if kind == "singular":
        _, module, p, projected = expect
        return _series_json(out) == (ref.projected(module, p) if projected else ref.direct(module, p))
    if kind == "diagram":
        _, module, pmax = expect
        return _diagram_of(out) == ref.diagram(module, pmax)
    raise ValueError(kind)


_NODE = re.compile(r'\s*(p(\d+)_\S+) \[label="([^"\\]+)\\nx(\d+)"\];')
_EDGE = re.compile(r"\s*(\S+) -> (\S+);")


def _diagram_of(dot: str):
    if not dot.startswith("digraph ") or not dot.endswith("}\n"):
        return None
    ids, nodes, edges = {}, set(), set()
    for line in dot.splitlines():
        node, edge = _NODE.fullmatch(line), _EDGE.fullmatch(line)
        if node:
            level, w = int(node.group(2)), ref.parse_weight(node.group(3))
            ids[node.group(1)] = (level, w)
            nodes.add((level, w, int(node.group(4))))
        elif edge:
            (_, src), (level, dst) = ids[edge.group(1)], ids[edge.group(2)]
            edges.add((level, src, dst))
    return nodes, edges


def query_mix(run: Run, mode=None, **budget) -> dict:
    cache_dir = run.dir / "query-cache"  # starts empty in every run and pass
    shutil.rmtree(cache_dir, ignore_errors=True)
    err_path = run.path("worker.err")
    times, failed, attempted = [], [0], [0]
    plain, cached = {}, {}  # (module, p, format) -> decompose stdout without / with --cache
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, *run.program(mode, "worker", [])],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err, env=run.env, cwd=ROOT, text=True,
        )
        try:

            def ask(argvs):
                proc.stdin.write(json.dumps(argvs) + "\n")
                proc.stdin.flush()
                line = proc.stdout.readline()
                if not line:
                    raise SetupError(f"query worker died: {err_path.read_text(errors='replace')[-500:]}")
                return json.loads(line)

            def one(r):
                queries = query_round(run.seed, r)
                argvs = [[str(cache_dir) if a == "CACHE" else a for a in argv] for argv, _ in queries]
                for (argv, expect), (rc, seconds, out, err_text) in zip(queries, ask(argvs)):
                    attempted[0] += 1
                    if rc != 0:
                        failed[0] += 1
                        known = tuple(argv) in KNOWN_FAULT and rc == 2 and KNOWN_FAULT_MESSAGE in err_text
                        run.check(known, f"query {argv} exited {rc}: {err_text[-300:]}")
                        continue
                    times.append(seconds)
                    try:
                        right = _answer_ok(expect, out)
                    except (ValueError, LookupError, TypeError):
                        right = False
                    run.check(right, f"wrong answer to {argv}: {out[:200]!r}")
                    if expect[0] == "decompose":
                        key = expect[1:4]
                        (cached if expect[4] else plain).setdefault(key, out)

            repeat(one, **budget)
            # cache hits must return the bytes of a computed answer (not timed)
            missing = sorted(set(cached) - set(plain))
            computed = ask([["decompose", "--module", m, "--power", str(p), "--format", f] for m, p, f in missing])
            plain.update({key: res[2] for key, res in zip(missing, computed)})
            for key, out in cached.items():
                run.check(out == plain[key], f"cached decompose {key} differs from the computed answer")
                module, p, _ = key
                run.check((cache_dir / f"decompose-{module}-{p}.json").is_file(), f"no cache file for {key}")
            proc.stdin.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    run.check(proc.returncode == 0, f"query worker exited {proc.returncode}")
    return {"times": {"query": times}, "rss_mb": usage.ru_maxrss / 1024, "attempted": attempted[0], "failed": failed[0]}


WORKLOADS = {"verify-all": verify_all, "large-power": large_power, "query-mix": query_mix}


# ---------------------------------------------------------------------------
# metrics


def typical(results) -> float:
    """The median time per kind of operation, averaged over the kinds.

    One kind for verify-all and query-mix, one per task for large-power,
    whose two tasks differ in cost by a factor of about 2.
    """
    kinds = defaultdict(list)
    for result in results:
        for kind, times in result["times"].items():
            kinds[kind] += times
    return statistics.fmean(statistics.median(v) for v in kinds.values())


def end_to_end(result: dict, setup_s: float) -> dict:
    """Every end-to-end metric, computed over the workload's own operations."""
    every = [t for v in result["times"].values() for t in v]
    op_s = typical([result])
    return {
        "setup_s": setup_s,
        "verify_s": op_s,
        "query_p50_ms": op_s * 1000,
        "queries_per_s": len(every) / sum(every),
        "peak_rss_mb": result["rss_mb"],
    }


def _span_totals(trace_files):
    calls, inclusive, self_s = defaultdict(int), defaultdict(float), defaultdict(float)
    counts, lru = defaultdict(int), defaultdict(lambda: [0, 0])
    power_under_fans = 0.0
    spans_out = []
    for path in trace_files:
        data = json.loads(path.read_text(encoding="utf-8"))
        spans = data["spans"]
        spans_out.extend(spans)
        children = [0.0] * len(spans)
        above = [frozenset()] * len(spans)  # names of the ancestors
        for i, (name, t0, t1, parent, _) in enumerate(spans):
            d = t1 - t0
            if parent >= 0:
                children[parent] += d
                above[i] = above[parent] | {spans[parent][0]}
            calls[name] += 1
            if name not in above[i]:  # recursive calls count once in inclusive time
                inclusive[name] += d
                if name == "series.power" and any(a.startswith("fans.") for a in above[i]):
                    power_under_fans += d
        for i, (name, t0, t1, _, _) in enumerate(spans):
            self_s[name] += (t1 - t0) - children[i]
        for key, n in data["counts"].items():
            counts[key] += n
        for key, (hits, misses) in data["lru"].items():
            lru[key][0] += hits
            lru[key][1] += misses
    return calls, inclusive, self_s, counts, lru, power_under_fans, spans_out


def per_layer(names, span_files, count_files, plain_s: float, traced_s: float, spans_wall: float) -> tuple:
    """Per-layer metrics from one spans pass (wall time spans_wall) and one counters pass.

    plain_s and traced_s are the typical operation times without and with spans.
    """
    calls, inclusive, self_s, counts, lru, power_under_fans, spans = _span_totals(span_files)
    for path in count_files:
        for key, n in json.loads(path.read_text(encoding="utf-8"))["counts"].items():
            counts[key] += n

    def ratio(a, b):
        return a / b if b else 0.0

    special = {
        "lattice.Weight.new": counts["lattice.Weight.new"],
        "lattice.to_dominant_regular.calls": counts["lattice.to_dominant_regular.calls"],
        "series.mul.term_products": counts["series.mul.term_products"],
        "series.power.under_fans.share": ratio(power_under_fans, spans_wall),
        "engine.tensor_power_weights.hit_ratio": ratio(
            lru["engine.tensor_power_weights"][0], sum(lru["engine.tensor_power_weights"])
        ),
        "cache.hit_ratio": ratio(counts["cache.load.hits"], calls["cache.load"]),
        "cache.store.bytes": counts["cache.store.bytes"],
        "trace.overhead_pct": 100 * (traced_s - plain_s) / plain_s,
    }
    out = {}
    for name in names:
        if name in special:
            out[name] = special[name]
            continue
        span, _, what = name.rpartition(".")
        table = {"calls": calls, "s": inclusive, "self_s": self_s}[what]
        out[name] = table[span]
    return out, spans


# ---------------------------------------------------------------------------


def measure(run: Run, seconds: int) -> tuple:
    setup_probes(run, 1)  # writes the bytecode cache
    # set-up probes and calibrations spread over the whole run, so its slow
    # and fast phases weigh on them as they weigh on the workload
    walls, calibrations, due = [], [], [time.perf_counter()]

    def probes():
        while time.perf_counter() >= due[0]:
            walls.extend(setup_probes(run, 1))
            calibrations.extend(calibration() for _ in range(CALIBRATIONS_PER_PROBE))
            due[0] += SETUP_EVERY_S

    probes()
    result = WORKLOADS[run.workload](run, seconds=seconds, between=probes)
    raw = end_to_end(result, statistics.median(walls))
    speed = CALIBRATION_S / statistics.fmean(calibrations)
    print(f"raw metrics (speed {speed:.4f}): {json.dumps(raw)}", file=sys.stderr)
    scaled = {name: value * speed for name, value in raw.items()}
    scaled["queries_per_s"] = raw["queries_per_s"] / speed
    scaled["peak_rss_mb"] = raw["peak_rss_mb"]
    return scaled, result


def trace(run: Run, names) -> tuple:
    """Per-layer metrics and tracing overhead from fixed rounds.

    The passes run plain, with spans, with spans, plain (so a steady drift of
    the machine cancels out of the overhead), then once with the hot counters.
    The per-layer metrics come from the first spans pass and the counters pass.
    """
    workload, count = WORKLOADS[run.workload], TRACE_ROUNDS[run.workload]
    setup_probes(run, 1)  # writes the bytecode cache
    passes, files = [], []
    for mode in (None, "spans", "spans", None, "counts"):
        before = set(run.dir.glob("*.trace.json"))
        passes.append(workload(run, mode=mode, count=count))
        files.append(sorted(set(run.dir.glob("*.trace.json")) - before, key=lambda p: int(p.name.split("-")[0])))

    def wall(*results):
        return sum(t for r in results for v in r["times"].values() for t in v)

    plain_s, traced_s = typical([passes[0], passes[3]]), typical([passes[1], passes[2]])
    metrics, raw = per_layer(names, files[1], files[4], plain_s, traced_s, wall(passes[1]))
    with open(OUT / f"trace-{run.workload}-seed{run.seed}.jsonl", "w", encoding="utf-8") as fh:
        for span in raw:
            fh.write(json.dumps(span) + "\n")
    total = {k: sum(r[k] for r in passes) for k in ("attempted", "failed")}
    return metrics, total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "b2tensor" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"b2tensor sources or BENCHMARK.json not found under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]

    ref.self_check()
    run = Run(args.workload, args.seed)
    try:
        if args.trace:
            values, counts = trace(run, [m["name"] for m in declared])
        else:
            values, result = measure(run, args.seconds)
            counts = {k: result[k] for k in ("attempted", "failed")}
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": not run.problems, **counts, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
