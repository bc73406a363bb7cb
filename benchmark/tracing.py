"""Per-layer tracing of b2tensor from outside the package.

Run as `python3 tracing.py MODE OUTFILE LABEL TARGET [ARGS...]`:

  MODE    spans  - a span (name, start, end, parent, task) at every wrapped
                   public function, plus counts and lru_cache statistics;
          counts - only the hot counters (Weight constructions and
                   to_dominant_regular calls), in a pass of their own so
                   they do not distort the span times.
  TARGET  cli ARGV...    - b2tensor.cli.main(ARGV), as `python -m b2tensor`
          task MODULE P  - task.main, one large-power task
          worker         - worker.main, the query-mix process

Wrapping rebinds each public name in every b2tensor module that holds it,
including each module's own imported binding, and the check functions in
verify.SUITES; src/ is not touched. Spans stay in memory and are written as
one JSON object to OUTFILE when the target returns.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import time

MODULES = ("lattice", "series", "engine", "fans", "closed_forms", "verify", "cli", "cache", "diagram")

# layer -> public functions that get a span
SPANNED = {
    "series": ("weight_multiplicities",),
    "engine": (
        "tensor_power_weights",
        "extract_multiplicities",
        "decomposition",
        "recur_multiplicity",
        "iterate_single_step",
        "m_extended",
    ),
    "fans": (
        "fan_power_direct",
        "singular_power_projected",
        "singular_power_direct",
        "fan_recursion_solve",
        "fan_closed_form",
        "vector_singular_closed",
        "spinor_singular_closed",
        "diff_report",
    ),
    "closed_forms": ("diagonal_formula", "fit_polynomial"),
    "cli": ("main",),
    "cache": ("load", "store"),
    "diagram": ("to_dot",),
}
CACHED = (("engine", "tensor_power_weights"),)


class Recorder:
    def __init__(self, task: str):
        self.task = task
        self.spans = []  # [name, start, end, parent index, task]
        self.stack = []
        self.counts = {}

    def bump(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def span(self, fn, name: str, pre=None, post=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(args)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.task]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if post is not None:
                post(rec, result)
            return result

        return wrapper

    def counter(self, fn, key: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper


def _modules():
    return {name: importlib.import_module(f"b2tensor.{name}") for name in MODULES}


def _rebind(mods, package, original, replacement) -> None:
    for mod in (package, *mods.values()):
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install_spans(rec: Recorder):
    """Wrap the public functions; returns a callable giving lru_cache statistics."""
    import b2tensor

    mods = _modules()
    originals = {key: getattr(mods[key[0]], key[1]) for key in CACHED}
    hooks = {
        ("cache", "load"): (None, lambda r, res: rec.bump("cache.load.hits", res is not None)),
        ("cache", "store"): (None, lambda r, res: rec.bump("cache.store.bytes", res.stat().st_size)),
    }
    for layer, names in SPANNED.items():
        for name in names:
            fn = getattr(mods[layer], name)
            pre, post = hooks.get((layer, name), (None, None))
            _rebind(mods, b2tensor, fn, rec.span(fn, f"{layer}.{name}", pre, post))

    series_cls = mods["series"].LatticeSeries

    def count_products(args):
        rec.bump("series.mul.term_products", len(args[0]) * len(args[1]))

    series_cls.__mul__ = rec.span(series_cls.__mul__, "series.mul", pre=count_products)
    series_cls.power = rec.span(series_cls.power, "series.power")

    def name_check(r, result):
        r[0] = f"verify.{result.name}"

    for checks in mods["verify"].SUITES.values():
        checks[:] = [rec.span(fn, f"verify.{fn.__name__}", post=name_check) for fn in checks]

    def cache_info():
        out = {}
        for key, fn in originals.items():
            info = fn.cache_info()
            out[".".join(key)] = [info.hits, info.misses]
        return out

    return cache_info


def install_counts(rec: Recorder) -> None:
    import b2tensor

    mods = _modules()
    weight = mods["lattice"].Weight
    weight.__post_init__ = rec.counter(weight.__post_init__, "lattice.Weight.new")
    fn = mods["lattice"].to_dominant_regular
    _rebind(mods, b2tensor, fn, rec.counter(fn, "lattice.to_dominant_regular.calls"))


def main(argv) -> int:
    mode, outfile, label, target, rest = argv[0], argv[1], argv[2], argv[3], argv[4:]
    rec = Recorder(label)
    cache_info = dict
    if mode == "spans":
        cache_info = install_spans(rec)
    elif mode == "counts":
        install_counts(rec)
    else:
        raise SystemExit(f"unknown trace mode {mode!r}")

    if target == "cli":
        from b2tensor import cli

        run = functools.partial(cli.main, rest)
    elif target == "task":
        import task

        run = functools.partial(task.main, rest)
    elif target == "worker":
        import worker

        answer = worker.answer
        queries = itertools.count()

        def numbered(query):
            rec.task = f"{label}:{next(queries)}"
            return answer(query)

        worker.answer = numbered
        run = worker.main
    else:
        raise SystemExit(f"unknown trace target {target!r}")

    try:
        rc = run()
    finally:
        with open(outfile, "w", encoding="utf-8") as fh:
            json.dump({"spans": rec.spans, "counts": rec.counts, "lru": cache_info()}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
