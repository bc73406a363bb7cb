"""Mutation gate: every mutant below must make the tier-1 tests fail.

Each mutant is (file under src/b2tensor, exact old text, new text, what it
breaks). The old text must occur exactly once in the file. For each mutant
the script copies src/, tests/, benchmark/ (which tests run) and
pyproject.toml into a temporary directory, applies the one replacement there and runs tier-1 with -x, so a
killed mutant stops at its first failing test, which is printed. An
unmutated copy runs first and must pass. The repository itself is never
written.

    python scripts/mutants.py

Exit status 0 when every mutant is killed, 1 when the unmutated copy fails,
an old text is not found once, or a mutant survives. A surviving mutant is a
missing test: add the test, and keep the mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MUTANTS = [
    # one place for each decision: the Weyl orbit, the points below p*omega,
    # the power floor and the fit certificate's sample count
    (
        "series.py",
        "        out[-a - s1, b - s2] = u\n",
        "        out[-a - s1, b - s2] = v\n",
        "_unfold gives a det -1 image the unsigned value",
    ),
    (
        "series.py",
        "-1, RHO.d1, RHO.d2)",
        "-1, 0, 0)",
        "singular_element without the -rho shift",
    ),
    (
        "cli.py",
        '"fan": ("power", 1, 40)',
        '"fan": ("power", 0, 40)',
        "the fan floor back at 0",
    ),
    (
        "fans.py",
        "for nu in reversed(band(module, p, None)):",
        "for nu in reversed(band(module, p - 1, None)):",
        "the fan solve sweeps the points below (p-1)*omega",
    ),
    (
        "verify.py",
        "window - cf.ZERO_SLACK - s)",
        "window - cf.ZERO_SLACK - s + 1)",
        "the t cap of the polynomial fits one higher",
    ),
    # one path per job
    (
        "closed_forms.py",
        "PMAX_MIN = ZERO_SLACK + 2",
        "PMAX_MIN = ZERO_SLACK + 1",
        "the pmax floor one below the first fit window",
    ),
    (
        "engine.py",
        "    if mu.d1 > mu.d2 >= 1:\n",
        "    if mu.d1 > mu.d2 >= 2:\n",
        "the vector-product line mu2 = 1/2 falls to the mu = 0 case",
    ),
    (
        "engine.py",
        "return sorted(w for w in cand if is_dominant(w))",
        "return sorted(cand)",
        "vector-product case weights kept when not dominant",
    ),
    (
        "lattice.py",
        "return dominated(l1, l2, y_max=depth)",
        "return dominated(l1, l2, y_max=0 if depth is None else depth)",
        "the spinor band reads depth None as 0",
    ),
    (
        "fans.py",
        "val = pi(p, *nu)",
        "val = pi(p - 1, *nu)",
        "the fan solve reads Pi at p - 1",
    ),
    # the cache reads the payload's bytes as stored; integer weights skip Fraction
    (
        "cache.py",
        "data = body[len(_HEAD) : end]",
        "data = body[len(_HEAD) : end - 1]",
        "the cached payload slice one character short",
    ),
    (
        "cache.py",
        "if _sha256(data) != digest:",
        "if False:",
        "the cache digest comparison skipped",
    ),
    (
        "lattice.py",
        "if _HALF.fullmatch(v) else 2 * int(v)",
        "if _HALF.fullmatch(v) else int(v)",
        "Weight.parse reads an integer coordinate undoubled",
    ),
    (
        "lattice.py",
        'if "_" not in text:',
        "if True:",
        "Weight.parse reads underscores with int() on every Python",
    ),
    (
        "lattice.py",
        'if "e" in text or "E" in text:',
        "if False:",
        "Weight.parse hands a coordinate with an exponent to Fraction",
    ),
    # the closed-form window carries its values; three proofs of the fast paths
    (
        "series.py",
        "codes[ma + b] = codes[pa - b] = codes[pb + a] = codes[mb - a] = flip * v",
        "codes[ma + b] = codes[pa - b] = codes[pb + a] = codes[mb - a] = v",
        "ChamberChain.window gives a det -1 image the unsigned value",
    ),
    (
        "fans.py",
        "[-v for v in reversed(values)]",
        "[v for v in reversed(values)]",
        "the fan window's values not negated",
    ),
    (
        "fans.py",
        "[(-d1, -d2) for d1, d2 in reversed(points)]",
        "[(-d1, -d2) for d1, d2 in points]",
        "the fan window's points not reversed",
    ),
    (
        "fans.py",
        "return range(lo, hi + 1)",
        "return range(lo, hi)",
        "_nonzero_range one short at its top",
    ),
    (
        "series.py",
        "for _ in range(height // step):",
        "for _ in range(height // step - 1):",
        "the Freudenthal walk stops one step short",
    ),
    (
        "closed_forms.py",
        "b = b * (n - k + 1) // k",
        "b = b * (n - k) // k",
        "NewtonFit's binomial update one factor low",
    ),
    # plain command lines are read without argparse; halves skip Fraction
    (
        "cli.py",
        "if choices is not None and value not in choices:",
        "if False:",
        "_read takes a value outside the option's choices",
    ),
    (
        "cli.py",
        'if text.startswith("-"):',
        'if text == "-":',
        "_read takes a separate value with a leading '-'",
    ),
    (
        "cli.py",
        "if not values.keys() >= spec.required or len(spec.exclusive & values.keys()) > 1:",
        "if not values.keys() >= spec.required:",
        "_read takes both exclusive options",
    ),
    (
        "cli.py",
        "if not values.keys() >= spec.required or len(spec.exclusive & values.keys()) > 1:",
        "if len(spec.exclusive & values.keys()) > 1:",
        "_read takes a line without a required option",
    ),
    (
        "cli.py",
        'if action is None or action[1] or text == "--":',
        "if action is None or action[1]:",
        "_read takes an '=' text of '--', which argparse drops",
    ),
    (
        "cli.py",
        'if action is None or action[1] or text == "--":',
        'if action is None or text == "--":',
        "_read takes an '=' text on a flag",
    ),
    (
        "lattice.py",
        "return int(v[:-2]) if _HALF.fullmatch(v)",
        "return 2 * int(v[:-2]) if _HALF.fullmatch(v)",
        "Weight.parse reads the half n/2 as 2*n",
    ),
    # closed-form point answers keep their factor tables, and the CLI its
    # answer texts, in one BoundedLRU each
    (
        "fans.py",
        "    key = (kind, p)\n",
        "    key = (kind, 1)\n",
        "the factor tables keyed without p",
    ),
    (
        "cache.py",
        "while self.charged > self.bound:",
        "while False:",
        "BoundedLRU never evicts",
    ),
    (
        "cache.py",
        "self.entries.move_to_end(key)",
        "pass",
        "BoundedLRU evicts first in, not least recently used",
    ),
    (
        "cache.py",
        "        if cost > self.bound:\n            return\n",
        "",
        "BoundedLRU keeps an entry charged above the bound, which evicts the rest",
    ),
    # proof mutants: the fan-solve cut, the power the alternating sum
    # reads, the vector band's depth and the folded window's chamber filter
    (
        "fans.py",
        "cap = min(top1, top - x)",
        "cap = min(top1, top - x) - 1",
        "the fan solve's cap one too small",
    ),
    (
        "fans.py",
        "if x > top1:",
        "if x >= top1:",
        "the fan solve skips the rows with x = l1 + r1 as dead",
    ),
    (
        "engine.py",
        "return _alternating_sum(chain.chamber_dict(p).get, mu.d1, mu.d2)",
        "return _alternating_sum(chain.chamber_dict(p - 1).get, mu.d1, mu.d2)",
        "m_extended reads ch^(p-1)",
    ),
    (
        "lattice.py",
        "max(l1 % 2, l1 - 2 * x_max)",
        "max(l1 % 2, l1 - 2 * x_max + 2)",
        "dominated's x_max bound one short",
    ),
    (
        "series.py",
        "if a + h1 >= b + h2 >= 0",
        "if a + h1 > b + h2 >= 0",
        "ChamberChain.window drops the halo points on the chamber's diagonal wall",
    ),
    # verify runs CHILD_CHECKS in a forked child and merges by index
    (
        "verify.py",
        "for _, ok, value in sorted(entries, key=lambda entry: entry[0]):",
        "for _, ok, value in entries:",
        "the child's results appended in arrival order, not placed by index",
    ),
    (
        "verify.py",
        "        if ok:\n",
        "        if True:\n",
        "the child's error tag ignored",
    ),
    (
        "verify.py",
        "        except OSError:  # EAGAIN or ENOMEM at a process or memory limit\n            return None\n",
        "",
        "a failed fork ends the run instead of running every check in order",
    ),
    # cold verify: plain command lines read from a recorded table, one
    # single-step pass per module, Kronecker slots written as array items
    (
        "cli.py",
        "return _Recorded(list(names), dest, 0, True, False, None, None, required)",
        "return _Recorded(list(names), dest, 0, True, None, None, None, required)",
        "the recorder's store_true default None, not False",
    ),
    (
        "verify.py",
        "fan_recursion_solve(mod, p) == steps[mod][p]:",
        "fan_recursion_solve(mod, p) == steps[mod][p - 1]:",
        "four-routes-agree reads the single-step record of p - 1",
    ),
    (
        "series.py",
        "size = (bound.bit_length() + 8) // 8",
        "size = (bound.bit_length() + 7) // 8",
        "is_product's slot without its sign bit",
    ),
    (
        "series.py",
        "_WIDTHS = (0, 1, 2, 4, 4,",
        "_WIDTHS = (0, 1, 2, 2, 4,",
        "a 3-byte slot written as a 2-byte array item",
    ),
    # cli.main, which a long-lived process calls again and again, leaves the
    # collector as it found it
    (
        "cli.py",
        "def main(argv=None) -> int:\n",
        'def main(argv=None) -> int:\n    __import__("gc").freeze()\n',
        "cli.main freezes the collector",
    ),
    # a verified --cache hit is printed from the memo under its digest; a
    # refused command line is read again once its weight is rewritten
    (
        "cli.py",
        "        memo_key = (digest, key, args.format)\n        return _ANSWERS.get(memo_key)\n",
        "        memo_key = (key, args.format)\n        return _ANSWERS.get(memo_key)\n",
        "the memo key of a cache hit without the payload's digest",
    ),
    (
        "cache.py",
        "    if _sha256(data) != digest:\n        return None\n"
        "    if known is not None:\n        value = known(digest)\n"
        "        if value is not None:\n            return value, None\n",
        "    if known is not None:\n        value = known(digest)\n"
        "        if value is not None:\n            return value, None\n"
        "    if _sha256(data) != digest:\n        return None\n",
        "the memo read before the digest check",
    ),
    (
        "cli.py",
        "        argv = _attach_weight_values(argv)\n",
        "        _attach_weight_values(argv)\n",
        "_parse reads a refused line again without its weight rewrite",
    ),
    # two proof mutants that tier-1 already killed when tried by hand: the
    # y bound of the dominant points below a weight, and the reflection sign
    (
        "lattice.py",
        "top - 2 * y_max",
        "top + 2 * y_max",
        "dominated's y bound two rows too far down",
    ),
    (
        "engine.py",
        "return sign * self.values.get((a - _R1, b - _R2), 0)",
        "return self.values.get((a - _R1, b - _R2), 0)",
        "MultiplicityFunction.at without the reflection sign",
    ),
    # one-weight answers on a short path: the kept builders and vectors of
    # closed_form_point, the direct point render, the unbuffered cache read
    (
        "fans.py",
        "u, v = firsts.get(x), seconds.get(y)",
        "u, v = firsts.get(x), firsts.get(y)",
        "closed_form_point reads the firsts table for the second coordinate",
    ),
    (
        "cli.py",
        'return canonical_json(obj) + "\\n"',
        'return __import__("json").dumps(obj, separators=(",", ":")) + "\\n"',
        "the json point answer without sort_keys",
    ),
    (
        "cache.py",
        "body = os.read(fd, os.fstat(fd).st_size)",
        "body = os.read(fd, os.fstat(fd).st_size - 1)",
        "cache.load reads its file one byte short",
    ),
]

TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]


def run_tier1(where: Path) -> tuple:
    """(passed, first failure line) of tier-1 in the copy at where."""
    env = {**os.environ, "PYTHONPATH": str(where / "src")}
    done = subprocess.run(TIER1, cwd=where, env=env, capture_output=True, text=True)
    # a failing test is named on stdout; a failure to import conftest only on stderr
    failed = [ln for ln in done.stdout.splitlines() if ln.startswith(("FAILED", "ERROR"))]
    last = [ln for ln in (done.stdout + done.stderr).splitlines() if ln.strip()][-1:]
    return done.returncode == 0, (failed or last or [""])[0][:120]


def copy_of_repo(into: Path) -> Path:
    for part in ("src", "tests", "benchmark"):
        shutil.copytree(ROOT / part, into / part, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", into / "pyproject.toml")
    return into


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        passed, first = run_tier1(copy_of_repo(Path(tmp) / "clean"))
    if not passed:
        print(f"the unmutated copy fails tier-1: {first}")
        return 1
    survivors = 0
    for i, (name, old, new, what) in enumerate(MUTANTS, 1):
        with tempfile.TemporaryDirectory() as tmp:
            path = copy_of_repo(Path(tmp)) / "src" / "b2tensor" / name
            text = path.read_text(encoding="utf-8")
            if text.count(old) != 1:
                print(f"{i:2} STALE    {name}: old text found {text.count(old)} times ({what})")
                survivors += 1
                continue
            path.write_text(text.replace(old, new), encoding="utf-8")
            passed, first = run_tier1(Path(tmp))
        status = "SURVIVED" if passed else "killed  "
        survivors += passed
        print(f"{i:2} {status} {name}: {what}" + ("" if passed else f"\n     by {first}"))
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} killed in {time.perf_counter() - start:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
