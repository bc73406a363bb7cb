"""Golden digests of the command line: exit code, stdout and stderr of about
400 argument sets, compared against tests/data/cli_digests.json.

Each entry is the sha256 of the JSON list [exit code, stdout, stderr] of one
in-process `b2tensor.cli.main(argv)` call, in the order listed, so a cache
miss is followed by its hit. `{cache}` in an argv stands for a fresh cache
directory. Regenerate the file only for an intended output change:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

from b2tensor.cli import main

DIGESTS = Path(__file__).parent / "data" / "cli_digests.json"
FORMATS = ("json", "csv", "pretty")
MODULES = ("vector", "spinor")
KINDS = ("fan", "vector", "spinor")


def golden_argvs() -> list:
    out = []

    def each_format(*argv):
        out.extend([*argv, "--format", fmt] for fmt in FORMATS)

    out += [["--help"]] + [
        [command, "--help"]
        for command in (
            "decompose", "multiplicity", "fan", "singular", "closed-form", "fit", "verify", "diagram"
        )
    ]
    for module in MODULES:
        for p in (0, 1, 2, 3, 5):
            each_format("decompose", "--module", module, "--power", str(p))
        for p in (2, 5):
            for weight in ("0,0", "1,0", "1/2,1/2", "2,1", "3/2,1/2", "7,0", "0,2"):
                each_format("multiplicity", "--module", module, "--power", str(p), "--weight", weight)
            for weight in ("0,2", "-1,0", "-3/2,1/2"):
                each_format(
                    "multiplicity", "--module", module, "--power", str(p), "--weight", weight, "--extended"
                )
        for p in (0, 1, 3):
            each_format("singular", "--module", module, "--power", str(p))
            each_format("singular", "--module", module, "--power", str(p), "--projected")
    for p in (0, 1, 2, 4):
        each_format("fan", "--power", str(p))
    for kind in KINDS:
        for p in (0, 1, 3):
            each_format("closed-form", "--kind", kind, "--power", str(p))
        for weight in ("0,0", "1,0", "-1,1", "1/2,1/2", "3/2,-1/2"):
            each_format("closed-form", "--kind", kind, "--power", "3", "--weight", weight)
        for p in (1, 3):
            each_format("closed-form", "--kind", kind, "--power", str(p), "--diff-printed")
    # s = 1..6 on windows that certify and on windows too short for the degree
    for s in range(1, 7):
        for t in (0, 1, 2):
            # degree s+t-1 needs s+t+2 samples of the window 6..pmax+4
            out.append(["fit", "--s", str(s), "--t", str(t), "--pmax", str(s + t + 3), "--format", "json"])
        out.append(["fit", "--s", str(s), "--t", "3", "--pmax", "4"])
    each_format("fit", "--s", "2", "--t", "1", "--pmax", "8")
    each_format("fit", "--s", "5", "--t", "2", "--pmax", "10")
    out += [["fit", "--s", s, "--t", "0"] for s in ("0", "7")]
    for suite in (
        "oracle-agreement", "dimension-identity", "paper-tables", "closed-forms",
        "fan-singular", "conjectures", "all",
    ):
        each_format("verify", "--suite", suite, "--pmax", "6")
    for module in MODULES:
        out += [["diagram", "--module", module, "--pmax", str(pmax)] for pmax in range(5)]
    # a cache miss, then its hit
    for argv in (
        ["decompose", "--module", "spinor", "--power", "4"],
        ["singular", "--module", "vector", "--power", "3", "--projected"],
        ["singular", "--module", "spinor", "--power", "2"],
    ):
        out += [argv + ["--cache", "{cache}", "--format", "csv"]] * 2
    # the limit errors, and usage errors that name an option's choices
    for command, extra, over in (
        ("decompose", ["--module", "vector"], "101"),
        ("multiplicity", ["--module", "vector", "--weight", "1,0"], "101"),
        ("fan", [], "41"),
        ("singular", ["--module", "spinor"], "41"),
        ("closed-form", ["--kind", "fan"], "31"),
    ):
        out.append([command, *extra, "--power", over])
    out += [["verify", "--pmax", pmax] for pmax in ("0", "3", "23")]
    out += [["fit", "--s", "1", "--t", "0", "--pmax", pmax] for pmax in ("3", "151")]
    out.append(["diagram", "--module", "vector", "--pmax", "61"])
    out += [["decompose", "--module", "tensor", "--power", "2"], ["fan"], ["nope"]]
    # dispatch edge cases: no command, leftovers, abbreviations, help late in
    # the line, options before the command, negative weights in every position
    out += [
        [],
        ["-h"],
        ["--bogus"],
        ["--", "fan", "--power", "2"],
        ["fan", "--power", "2", "extra"],
        ["fan", "--power", "2", "--bogus"],
        ["fan", "--power", "2", "--bogus", "extra"],
        ["fan", "--bogus"],
        ["fan", "--power"],
        ["fan", "--power=2", "--power", "3"],
        ["fan", "--power", "2", "--", "extra"],
        ["decompose", "--mod", "vector", "--power", "2"],
        ["decompose", "--mod", "vector", "--pow", "2", "--form", "csv"],
        ["decompose", "--module", "vector", "-h"],
        ["decompose", "--module", "vector", "--power", "2", "--help", "--bogus"],
        ["closed-form", "--kind", "fan", "--power", "3", "--weight"],
        ["closed-form", "--kind", "fan", "--power", "3", "--weight", "1,0", "--diff-printed"],
    ]
    for module in MODULES:
        out.append(["multiplicity", "--module", module, "--power", "3", "--extended", "--weight", "-1,0"])
        out.append(["multiplicity", "--module", module, "--power", "3", "--weight=-1,0", "--extended"])
        out.append(["multiplicity", "--module", module, "--power", "3", "--weight", "-1,0"])
    for kind in KINDS:
        each_format("closed-form", "--kind", kind, "--power", "3", "--weight", "-1,0")
    out.append(["closed-form", "--weight", "-1,0", "--kind", "vector", "--power", "2"])
    return out


def run(argv, cache_dir: str) -> str:
    argv = [cache_dir if a == "{cache}" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: --help and usage errors
            code = exc.code
    text = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digests(cache_dir: str) -> list:
    return [[argv, run(argv, cache_dir)] for argv in golden_argvs()]


def test_cli_output_matches_golden_digests(tmp_path, monkeypatch):
    """Two passes in one process: the second answers repeats from the memo."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps --help and usage to the terminal
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))
    for sweep in ("first", "second"):
        got = digests(str(tmp_path / sweep))
        assert [argv for argv, _ in got] == [argv for argv, _ in want]
        differ = [" ".join(argv) for (argv, a), (_, b) in zip(got, want) if a != b]
        assert not differ, f"{sweep} pass: output changed for:\n" + "\n".join(differ)


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as cache_dir:
        rows = digests(cache_dir)
    DIGESTS.write_text(
        "[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n", encoding="utf-8"
    )
    print(f"{len(rows)} digests written to {DIGESTS}")
