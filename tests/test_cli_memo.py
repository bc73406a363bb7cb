"""The warm CLI: dispatch on the command's own parser, and the memo of answer
texts that repeated queries are printed from."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from b2tensor import cli
from b2tensor.cli import MEMO_CHARS, Answer, _parse, _TextMemo, build_parser, main
from test_cli_golden import golden_argvs

ROOT = Path(__file__).resolve().parent.parent


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def parsed(parse, argv):
    """The Namespace, or the exit code and output of a parse that exits."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parse(cli._attach_weight_values(argv)))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


def test_dispatch_parses_as_the_top_level_parser(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    top = build_parser()
    for argv in golden_argvs():
        assert parsed(_parse, argv) == parsed(top.parse_args, argv), argv


def test_memo_bound_is_a_mebibyte_of_characters():
    assert MEMO_CHARS == 1 << 20
    assert cli._ANSWERS.bound == MEMO_CHARS


def test_memo_holds_at_most_its_bound_after_the_largest_answers():
    # the sizes of the largest answers: fan --power 40 and decompose vector
    # --power 100 in json, and one answer longer than the bound
    memo = _TextMemo(MEMO_CHARS)

    def held():
        return sum(map(len, memo.texts.values()))

    for key, size in (("fan", 550_000), ("decompose", 230_000), ("singular", 400_000)):
        memo.put(key, "x" * size)
        assert memo.chars == held() <= MEMO_CHARS
    assert list(memo.texts) == ["decompose", "singular"]  # the least recent one went
    memo.put("huge", "x" * (MEMO_CHARS + 1))
    assert "huge" not in memo.texts and list(memo.texts) == ["decompose", "singular"]
    assert memo.get("decompose") is not None
    memo.put("fan", "x" * 550_000)
    assert list(memo.texts) == ["decompose", "fan"]  # a read counts as a use
    assert memo.chars == held() == 780_000


def test_cli_memo_evicts_the_least_recent_answer(monkeypatch):
    first = ["decompose", "--module", "vector", "--power", "3"]
    second = ["fan", "--power", "2", "--format", "json"]
    texts = [run(argv)[1] for argv in (first, second)]
    memo = _TextMemo(max(map(len, texts)))
    monkeypatch.setattr(cli, "_ANSWERS", memo)
    for argv, text in zip((first, second), texts):
        assert run(argv) == (0, text, "")
        assert list(memo.texts.values()) == [text] and memo.chars == len(text)


def test_repeated_query_prints_the_stored_text(monkeypatch):
    argv = ["decompose", "--module", "spinor", "--power", "3", "--format", "csv"]
    want = run(argv)
    assert want[0] == 0 and len(cli._ANSWERS.texts) == 1

    def fail(*_):
        raise RuntimeError("recomputed")

    monkeypatch.setattr(cli, "decomposition", fail)
    assert run(argv) == want
    assert run(["decompose", "--format", "json", "--power", "3", "--module", "spinor"])[0] == 1
    assert run(["decompose", "--format", "csv", "--power", "3", "--module", "spinor"]) == want


@pytest.mark.parametrize(
    "argv",
    [
        ["multiplicity", "--module", "vector", "--power", "3", "--weight", "-1,0"],
        ["fan", "--power", "0"],
        ["closed-form", "--kind", "fan", "--power", "0"],
        ["fit", "--s", "6", "--t", "3", "--pmax", "4"],
        ["fit", "--s", "7", "--t", "0"],
        ["fan", "--power", "41"],
        ["fan", "--power", "2", "extra"],
        ["decompose", "--module", "vector", "--power", "2", "--help"],
    ],
)
def test_failed_answers_are_not_stored(argv):
    code, out, err = run(argv)
    assert code != 0 or (out.startswith("usage:") and not err)
    assert not cli._ANSWERS.texts


def test_answers_that_write_stderr_are_not_stored(monkeypatch):
    monkeypatch.setitem(cli._DISPATCH, "fan", lambda args: Answer(0, "text\n", "note\n"))
    assert run(["fan", "--power", "2"]) == (0, "text\n", "note\n")
    assert not cli._ANSWERS.texts


@pytest.mark.parametrize(
    "argv",
    [
        ["multiplicity", "--module", "vector", "--power", "6", "--weight", "2,1"],
        ["multiplicity", "--module", "spinor", "--power", "3", "--weight", "-1/2,1/2", "--extended"],
        ["closed-form", "--kind", "vector", "--power", "3", "--weight", "1,0", "--format", "json"],
    ],
)
def test_answers_at_one_weight_bypass_the_memo(argv):
    first = run(argv)
    assert first[0] == 0 and run(argv) == first
    assert not cli._ANSWERS.texts


def test_verify_bypasses_the_memo(monkeypatch):
    calls = []
    real = cli.run_suite
    monkeypatch.setattr(cli, "run_suite", lambda *a: calls.append(a) or real(*a))
    argv = ["verify", "--suite", "dimension-identity", "--pmax", "4", "--timings"]
    first, second = run(argv), run(argv)
    assert first[:2] == second[:2] and first[0] == 0 and first[2]
    assert len(calls) == 2 and not cli._ANSWERS.texts


def test_cache_query_after_a_memo_answer_still_writes_its_file(tmp_path):
    argv = ["decompose", "--module", "vector", "--power", "4", "--format", "json"]
    plain = run(argv)
    assert run(argv) == plain and len(cli._ANSWERS.texts) == 1
    assert run(argv + ["--cache", str(tmp_path)]) == plain
    assert (tmp_path / "decompose-vector-4.json").is_file()
    assert len(cli._ANSWERS.texts) == 1  # the --cache query is not stored


def fresh_python(script):
    """The words a new interpreter prints running script against src/."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    child = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert child.returncode == 0, child.stderr
    return child.stdout.split()


def test_hashlib_is_loaded_only_for_the_disk_cache(tmp_path):
    script = f"""
import contextlib, io, sys
from b2tensor import cli
cli.build_parser()
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["verify", "--pmax", "4", "--format", "json"])
before = "hashlib" in sys.modules
with contextlib.redirect_stdout(io.StringIO()) as out:
    cached = cli.main(["decompose", "--module", "vector", "--power", "2", "--cache", {str(tmp_path)!r}])
print(code, before, cached, out.getvalue().startswith("vector^(x2) ="))
"""
    assert fresh_python(script) == ["0", "False", "0", "True"]
    assert json.loads((tmp_path / "decompose-vector-2.json").read_text())["payload"]["power"] == 2


def test_no_query_imports_dataclasses_or_inspect():
    # `import dataclasses` costs about 12 ms of a cold start, most of it in
    # `inspect`; the records are NamedTuples so that no b2tensor process needs it
    script = """
import contextlib, io, sys
from b2tensor import cli
def loaded():
    return [m for m in ("dataclasses", "inspect") if m in sys.modules]
cli.build_parser()
print(loaded())
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["verify", "--pmax", "4", "--format", "json"])
print(code, loaded())
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["decompose", "--module", "spinor", "--power", "3"])
print(code, loaded())
"""
    assert fresh_python(script) == ["[]", "0", "[]", "0", "[]"]
