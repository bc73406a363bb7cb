"""The warm CLI: the reader of plain command lines, dispatch on the command's
own parser, and the memo of answer texts that repeated queries and verified
--cache hits are printed from."""

import contextlib
import importlib.util
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from b2tensor import cache, cli
from b2tensor.cache import BoundedLRU
from b2tensor.cli import MEMO_CHARS, Answer, _parse, _read, build_parser, main
from b2tensor.fans import CLOSED_FORMS
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
            return vars(parse(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


def test_dispatch_parses_as_the_top_level_parser(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    top = build_parser()
    for argv in golden_argvs():
        assert parsed(_parse, argv) == parsed(top.parse_args, cli._attach_weight_values(argv)), argv


def read_as_argparse(argv) -> bool:
    """Whether _read reads argv; when it does, its command's parser must take
    argv without an error or extras and give the same Namespace."""
    got = _read(argv)
    if got is None:
        return False
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            want, extras = cli._parsers()[1][argv[0]].parse_known_args(argv[1:])
        except SystemExit:
            pytest.fail(f"_read took {argv}, argparse refuses it: {err.getvalue()}")
    assert extras == [], argv
    assert vars(got) == {**vars(want), "command": argv[0]}, argv
    return True


# the values an argv is built from: texts the types read, texts that fail, are
# empty, start with '-' or are '--', and the choices of each option
_TYPED = ("0", "3", "12", "007", " 4", "1,0", "1/2,1/2", "3/2, -1/2")
_BAD_VALUES = ("", "tensor", "x", "1,0,0", "1e3,0", "1/0,0", "-1", "-1,0", "-x", "-", "--", "--power")
_PIECES = ("exact",) * 12 + ("equals",) * 4 + ("abbreviation", "bare", "help", "stray")


@st.composite
def command_lines(draw):
    """An argv of one command: its required options and a few more, now and
    then one of them twice, each given exact or as an abbreviation, with '='
    or not, a value or none, and now and then -h, --help or a stray value,
    in any order."""
    command = draw(st.sampled_from(sorted(cli._table())))
    spec = cli._table()[command]
    actions = spec.actions

    def value(option):
        _, _, _, kind, choices = actions[option]
        good = sorted(choices) if choices else (_TYPED if kind else ("DIR", "a b", "0"))
        return draw(st.sampled_from(tuple(good) if draw(st.integers(0, 7)) else _BAD_VALUES))

    def piece(option):
        kind, flag = draw(st.sampled_from(_PIECES)), actions[option][1]
        if kind == "equals":
            return [f"{option}={value(option)}"]
        if kind == "help":
            return [draw(st.sampled_from(("-h", "--help")))]
        if kind == "stray":
            return [value(option)]
        given = option[: draw(st.integers(2, len(option) - 1))] if kind == "abbreviation" else option
        return [given] if flag or kind == "bare" else [given, value(option)]

    options = sorted(actions)
    required = [o for o in options if actions[o][0] in spec.required]
    more = draw(st.lists(st.sampled_from(options), max_size=4, unique=True))
    twice = draw(st.lists(st.sampled_from(options), max_size=1))
    given = list(dict.fromkeys(required + more)) + twice
    pieces = draw(st.permutations([piece(o) for o in given]))
    return [command, *itertools.chain.from_iterable(pieces)]


@given(command_lines())
@example(["decompose", "--module", "tensor", "--power", "3"])
@example(["decompose", "--module", "vector", "--power", "3", "--cache", "-x"])
@example(["decompose", "--module", "vector", "--power", "3", "--cache=--"])
@example(["decompose", "--power", "3"])
@example(["multiplicity", "--module", "vector", "--power", "3", "--weight", "1,0", "--extended="])
@example(["closed-form", "--kind", "fan", "--power", "3", "--weight", "1,0", "--diff-printed"])
@settings(max_examples=600, deadline=None)
def test_reader_reads_only_what_argparse_reads_the_same(argv):
    read_as_argparse(argv)


def test_recorded_options_equal_argparse_actions():
    # _read's table is recorded without argparse; for every option of every
    # command it holds what the table taken from argparse's Actions holds
    import argparse

    _, _, actions, exclusive = cli._build_parsers(argparse.ArgumentParser)
    want = cli._options(actions, exclusive)
    got = cli._table()
    assert list(got) == list(want) == list(cli._DISPATCH)
    for command, options in want.items():
        recorded = got[command]
        assert list(recorded.actions.items()) == list(options.actions.items()), command
        assert list(recorded.defaults.items()) == list(options.defaults.items()), command
        assert recorded.required == options.required and recorded.exclusive == options.exclusive
    # every option has one option string, the one _parse names in its error
    assert all(len(action.option_strings) == 1 for kept in actions.values() for action in kept)


def test_recorder_refuses_what_it_cannot_record():
    recorder = cli._Recorder()
    with pytest.raises(ValueError):
        recorder.add_argument("--count", action="count")
    with pytest.raises(TypeError):
        recorder.add_argument("--points", nargs="+")


def test_reader_reads_golden_argvs_as_argparse():
    argvs = [cli._attach_weight_values(argv) for argv in golden_argvs()]
    read = [argv for argv in argvs if read_as_argparse(argv)]
    # every golden argv of a help text or a usage error goes to argparse
    assert 0 < len(read) < len(argvs)
    assert not any("--help" in argv or "-h" in argv for argv in read)


def load_benchmark_run(monkeypatch):
    """benchmark/run.py as a module; it imports reference.py from its own directory."""
    monkeypatch.syspath_prepend(str(ROOT / "benchmark"))
    spec = importlib.util.spec_from_file_location("benchmark_run", ROOT / "benchmark" / "run.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_query_mix_traffic_is_read_without_argparse(monkeypatch):
    # the query-mix workload times the reader: none of its argvs may fall back,
    # and only the KNOWN_FAULT lines need the weight rewrite first
    bench = load_benchmark_run(monkeypatch)
    argvs = [argv for seed in (1, 2, 3) for r in range(50) for argv, _ in bench.query_round(seed, r)]
    assert len(argvs) == 3 * 50 * (7 * bench.PER_KIND + len(bench.KNOWN_FAULT))
    faults = [argv for argv in argvs if tuple(argv) in bench.KNOWN_FAULT]
    assert len(faults) == 3 * 50 * len(bench.KNOWN_FAULT)
    plain = [argv for argv in argvs if tuple(argv) not in bench.KNOWN_FAULT]
    assert [argv for argv in plain if _read(argv) is None] == []
    assert all(cli._attach_weight_values(argv) == argv for argv in plain)
    for argv in map(list, bench.KNOWN_FAULT):
        assert _read(argv) is None and _read(cli._attach_weight_values(argv)) is not None


def render_point(args, label, key, value) -> str:
    """A one-weight answer as _render prints it: its object is its one row."""
    obj = {label: getattr(args, label), "power": args.power, "weight": args.weight.text()}
    obj[key] = str(value)
    return cli._render(
        args.format, obj, tuple(obj), lambda o, _: o[key] + "\n", entries=lambda o: [o], quoted=2
    )


def test_point_answers_print_what_render_prints(monkeypatch):
    # every multiplicity and closed-form --weight query of query-mix, in every
    # format, prints the text _render gives for its object
    bench = load_benchmark_run(monkeypatch)
    rounds = [bench.query_round(seed, r) for seed in (1, 2, 3) for r in range(50)]
    points = [argv for queries in rounds for argv, _ in queries if "--weight" in " ".join(argv)]
    assert len(points) == 3 * 50 * (2 * bench.PER_KIND + len(bench.KNOWN_FAULT))
    for argv in points:
        if "--format" in argv:
            at = argv.index("--format")
            argv = argv[:at] + argv[at + 2 :]
        for fmt in ("json", "csv", "pretty"):
            line = [*argv, "--format", fmt]
            args = _parse(line)
            if args.command == "multiplicity":
                value = cli.m_extended(args.module, args.power, args.weight)
                want = render_point(args, "module", "multiplicity", value)
            else:
                value = CLOSED_FORMS[args.kind].validated(args.power, [(args.weight.d1, args.weight.d2)])[0]
                want = render_point(args, "kind", "coeff", value)
            assert run(line) == (0, want, ""), line


def test_memo_bound_is_a_mebibyte_of_characters():
    assert MEMO_CHARS == 1 << 20
    assert cli._ANSWERS.bound == MEMO_CHARS


def text_memo(bound):
    """An empty memo of answer texts, charged as the CLI's, under bound."""
    return BoundedLRU(bound, cli._ANSWERS.charge)


def held(memo):
    """The characters the memo's entries are charged: each text and its key."""
    return sum(len(text) + sum(map(len, key)) for key, text in memo.entries.items())


def test_memo_holds_at_most_its_bound_after_the_largest_answers():
    # the sizes of the largest answers: fan --power 40 and decompose vector
    # --power 100 in json, and one answer longer than the bound
    memo = text_memo(MEMO_CHARS)
    for key, size in ((("fan",), 550_000), (("decompose",), 230_000), (("singular",), 400_000)):
        memo.put(key, "x" * size)
        assert memo.charged == held(memo) <= MEMO_CHARS
    assert list(memo.entries) == [("decompose",), ("singular",)]  # the least recent one went
    memo.put(("huge",), "x" * (MEMO_CHARS + 1))
    assert ("huge",) not in memo.entries and list(memo.entries) == [("decompose",), ("singular",)]
    assert memo.get(("decompose",)) is not None
    memo.put(("fan",), "x" * 550_000)
    assert list(memo.entries) == [("decompose",), ("fan",)]  # a read counts as a use
    assert memo.charged == held(memo) == 780_000 + len("decompose") + len("fan")


def test_memo_charges_each_entry_its_key():
    memo = text_memo(100)
    memo.put(("fan", "--power", "2"), "x" * 50)
    assert memo.charged == 50 + 3 + 7 + 1
    memo.put(("k" * 40,), "y" * 61)  # the text fits the bound, text and key do not
    assert list(memo.entries) == [("fan", "--power", "2")] and memo.charged == 61
    memo.put(("k" * 30,), "y" * 10)  # 61 + 40 is over the bound: the first entry goes
    assert list(memo.entries) == [("k" * 30,)] and memo.charged == 40 == held(memo)


def test_an_entry_grown_through_add_is_evicted_last():
    # each value is a list charged its length; add charges the growth of the
    # entry just read, which is then the most recently used
    lru = BoundedLRU(10, lambda key, value: len(value))
    for key in "abc":
        lru.put(key, [0] * 3)
    grown = lru.get("a")
    grown += [0] * 5
    lru.add(5)  # 14 > 10: b and then c go, and a, though the largest, stays
    assert list(lru.entries) == ["a"] and lru.charged == 8
    grown += [0] * 3
    lru.add(3)  # a alone is charged more than the bound: it goes too
    assert not lru.entries and lru.charged == 0


def test_long_spellings_of_one_query_keep_the_memo_bounded():
    # --power 3, 03, 003 ...: each spelling is its own key, thousands of
    # characters long; together they are more than the bound
    argvs = [["decompose", "--module", "vector", "--power", "3".rjust(n, "0")] for n in range(3000, 3400)]
    want = run(argvs[0])
    assert sum(map(len, argvs[0])) > 3000 and want[0] == 0
    for argv in argvs:
        assert run(argv) == want
        assert cli._ANSWERS.charged == held(cli._ANSWERS) <= MEMO_CHARS
    assert 0 < len(cli._ANSWERS.entries) < len(argvs)  # the bound evicted the oldest
    assert tuple(argvs[-1]) in cli._ANSWERS.entries and tuple(argvs[0]) not in cli._ANSWERS.entries


def test_cli_memo_evicts_the_least_recent_answer(monkeypatch):
    first = ["decompose", "--module", "vector", "--power", "3"]
    second = ["fan", "--power", "2", "--format", "json"]
    texts = [run(argv)[1] for argv in (first, second)]
    charges = [len(text) + sum(map(len, argv)) for argv, text in zip((first, second), texts)]
    memo = text_memo(max(charges))
    monkeypatch.setattr(cli, "_ANSWERS", memo)
    for argv, text, charge in zip((first, second), texts, charges):
        assert run(argv) == (0, text, "")
        assert list(memo.entries.values()) == [text] and memo.charged == charge


def test_repeated_query_is_answered_before_parsing(monkeypatch):
    argv = ["singular", "--module", "vector", "--power", "2", "--format", "json"]
    want = run(argv)
    assert want[0] == 0 and list(cli._ANSWERS.entries) == [tuple(argv)]

    def fail(*_):
        raise AssertionError("parsed again")

    monkeypatch.setattr(cli, "_parse", fail)
    assert run(argv) == want


def test_repeated_query_prints_the_stored_text(monkeypatch):
    argv = ["decompose", "--module", "spinor", "--power", "3", "--format", "csv"]
    want = run(argv)
    assert want[0] == 0 and len(cli._ANSWERS.entries) == 1

    def fail(*_):
        raise RuntimeError("recomputed")

    monkeypatch.setattr(cli, "decomposition", fail)
    assert run(argv) == want
    assert run(["decompose", "--format", "json", "--power", "3", "--module", "spinor"])[0] == 1
    # the memo is keyed by the command line as given: another spelling of the
    # same query is a miss and is computed again
    assert run(["decompose", "--format", "csv", "--power", "3", "--module", "spinor"])[0] == 1


def test_other_spellings_of_a_query_print_the_same_text():
    first = run(["decompose", "--module", "spinor", "--power", "3", "--format", "csv"])
    for argv in (
        ["decompose", "--format", "csv", "--power", "3", "--module", "spinor"],
        ["decompose", "--module=spinor", "--power=03", "--format=csv"],
        ["decompose", "--mod", "spinor", "--pow", "3", "--form", "csv"],
    ):
        assert run(argv) == first and tuple(argv) in cli._ANSWERS.entries
    assert len(cli._ANSWERS.entries) == 4


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
        ["decompose", "--module", "tensor", "--power", "2"],
        ["verify", "--pmax", "3"],
    ],
)
def test_failed_answers_are_not_stored(argv):
    code, out, err = run(argv)
    assert code != 0 or (out.startswith("usage:") and not err)
    assert run(argv) == (code, out, err)  # recomputed, with the same code and stderr
    assert not cli._ANSWERS.entries


def test_answers_that_write_stderr_are_not_stored(monkeypatch):
    monkeypatch.setitem(cli._DISPATCH, "fan", lambda args: Answer(0, "text\n", "note\n"))
    assert run(["fan", "--power", "2"]) == (0, "text\n", "note\n")
    assert not cli._ANSWERS.entries


def test_answers_that_exit_nonzero_are_not_stored(monkeypatch):
    # a fit whose predictions disagree exits 1 with nothing on stderr
    monkeypatch.setitem(cli._DISPATCH, "fan", lambda args: Answer(1, "text\n"))
    for _ in range(2):
        assert run(["fan", "--power", "2"]) == (1, "text\n", "")
    assert not cli._ANSWERS.entries


@pytest.mark.parametrize(
    "argv",
    [
        ["multiplicity", "--module", "vector", "--power", "6", "--weight", "2,1"],
        ["multiplicity", "--module", "spinor", "--power", "3", "--weight", "-1/2,1/2", "--extended"],
        ["closed-form", "--kind", "vector", "--power", "3", "--weight", "1,0", "--format", "json"],
        ["multiplicity", "--module", "vector", "--power", "3", "--wei", "1,0"],
        ["multiplicity", "--module", "vector", "--power", "3", "--weight", "-1,0", "--extended"],
        ["closed-form", "--kind", "fan", "--power", "3", "--weight", "-1,0"],
    ],
)
def test_answers_at_one_weight_bypass_the_memo(argv):
    first = run(argv)
    assert first[0] == 0 and run(argv) == first
    assert not cli._ANSWERS.entries


def test_verify_bypasses_the_memo(monkeypatch):
    calls = []
    real = cli.run_suite
    monkeypatch.setattr(cli, "run_suite", lambda *a: calls.append(a) or real(*a))
    argv = ["verify", "--suite", "dimension-identity", "--pmax", "4", "--timings"]
    first, second = run(argv), run(argv)
    assert first[:2] == second[:2] and first[0] == 0 and first[2]
    assert len(calls) == 2 and not cli._ANSWERS.entries


@pytest.mark.parametrize("option", ["--cache", "--cach", "--ca"])
def test_cache_queries_read_their_file_in_any_spelling(option, tmp_path, monkeypatch):
    # no command line with --cache is kept, so every query reads its file;
    # the one text kept is keyed by the payload's digest
    loads = []
    real = cache.load
    monkeypatch.setattr(cache, "load", lambda *a: loads.append(a[1]) or real(*a))
    argv = ["singular", "--module", "spinor", "--power", "2", option, str(tmp_path)]
    first = run(argv)
    assert first[0] == 0 and run(argv) == first and run(argv) == first
    assert loads == ["singular-direct-spinor-2"] * 3
    assert [type(key[0]) for key in cli._ANSWERS.entries] == [bytes]


def test_cache_query_after_a_memo_answer_still_writes_its_file(tmp_path):
    argv = ["decompose", "--module", "vector", "--power", "4", "--format", "json"]
    plain = run(argv)
    assert run(argv) == plain and len(cli._ANSWERS.entries) == 1
    assert run(argv + ["--cache", str(tmp_path)]) == plain
    assert (tmp_path / "decompose-vector-4.json").is_file()
    # the --cache command line is not stored; its text is kept under the payload's digest
    assert [type(key[0]) for key in cli._ANSWERS.entries] == [str, bytes]


def cache_query(tmp_path, p=3, fmt="json"):
    """A decompose --cache query and the path of its cache file."""
    argv = ["decompose", "--module", "vector", "--power", str(p), "--format", fmt, "--cache", str(tmp_path)]
    return argv, tmp_path / f"decompose-vector-{p}.json"


def counted_decompositions(monkeypatch):
    """The (module, p) of each decomposition the CLI computes from now on."""
    calls = []
    real = cli.decomposition
    monkeypatch.setattr(cli, "decomposition", lambda *a: calls.append(a) or real(*a))
    return calls


@pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
def test_a_cache_file_replaced_by_another_payload_prints_the_new_answer(tmp_path, fmt):
    argv, path = cache_query(tmp_path, 3, fmt)
    other, other_path = cache_query(tmp_path, 2, fmt)
    first = run(argv)
    assert run(argv) == first and len(cli._ANSWERS.entries) == 1  # a hit, printed from the memo
    want = run(other)
    assert want[0] == 0 and want != first
    os.replace(other_path, path)  # a valid file, with another digest
    assert run(argv) == want


def test_a_cache_file_corrupted_after_a_kept_hit_is_recomputed(tmp_path, monkeypatch):
    argv, path = cache_query(tmp_path)
    first = run(argv)
    assert run(argv) == first and len(cli._ANSWERS.entries) == 1
    stored = path.read_bytes()
    path.write_bytes(stored.replace(b'"power":3', b'"power":4'))  # the digest now stale
    calls = counted_decompositions(monkeypatch)
    assert run(argv) == first
    assert calls == [("vector", 3)] and path.read_bytes() == stored


def test_a_cache_file_deleted_after_a_kept_hit_is_stored_again(tmp_path, monkeypatch):
    argv, path = cache_query(tmp_path)
    first = run(argv)
    assert run(argv) == first and len(cli._ANSWERS.entries) == 1
    stored = path.read_bytes()
    path.unlink()
    calls = counted_decompositions(monkeypatch)
    assert run(argv) == first
    assert calls == [("vector", 3)] and path.read_bytes() == stored


def test_a_command_line_of_a_kept_keys_parts_is_still_parsed(tmp_path):
    argv, path = cache_query(tmp_path)
    run(argv)
    answer = run(argv)
    [(digest, key, fmt)] = cli._ANSWERS.entries
    assert (key, fmt) == ("decompose-vector-3", "json") and isinstance(digest, bytes)
    for parts in ([digest.decode(), key, fmt], ["decompose", fmt, answer[1]], [key, fmt, digest.decode()]):
        code, out, err = run(parts)
        assert (code, out) == (2, "") and err.startswith("usage:"), parts
        assert list(cli._ANSWERS.entries) == [(digest, key, fmt)]


@pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
@pytest.mark.parametrize(
    "query",
    [
        ["decompose", "--module", "spinor", "--power", "5"],
        ["singular", "--module", "vector", "--power", "3"],
        ["singular", "--module", "spinor", "--power", "3", "--projected"],
    ],
)
def test_cache_hits_print_the_bytes_of_a_run_without_cache(tmp_path, monkeypatch, query, fmt):
    argv = query + ["--format", fmt]
    want = run(argv)
    assert want[0] == 0
    cached = argv + ["--cache", str(tmp_path)]
    assert run(cached) == want  # a miss, computed, stored and kept
    assert sum(isinstance(key[0], bytes) for key in cli._ANSWERS.entries) == 1

    def fail(*_, **__):
        raise AssertionError("decoded or rendered again")

    monkeypatch.setattr(cli, "_render", fail)
    monkeypatch.setattr(cache.json, "loads", fail)
    assert run(cached) == want  # the first hit: the digest the miss stored, printed from the memo
    assert run(cached) == want


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


def argparse_loaded(*argvs):
    """For each argv in turn, in one new interpreter: its exit code and
    whether argparse is loaded after it."""
    script = f"""
import contextlib, io, sys
from b2tensor import cli
for argv in {[list(argv) for argv in argvs]!r}:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    print(code, "argparse" in sys.modules)
"""
    words = fresh_python(script)
    return list(zip(words[::2], words[1::2]))


def test_plain_command_lines_never_import_argparse(tmp_path):
    cache = ["--cache", str(tmp_path)]
    plain = (
        ["verify", "--pmax", "4", "--format", "json"],
        ["multiplicity", "--module", "vector", "--power", "4", "--weight", "-1,0", "--extended"],
        ["decompose", "--module", "vector", "--power", "2", *cache],  # a miss, which stores
        ["decompose", "--module", "vector", "--power", "2", *cache],  # a hit
    )
    assert argparse_loaded(*plain) == [("0", "False")] * 4
    # what a plain line is not goes to argparse, which is imported then;
    # the bytes of these answers are pinned by the golden digests
    assert argparse_loaded(["verify", "--help"]) == [("0", "True")]
    assert argparse_loaded(["verify", "--pma", "4"]) == [("0", "True")]
    assert argparse_loaded(["decompose", "--module", "tensor", "--power", "2"]) == [("2", "True")]


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
