"""Verification suites, CLI surface, cache, diagram export."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from b2tensor import Weight, closed_forms as cf, fan_with_zero, m_extended, recur_multiplicity
from b2tensor import LatticeSeries, decomposition, dim_irrep, singular_power_direct, singular_power_projected
from b2tensor import cache
from b2tensor.cache import canonical_json, load, store
from b2tensor import cli
from b2tensor.cli import LIMITS, _diagonal_values, _parsers, build_parser, main
from conftest import text_by_fractions
from b2tensor.diagram import to_dot
from b2tensor.fans import CLOSED_FORMS, ClosedForm
from b2tensor.series import ChamberChain
from b2tensor.verify import SUITES, run_suite


def run_cli(capsys, *argv):
    """(exit code, stdout, stderr) of one query, argparse's usage errors included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_suite_registry_is_complete():
    names = [fn.__name__ for checks in SUITES.values() for fn in checks]
    assert len(names) == len(set(names))


def test_suite_all_passes_at_small_pmax():
    report = run_suite("all", 6)
    assert report.ok
    statuses = {c.name: c.status for c in report.checks}
    assert statuses["four-routes-agree"] == "pass"
    assert statuses["diagonal-families-s4-6"] == "documented-discrepancy"
    assert statuses["printed-formula-diffs"] == "documented-discrepancy"
    assert statuses["fan-line-structure"] == "documented-discrepancy"
    assert all(s != "fail" for s in statuses.values())


def test_unknown_suite_raises():
    with pytest.raises(KeyError):
        run_suite("nope", 4)


def test_cli_decompose_json(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--module", "spinor", "--power", "4", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["module"] == "spinor" and obj["power"] == 4
    terms = {t["weight"]: int(t["mult"]) for t in obj["terms"]}
    assert terms == {"0,0": 3, "1,0": 5, "1,1": 6, "2,0": 2, "2,1": 3, "2,2": 1}
    assert sum(int(t["mult"]) * int(t["dim"]) for t in obj["terms"]) == 4**4


def test_cli_decompose_csv(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--module", "vector", "--power", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "weight,mult,dim"
    assert len(lines) == 4


def test_cli_multiplicity(capsys):
    code, out, _ = run_cli(capsys, "multiplicity", "--module", "vector", "--power", "12", "--weight", "10,1")
    assert code == 0 and out.strip() == "55"


def test_cli_multiplicity_requires_extended_for_non_dominant(capsys):
    code, _, err = run_cli(capsys, "multiplicity", "--module", "vector", "--power", "4", "--weight", "0,2")
    assert code == 2 and "extended" in err
    code, out, _ = run_cli(
        capsys, "multiplicity", "--module", "vector", "--power", "4", "--weight", "0,2", "--extended"
    )
    assert code == 0 and out.strip() == "-6"


def usage_error(capsys, *argv) -> str:
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    return capsys.readouterr().err.splitlines()[-1]


@pytest.mark.parametrize("text,reason", [
    ("zzz", "weight must be 'v1,v2', got 'zzz'"),
    ("1/3,0", "(1/3,0) is not a half-integer point"),
    ("1/2,0", "(1,0)/2 is off the weight lattice"),
    ("1/0,0", "1/0,0 has a zero denominator"),
    # refused before it is read, so no 100 000-digit integer is built
    ("9e99999,0", "weight '9e99999,0' has an exponent; write it without e or E"),
])
def test_cli_bad_weight_names_the_problem(capsys, text, reason):
    err = usage_error(capsys, "multiplicity", "--module", "vector", "--power", "2", "--weight", text)
    assert err == f"b2tensor multiplicity: error: argument --weight: {reason}"


@pytest.mark.parametrize("text,reason", [("-3", "-3 is negative"), ("x", "'x' is not an integer")])
def test_cli_bad_size_names_the_problem(capsys, text, reason):
    err = usage_error(capsys, "fan", "--power", text)
    assert err == f"b2tensor fan: error: argument --power: {reason}"
    err = usage_error(capsys, "diagram", "--module", "vector", "--pmax", text)
    assert err == f"b2tensor diagram: error: argument --pmax: {reason}"


def test_cli_closed_form_takes_a_weight_or_the_diff_not_both(capsys):
    err = usage_error(
        capsys, "closed-form", "--kind", "vector", "--power", "2", "--weight", "0,0", "--diff-printed"
    )
    assert err == "b2tensor closed-form: error: argument --diff-printed: not allowed with argument --weight"


def test_cli_fan_and_closed_form_agree(capsys):
    code, fan_out, _ = run_cli(capsys, "fan", "--power", "3", "--format", "json")
    assert code == 0
    code, cf_out, _ = run_cli(capsys, "closed-form", "--kind", "fan", "--power", "3", "--format", "json")
    assert code == 0
    fan = {e["weight"]: int(e["coeff"]) for e in json.loads(fan_out)}
    closed = {e["weight"]: int(e["coeff"]) for e in json.loads(cf_out)}
    for w, c in fan.items():
        assert closed.get(w, 0) == c


def test_cli_closed_form_single_point(capsys):
    code, out, _ = run_cli(
        capsys, "closed-form", "--kind", "fan", "--power", "2", "--weight", "0,0"
    )
    assert code == 0 and out.strip() == "-1"


def test_cli_closed_form_single_point_csv(capsys):
    argv = ("closed-form", "--kind", "vector", "--power", "3", "--weight", "1,0")
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    assert out == 'kind,power,weight,coeff\nvector,3,"1,0",-3\n'
    _, pretty, _ = run_cli(capsys, *argv)
    assert pretty == "-3\n"


@pytest.mark.parametrize("value", ["-3,0", "-1,0", "-1,3", "-.5,.5", "-1/2,1/2", "-1.5,.5"])
@pytest.mark.parametrize(
    "command",
    [
        ["multiplicity", "--module", "vector", "--power", "4", "--extended"],
        ["closed-form", "--kind", "vector", "--power", "3"],
        ["closed-form", "--kind", "fan", "--power", "2"],
    ],
)
def test_cli_weight_with_negative_first_coordinate(capsys, command, value):
    # a separate value with a leading minus must read as the weight, as the '=' form
    # does, after --weight and after each abbreviation argparse resolves to it
    code, out, err = run_cli(capsys, *command, f"--weight={value}")
    for option in ("--weight", "--weigh", "--weig", "--wei", "--we", "--w"):
        assert run_cli(capsys, *command, option, value) == (code, out, err), option
    assert code == 0, err
    want = {("multiplicity", "-3,0"): "-3", ("multiplicity", "-1,0"): "0"}.get((command[0], value))
    if want is not None:
        assert out.strip() == want
    w = Weight.parse(value)
    if command[0] == "multiplicity":
        assert int(out) == m_extended("vector", 4, w)
    elif command[2] == "vector":
        assert int(out) == singular_power_projected("vector", 3).coeff(w)
    else:
        assert int(out) == fan_with_zero(2).coeff(w)


def test_cli_parser_is_built_once_and_reused(capsys):
    assert _parsers() is _parsers()
    assert build_parser() is not _parsers()[0]  # the public builder still gives a fresh parser
    for _ in range(2):
        code, out, _ = run_cli(capsys, "multiplicity", "--module", "vector", "--power", "12", "--weight", "10,1")
        assert code == 0 and out.strip() == "55"


def test_cli_fit_samples_follow_the_recursion():
    recs = recur_multiplicity("vector", 15)
    assert _diagonal_values(2, 1, 15) == [recs[p](cf.diagonal_weight(2, 1, p)) for p in range(16)]


def test_cli_closed_form_diff_rows(capsys):
    code, out, _ = run_cli(
        capsys, "closed-form", "--kind", "vector", "--power", "1", "--diff-printed", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 8
    assert all(r["printed"] != r["direct"] for r in rows)


def test_cli_singular_projected_vs_direct(capsys):
    code, a, _ = run_cli(capsys, "singular", "--module", "vector", "--power", "2", "--format", "json")
    assert code == 0
    code, b, _ = run_cli(
        capsys, "singular", "--module", "vector", "--power", "2", "--projected", "--format", "json"
    )
    assert code == 0
    assert json.loads(a) != json.loads(b)


def test_cli_fit(capsys):
    code, out, _ = run_cli(capsys, "fit", "--s", "2", "--t", "1", "--pmax", "8", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["degree"] == 2
    assert obj["coefficients"] == ["1", "-3/2", "1/2"]
    assert all(r["fit"] == r["recurrence"] for r in obj["predictions"])


def test_cli_verify_exit_codes_and_determinism(capsys):
    code, out1, _ = run_cli(capsys, "verify", "--suite", "dimension-identity", "--pmax", "6", "--format", "json")
    assert code == 0
    code, out2, _ = run_cli(capsys, "verify", "--suite", "dimension-identity", "--pmax", "6", "--format", "json")
    assert code == 0
    assert out1 == out2
    obj = json.loads(out1)
    assert obj["fail"] == 0 and obj["pass"] >= 1



def test_verify_timings_go_to_stderr_only(capsys):
    argv = ("verify", "--suite", "all", "--pmax", "6", "--format", "json")
    code, plain, plain_err = run_cli(capsys, *argv)
    timed_code, timed, err = run_cli(capsys, *argv, "--timings")
    assert code == timed_code == 0
    assert timed == plain and plain_err == ""
    names = [c["name"] for c in json.loads(plain)["checks"]]
    lines = [line.split() for line in err.splitlines()]
    assert [line[0] for line in lines] == names
    for _, seconds, unit, points, label in lines:
        assert float(seconds) >= 0 and unit == "s" and int(points) > 0 and label == "points"


def _gate_pmax(path: Path) -> int:
    return int(path.stem.removeprefix("verify_all_pmax"))


# tests/data/verify_all_pmax<N>.json is the committed output of verify --suite all
# --format json --pmax N; every such file is a gate, so one added later is run too
VERIFY_GATES = sorted((Path(__file__).parent / "data").glob("verify_all_pmax*.json"), key=_gate_pmax)


@pytest.mark.parametrize("gate", VERIFY_GATES, ids=lambda path: path.name)
def test_verify_all_output_is_byte_identical_to_reference(capsys, gate):
    # any change to a route, a closed form or the formatting shows up here
    pmax = _gate_pmax(gate)
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "all", "--format", "json", "--pmax", str(pmax)
    )
    assert code == 0
    assert out.encode("utf-8") == gate.read_bytes()


@pytest.mark.parametrize("command,extra", [
    ("decompose", ["--module", "vector"]),
    ("multiplicity", ["--module", "vector", "--weight", "1,0"]),
    ("fan", []),
    ("singular", ["--module", "vector", "--projected"]),
    ("closed-form", ["--kind", "spinor", "--diff-printed"]),
])
def test_cli_power_limit_fails_before_computing(capsys, monkeypatch, command, extra):
    def no_products(*_):
        raise AssertionError("a product or a chain power was computed")

    monkeypatch.setattr(LatticeSeries, "__mul__", no_products)
    monkeypatch.setattr(ChamberChain, "chamber", no_products)
    option, _, limit = LIMITS[command]
    assert option == "power"
    code, out, err = run_cli(capsys, command, *extra, "--power", str(limit + 1))
    assert code == 1 and out == ""
    assert err == f"error: --power {limit + 1} is above the limit {limit} of {command}\n"
    code, _, _ = run_cli(capsys, command, *extra, "--power", "1200")
    assert code == 1


def test_cli_every_command_has_one_limit():
    assert set(LIMITS) == set(cli._DISPATCH)
    assert {option for option, _, _ in LIMITS.values()} == {"power", "pmax"}


@pytest.mark.parametrize("command", sorted(c for c, limit in LIMITS.items() if limit[0] == "power"))
def test_cli_power_limits_are_stated_and_above_the_benchmark(capsys, command):
    _, low, high = LIMITS[command]
    with pytest.raises(SystemExit):
        main([command, "--help"])
    text = capsys.readouterr().out
    assert f"at most {high}" in text
    if low:
        assert f"at least {low} and at most" in text
    assert high >= 12  # the largest p of the query-mix benchmark


@pytest.mark.parametrize("command,extra,first_step", [
    ("verify", ["--suite", "all"], "run_suite"),
    ("fit", ["--s", "2", "--t", "1"], "_diagonal_values"),
    ("diagram", ["--module", "vector"], "to_dot"),
])
def test_cli_pmax_limit_fails_before_computing(capsys, monkeypatch, command, extra, first_step):
    def nothing_computed(*_):
        raise AssertionError(f"{first_step} was called")

    monkeypatch.setattr(cli, first_step, nothing_computed)
    _, _, limit = LIMITS[command]
    code, out, err = run_cli(capsys, command, *extra, "--pmax", str(limit + 1))
    assert code == 1 and out == ""
    assert err == f"error: --pmax {limit + 1} is above the limit {limit} of {command}\n"
    code, _, _ = run_cli(capsys, command, *extra, "--pmax", "200")
    assert code == 1


# the largest --pmax in use: README's verify example, the benchmark's fit and diagram queries
@pytest.mark.parametrize("command,in_use", [("verify", 18), ("fit", 10), ("diagram", 5)])
def test_cli_pmax_limits_are_stated_and_cover_current_use(capsys, command, in_use):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    text = capsys.readouterr().out
    option, low, high = LIMITS[command]
    assert option == "pmax"
    assert f"at most {high}" in text
    assert high >= in_use
    if low:
        assert f"at least {low} and at most" in text


# each command whose floor is above 0, that floor, and its query without the size
# option: below pmax 4 the fit window has too few samples (verify reported
# spurious failures and fit an internal message), and the fan of p factors is
# R^(p-1), so fan and closed-form start at 1
FLOORS = [
    ("verify", 4, ["--suite", "all"]),
    ("fit", 4, ["--s", "2", "--t", "1"]),
    ("fan", 1, []),
    *(
        ("closed-form", 1, ["--kind", kind, *weight])
        for kind in CLOSED_FORMS
        for weight in ([], ["--weight", "0,0"])
    ),
]


def test_cli_lower_limit_cases_cover_every_floor():
    assert {command for command, (_, low, _) in LIMITS.items() if low} == {c for c, _, _ in FLOORS}


@pytest.mark.parametrize("command,floor,extra", FLOORS, ids=[" ".join([c, *x]) for c, _, x in FLOORS])
def test_cli_lower_limit_fails_before_computing(capsys, monkeypatch, command, floor, extra):
    def nothing_computed(*_):
        raise AssertionError("a computation was started")

    for step in ("run_suite", "_diagonal_values", "fan_with_zero", "diff_report", "closed_form_window"):
        monkeypatch.setattr(cli, step, nothing_computed)
    for kind in CLOSED_FORMS:
        monkeypatch.setitem(CLOSED_FORMS, kind, ClosedForm(*[nothing_computed] * 2))
    option, low, _ = LIMITS[command]
    assert low == floor
    for value in range(low):
        code, out, err = run_cli(capsys, command, *extra, f"--{option}", str(value))
        assert code == 1 and out == ""
        assert err == f"error: --{option} {value} is below the limit {low} of {command}\n"


def test_cli_pmax_lower_limit_is_the_first_that_works(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "all", "--pmax", "4", "--format", "json")
    assert code == 0 and err == ""
    # the s=1, t=0 family is constant, so the three samples p=6..8 certify it
    code, out, err = run_cli(capsys, "fit", "--s", "1", "--t", "0", "--pmax", "4")
    assert code == 0 and err == ""
    assert "degree 0, coefficients (ascending): 1" in out


def test_cli_diagram(capsys):
    code, out, _ = run_cli(capsys, "diagram", "--module", "spinor", "--pmax", "2")
    assert code == 0
    assert out.startswith('digraph "spinor_powers"')
    assert 'p1_1_1 [label="1/2,1/2\\nx1"]' in out
    assert "p1_1_1 -> p2_2_2;" in out


def test_growth_edges_count_paths():
    # paths from the root to a level-2 node count its multiplicity
    edges = [line for line in to_dot("spinor", 2).splitlines() if " -> " in line]
    level2 = [e for e in edges if " -> p2_" in e]
    assert len(level2) == 3  # (1/2,1/2) x spinor has three dominant summands


def test_diagram_respects_bounds():
    dot = to_dot("vector", 1)
    assert "p0_0_0" in dot and "p1_2_0" in dot and "p2_" not in dot


def _hit(payload):
    """What load returns for payload: it and its canonical text."""
    return payload, canonical_json(payload)


def _well_formed(data: bytes, digest_of: bytes | None = None) -> bytes:
    """A cache file as store lays it out, holding the payload bytes data and
    the sha256 of digest_of (default data)."""
    digest = hashlib.sha256(data if digest_of is None else digest_of).hexdigest().encode()
    return b'{"payload":' + data + b',"schema":1,"sha256":"' + digest + b'"}\n'


def test_cache_round_trip(tmp_path):
    payload = {"a": [1, 2, 3], "b": "x"}
    store(tmp_path, "k", canonical_json(payload))
    assert load(tmp_path, "k") == _hit(payload)


def test_cache_rejects_corruption(tmp_path):
    path = store(tmp_path, "k", canonical_json({"v": 1}))
    assert path.read_bytes() == _well_formed(b'{"v":1}')
    path.write_bytes(path.read_bytes().replace(b'{"v":1}', b'{"v":2}'))  # digest now stale
    assert path.read_bytes() == _well_formed(b'{"v":2}', digest_of=b'{"v":1}')
    assert load(tmp_path, "k") is None
    store(tmp_path, "k", canonical_json({"v": 3}))
    assert load(tmp_path, "k") == _hit({"v": 3})


def test_cache_load_asks_known_only_after_every_check(tmp_path):
    # known gets the digest of a file that passed its checks; what it holds
    # is returned without decoding, and None from it decodes the payload
    path = store(tmp_path, "k", canonical_json({"v": 1}))
    digest = hashlib.sha256(b'{"v":1}').hexdigest().encode()
    asked = []

    def known(d):
        asked.append(d)
        return "text" if len(asked) == 1 else None

    assert load(tmp_path, "k", known) == ("text", None)
    assert load(tmp_path, "k", known) == _hit({"v": 1})
    assert asked == [digest, digest]
    path.write_bytes(path.read_bytes().replace(b'{"v":1}', b'{"v":2}'))  # digest now stale
    assert load(tmp_path, "k", known) is None and len(asked) == 2


def test_cache_schema_gate(tmp_path):
    # the file as stored but for its schema: a SCHEMA bump makes every older file a miss
    path = store(tmp_path, "k", canonical_json(7))
    path.write_bytes(path.read_bytes().replace(b'"schema":1,', b'"schema":99,'))
    assert load(tmp_path, "k") is None


def test_cache_file_is_canonical(tmp_path):
    store(tmp_path, "k1", canonical_json({"b": 1, "a": 2}))
    store(tmp_path, "k2", canonical_json({"a": 2, "b": 1}))
    assert (tmp_path / "k1.json").read_bytes() == (tmp_path / "k2.json").read_bytes()


def test_cli_decompose_with_cache(tmp_path, capsys):
    argv = ["decompose", "--module", "vector", "--power", "5", "--cache", str(tmp_path), "--format", "json"]
    code, out1, _ = run_cli(capsys, *argv)
    assert code == 0
    assert (tmp_path / "decompose-vector-5.json").is_file()
    code, out2, _ = run_cli(capsys, *argv)
    assert code == 0 and out1 == out2


@pytest.mark.parametrize("command", ["decompose", "singular"])
def test_cli_unusable_cache_path_is_an_error(tmp_path, command):
    # a directory below a regular file cannot be made: one error line, no traceback
    blocker = tmp_path / "file"
    blocker.write_text("")
    argv = [sys.executable, "-m", "b2tensor", command, "--module", "vector", "--power", "2"]
    argv += ["--cache", str(blocker / "sub")]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    child = subprocess.run(argv, capture_output=True, text=True, timeout=120, env=env)
    assert (child.returncode, child.stdout) == (1, "")
    assert child.stderr.startswith("error: ")
    assert "Traceback" not in child.stderr


@pytest.mark.parametrize("command", ["decompose", "singular"])
@pytest.mark.parametrize(
    "cache,message",
    [
        (["--cache=--"], "argument --cache: expected one argument"),
        (["--cache="], "argument --cache: the directory name is empty"),
        (["--cache", ""], "argument --cache: the directory name is empty"),
    ],
)
def test_cli_cache_without_a_directory_is_a_usage_error(tmp_path, monkeypatch, capsys, command, cache, message):
    # argparse stores [] for an '=' text of '--', and an empty name would
    # write the cache file into the working directory
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, command, "--module", "vector", "--power", "2", *cache)
    assert (code, out) == (2, "")
    assert err.endswith(f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "--module", "vector", "--power=--"],
        ["decompose", "--module=--", "--power", "2"],
        ["multiplicity", "--module", "vector", "--power", "2", "--weight", "0,0", "--format=--"],
        ["closed-form", "--kind", "fan", "--power", "2", "--weight=--"],
        ["fit", "--s=--", "--t", "0"],
    ],
)
def test_cli_option_given_an_equals_dashdash_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    option = next(a for a in argv if a.endswith("=--"))[:-3]
    assert (code, out) == (2, "")
    assert err.endswith(f"error: argument {option}: expected one argument\n")


def test_cache_store_leaves_no_temporary_files(tmp_path):
    store(tmp_path, "k", canonical_json({"v": 1}))
    store(tmp_path, "k", canonical_json({"v": 2}))
    assert [p.name for p in tmp_path.iterdir()] == ["k.json"]
    assert load(tmp_path, "k") == _hit({"v": 2})


class _FailingFile:
    """A text file whose write stores half of its text, then fails."""

    def __init__(self, f):
        self._f = f

    def write(self, text):
        self._f.write(text[: len(text) // 2])
        self._f.flush()
        raise OSError(28, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()


@pytest.mark.parametrize("existing", [None, {"v": 1}])
def test_cache_store_failing_mid_write_leaves_no_partial_file(tmp_path, monkeypatch, existing):
    if existing is not None:
        store(tmp_path, "k", canonical_json(existing))
    before = sorted(p.name for p in tmp_path.iterdir())
    monkeypatch.setattr(cache, "open", lambda *a, **kw: _FailingFile(open(*a, **kw)), raising=False)
    with pytest.raises(OSError):
        store(tmp_path, "k", canonical_json({"v": 2, "pad": "x" * 10000}))
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    assert load(tmp_path, "k") == (None if existing is None else _hit(existing))


def test_cache_store_failing_replace_leaves_no_temporary_file(tmp_path, monkeypatch):
    def fail(src, dst):
        raise OSError(13, "Permission denied")

    monkeypatch.setattr(cache.os, "replace", fail)
    with pytest.raises(OSError):
        store(tmp_path, "k", canonical_json({"v": 1}))
    assert list(tmp_path.iterdir()) == []


_JSON_LEAVES = st.none() | st.booleans() | st.integers(-(10**60), 10**60) | st.text()
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)


@given(st.recursive(_JSON_LEAVES | st.floats(), lambda inner: _JSON_VALUES | inner))
@settings(max_examples=200)
def test_canonical_json_is_sorted_compact_json_dumps(value):
    assert canonical_json(value) == json.dumps(value, sort_keys=True, separators=(",", ":"))


# a payload and the bytes store writes for it under SCHEMA 1
_PAYLOAD = {"terms": [{"weight": "1/2,1/2", "mult": "3"}], "power": 3, "note": "\u00e9"}
_STORED = (
    b'{"payload":{"note":"\\u00e9","power":3,"terms":[{"mult":"3","weight":"1/2,1/2"}]},'
    b'"schema":1,"sha256":"d3a739bca72f74b6037f782959ece47e9b3086a80664a7430fbb7773adb2456d"}\n'
)


def _schema_1_file(payload) -> bytes:
    """A cache file as SCHEMA 1 first wrote it: the canonical JSON of the whole body."""
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True, separators=(",", ":")).encode())
    body = {"schema": 1, "sha256": digest.hexdigest(), "payload": payload}
    return (json.dumps(body, sort_keys=True, separators=(",", ":")) + "\n").encode()


def test_cache_store_writes_the_schema_1_bytes(tmp_path):
    assert store(tmp_path, "k", canonical_json(_PAYLOAD)).read_bytes() == _STORED == _schema_1_file(_PAYLOAD)


@given(_JSON_VALUES)
@settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cache_loads_files_written_as_schema_1_first_wrote_them(tmp_path, payload):
    (tmp_path / "k.json").write_bytes(_schema_1_file(payload))
    assert load(tmp_path, "k") == _hit(payload)


@pytest.mark.parametrize(
    "change",
    [
        lambda b: b[:-1],
        lambda b: b + b"\n",
        lambda b: b + b" ",
        lambda b: b[:-67] + b[-67:-3].upper() + b[-3:],
    ],
    ids=["truncated", "trailing-newline", "trailing-space", "upper-case-digest"],
)
def test_cache_file_not_as_store_writes_it_is_a_miss(tmp_path, change):
    path = store(tmp_path, "k", canonical_json(_PAYLOAD))
    assert change(_STORED) != _STORED
    path.write_bytes(change(_STORED))
    assert load(tmp_path, "k") is None


# the sha256 of the payload each of these queries stores under cache.SCHEMA
_SCHEMA_PINS = {
    "decompose-vector-3": "4ba26e8469519736903becdcf352c203f64d9889941881934d37e26103ffb1c0",
    "decompose-spinor-3": "5464f15e70c051d0bc3f239eccd1b36335a995b2e6307126bd3d05a114bc2d38",
    "singular-direct-vector-2": "f1a6935be36949527bbd98c2051a681429b0739f8d806561990a981b1200ff7c",
    "singular-projected-vector-2": "d0cdb6af4f799e4b8458c17c242ad958fc8aed1473d87d34df75b25df54f4147",
}


def test_cache_schema_pins_the_stored_payloads(tmp_path, capsys):
    queries = [
        ["decompose", "--module", "vector", "--power", "3"],
        ["decompose", "--module", "spinor", "--power", "3"],
        ["singular", "--module", "vector", "--power", "2"],
        ["singular", "--module", "vector", "--power", "2", "--projected"],
    ]
    for argv in queries:
        assert run_cli(capsys, *argv, "--cache", str(tmp_path))[0] == 0
    digests = {
        key: json.loads((tmp_path / f"{key}.json").read_text())["sha256"] for key in _SCHEMA_PINS
    }
    assert (cache.SCHEMA, digests) == (1, _SCHEMA_PINS), (
        "a stored payload changed: bump cache.SCHEMA, so that every file written "
        "before is a miss, and pin the new SCHEMA and digests here"
    )


# --- printed output: payloads as stored, against the route that parsed them back


def _reference_series_text(series: LatticeSeries, fmt: str) -> str:
    """A series printed through its payload parsed back with Fractions and rendered again."""
    payload = [{"weight": text_by_fractions(w), "coeff": str(c)} for w, c in series.items()]
    items = LatticeSeries(
        {Weight.parse(e["weight"]): int(e["coeff"]) for e in payload}
    ).items()
    if fmt == "json":
        return canonical_json([{"weight": text_by_fractions(w), "coeff": str(c)} for w, c in items]) + "\n"
    if fmt == "csv":
        return "weight,coeff\n" + "".join(f'"{text_by_fractions(w)}",{c}\n' for w, c in items)
    return "".join(f"{text_by_fractions(w):>12}  {c}\n" for w, c in items)


def _reference_decomposition_text(module: str, p: int, fmt: str) -> str:
    """A decomposition printed through its payload parsed back with Fractions and rendered again."""
    terms = [
        {"weight": text_by_fractions(w), "mult": str(m)} for w, m in decomposition(module, p).multiplicities
    ]
    items = sorted((Weight.parse(t["weight"]), int(t["mult"])) for t in terms)
    rows = [
        {"weight": text_by_fractions(w), "mult": str(m), "dim": str(dim_irrep(w))} for w, m in items
    ]
    if fmt == "json":
        return canonical_json({"module": module, "power": p, "terms": rows}) + "\n"
    if fmt == "csv":
        return "weight,mult,dim\n" + "".join('"{weight}",{mult},{dim}\n'.format(**t) for t in rows)
    lines = [f"{module}^(x{p}) ="]
    lines += [f'  {t["mult"]:>8} x L({t["weight"]})  dim {t["dim"]}' for t in rows]
    lines.append(f"total dimension {sum(m * dim_irrep(w) for w, m in items)}")
    return "\n".join(lines) + "\n"


def _command(kind: str, module: str, p: int, fmt: str):
    """argv, cache key and reference text of a decompose or singular query."""
    if kind == "decompose":
        argv = ["decompose", "--module", module]
        return argv, f"decompose-{module}-{p}", _reference_decomposition_text(module, p, fmt)
    projected = kind == "singular-projected"
    argv = ["singular", "--module", module] + ["--projected"] * projected
    series = (singular_power_projected if projected else singular_power_direct)(module, p)
    which = "projected" if projected else "direct"
    return argv, f"singular-{which}-{module}-{p}", _reference_series_text(series, fmt)


@pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
@pytest.mark.parametrize("module", ["vector", "spinor"])
@pytest.mark.parametrize("kind", ["decompose", "singular-direct", "singular-projected"])
def test_cli_prints_payloads_as_the_parsed_route_did(tmp_path, capsys, kind, module, fmt):
    for p in range(9):
        argv, key, want = _command(kind, module, p, fmt)
        argv += ["--power", str(p), "--format", fmt]
        assert run_cli(capsys, *argv) == (0, want, "")
        assert not (tmp_path / f"{key}.json").exists()
        assert run_cli(capsys, *argv, "--cache", str(tmp_path)) == (0, want, ""), "cache miss"
        assert (tmp_path / f"{key}.json").is_file()
        assert run_cli(capsys, *argv, "--cache", str(tmp_path)) == (0, want, ""), "cache hit"


@pytest.mark.parametrize("kind", ["decompose", "singular-projected"])
def test_cli_recomputes_a_cache_file_with_a_stale_digest(tmp_path, capsys, kind):
    argv, key, want = _command(kind, "vector", 3, "json")
    argv += ["--power", "3", "--format", "json", "--cache", str(tmp_path)]
    path = store(tmp_path, key, want[:-1])
    assert path.read_bytes() == _well_formed(want[:-1].encode())
    other = _command(kind, "vector", 2, "json")[2][:-1]  # the payload at p = 2
    path.write_bytes(path.read_bytes().replace(want[:-1].encode(), other.encode()))  # digest now stale
    assert path.read_bytes() == _well_formed(other.encode(), digest_of=want[:-1].encode())
    assert load(tmp_path, key) is None
    assert run_cli(capsys, *argv) == (0, want, "")
    assert load(tmp_path, key) == (json.loads(want), want[:-1])  # rewritten with a good digest


def test_cli_rewrites_a_cache_file_another_serializer_wrote(tmp_path, capsys):
    argv, key, want = _command("decompose", "vector", 3, "json")
    argv += ["--power", "3", "--format", "json", "--cache", str(tmp_path)]
    assert run_cli(capsys, *argv) == (0, want, "")
    path = tmp_path / f"{key}.json"
    stored = path.read_bytes()
    path.write_text(json.dumps(json.loads(stored)))  # same payload and a valid digest
    assert load(tmp_path, key) is None
    assert run_cli(capsys, *argv) == (0, want, "")
    assert path.read_bytes() == stored


@pytest.mark.parametrize("kind", ["decompose", "singular-projected"])
def test_cli_json_answer_is_the_payload_text_of_the_file(tmp_path, capsys, monkeypatch, kind):
    # a miss serializes the payload once, to store it; a hit prints the file's payload slice
    argv, key, want = _command(kind, "spinor", 4, "json")
    argv += ["--power", "4", "--format", "json", "--cache", str(tmp_path)]
    serialized = []
    for module in (cache, cli):
        real = module.canonical_json
        monkeypatch.setattr(module, "canonical_json", lambda obj, r=real: serialized.append(1) or r(obj))
    assert run_cli(capsys, *argv) == (0, want, "")
    assert serialized == [1]
    body = (tmp_path / f"{key}.json").read_bytes()
    stored = body[len(b'{"payload":') : body.rindex(b',"schema":')].decode()
    assert run_cli(capsys, *argv) == (0, stored + "\n", "")
    assert serialized == [1]


@pytest.mark.parametrize("data", [b'"\xff\xfe not ascii"', b"[" * 200_000], ids=["bytes", "deep"])
@pytest.mark.parametrize("kind", ["decompose", "singular-direct"])
def test_cli_recomputes_an_undecodable_cache_file(tmp_path, capsys, kind, data):
    # a file as store lays it out, with a valid digest, whose payload cannot be
    # decoded or nests too deep to parse: neither may fail the query
    argv, key, want = _command(kind, "vector", 2, "json")
    argv += ["--power", "2", "--format", "json", "--cache", str(tmp_path)]
    (tmp_path / f"{key}.json").write_bytes(_well_formed(data))
    assert load(tmp_path, key) is None
    assert run_cli(capsys, *argv) == (0, want, "")
    assert load(tmp_path, key) == (json.loads(want), want[:-1])  # rewritten with a good digest


@pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
@pytest.mark.parametrize("argv,key,payload", [
    (["decompose", "--module", "vector"], "decompose-vector-3",
     {"module": "vector", "power": 3, "terms": [{"weight": "1,0", "mult": "1"}]}),
    (["decompose", "--module", "vector"], "decompose-vector-3", {"module": "vector", "terms": []}),
    (["decompose", "--module", "vector"], "decompose-vector-3", [{"weight": "1,0", "coeff": "1"}]),
    (["singular", "--module", "spinor"], "singular-direct-spinor-3", [{"weight": "1,0"}]),
    (["singular", "--module", "spinor"], "singular-direct-spinor-3", {"weight": "1,0", "coeff": "1"}),
    (["singular", "--module", "spinor", "--projected"], "singular-projected-spinor-3", 7),
])
def test_cli_malformed_cache_payload_is_an_error(tmp_path, capsys, fmt, argv, key, payload):
    # the digest is valid, so only rendering can tell; it prints nothing then
    store(tmp_path, key, canonical_json(payload))
    code, out, err = run_cli(capsys, *argv, "--power", "3", "--format", fmt, "--cache", str(tmp_path))
    assert (code, out) == (1, "")
    assert err.startswith("error: malformed payload")
