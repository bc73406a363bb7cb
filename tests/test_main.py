"""`python -m b2tensor` and the b2tensor script: once cli.main returns, the
entry point flushes stdout and stderr and ends the process with os._exit,
skipping the interpreter's teardown. A run answers as cli.main does in
process, with the same exit code, stdout and stderr; a closed stdout ends it
with exit 1 and nothing on stderr, and a full one with exit 1 and one error
line; and cli.main itself leaves nothing frozen."""

import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

from b2tensor import cli

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10: the runs of the script are skipped
    tomllib = None

ROOT = Path(__file__).resolve().parent.parent

# (argv, its exit code): an answer, a usage error and a limit error
RUNS = [
    (("verify", "--pmax", "4", "--format", "json"), 0),
    (("decompose", "--module", "vector"), 2),
    (("decompose", "--module", "vector", "--power", "101"), 1),
]


def main_in_process(argv) -> int:
    """cli.main's exit code; a usage error leaves it by argparse's SystemExit."""
    try:
        return cli.main(list(argv))
    except SystemExit as stop:
        return stop.code


@pytest.mark.parametrize("flags", [(), ("-O",)])
@pytest.mark.parametrize("argv,code", RUNS)
def test_a_module_run_answers_as_cli_main(capsys, argv, code, flags):
    in_process = main_in_process(argv), *capsys.readouterr()
    assert in_process[0] == code
    assert gc.get_freeze_count() == 0
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    child = subprocess.run(
        [sys.executable, *flags, "-m", "b2tensor", *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert (child.returncode, child.stdout, child.stderr) == in_process


# a large answer fails at cli.main's write when buffered; a small one at the
# flush after main returns, or at the write when unbuffered
CLOSED_STDOUT_RUNS = [
    ["decompose", "--module", "vector", "--power", "40", "--format", "json"],
    ["multiplicity", "--module", "vector", "--power", "2", "--weight", "1,0"],
]


def script_call() -> list:
    """The interpreter arguments that call the b2tensor script's target, as
    the script installed from pyproject.toml calls it."""
    with open(ROOT / "pyproject.toml", "rb") as f:
        module, _, function = tomllib.load(f)["project"]["scripts"]["b2tensor"].partition(":")
    return ["-c", f"import sys, {module} as m; sys.exit(m.{function}())"]


def run_to(stdout, entry, argv, unbuffered):
    """The exit code and stderr of a child run of entry with stdout at the
    file descriptor stdout, with or without PYTHONUNBUFFERED."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    child = subprocess.run(
        [sys.executable, *entry, *argv],
        cwd=ROOT, env=env, stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120,
    )
    return child.returncode, child.stderr


ENTRIES = [
    pytest.param(["-m", "b2tensor"], id="module"),
    pytest.param(
        script_call() if tomllib else [],
        id="script",
        marks=pytest.mark.skipif(tomllib is None, reason="tomllib is new in Python 3.11"),
    ),
]


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", CLOSED_STDOUT_RUNS, ids=["large", "small"])
def test_a_closed_stdout_exits_1_without_a_traceback(argv, unbuffered, entry):
    # the reader of stdout is gone before the process starts
    read, write = os.pipe()
    os.close(read)
    try:
        assert run_to(write, entry, argv, unbuffered) == (1, "")
    finally:
        os.close(write)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_full_stdout_exits_1_with_one_error_line(unbuffered, entry):
    fd = os.open("/dev/full", os.O_WRONLY)
    try:
        got = run_to(fd, entry, CLOSED_STDOUT_RUNS[1], unbuffered)
    finally:
        os.close(fd)
    assert got == (1, "error: [Errno 28] No space left on device\n")


def test_cli_main_leaves_nothing_frozen(capsys):
    for argv, _ in RUNS * 2:
        main_in_process(argv)
        assert gc.get_freeze_count() == 0
    capsys.readouterr()
