"""`python -m b2tensor`: once cli.main returns, the entry point flushes stdout
and stderr and ends the process with os._exit, skipping the interpreter's
teardown. A run answers as cli.main does in process, with the same exit code,
stdout and stderr; a closed stdout ends it with exit 1 and nothing on stderr;
and cli.main itself leaves nothing frozen."""

import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

from b2tensor import cli

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


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", CLOSED_STDOUT_RUNS, ids=["large", "small"])
def test_a_closed_stdout_exits_1_without_a_traceback(argv, unbuffered):
    # the reader of stdout is gone before the process starts
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        child = subprocess.run(
            [sys.executable, "-m", "b2tensor", *argv],
            cwd=ROOT, env=env, stdout=write, stderr=subprocess.PIPE, text=True, timeout=120,
        )
    finally:
        os.close(write)
    assert (child.returncode, child.stderr) == (1, "")


def test_cli_main_leaves_nothing_frozen(capsys):
    for argv, _ in RUNS * 2:
        main_in_process(argv)
        assert gc.get_freeze_count() == 0
    capsys.readouterr()
