"""`python -m b2tensor`: once cli.main returns, the entry point flushes stdout
and stderr and ends the process with os._exit, skipping the interpreter's
teardown. A run answers as cli.main does in process, with the same exit code,
stdout and stderr; a flush that fails exits as sys.exit did; and cli.main
itself leaves nothing frozen."""

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


def test_a_closed_stdout_exits_as_sys_exit_did():
    # the reader of stdout is gone before the process starts, so the flush
    # before os._exit fails; the run then exits through sys.exit, whose flush
    # at shutdown reports the broken pipe with exit code 120. Unbuffered, the
    # write inside cli.main would fail first, so the buffer is left on.
    argv = ["multiplicity", "--module", "vector", "--power", "2", "--weight", "1,0"]
    through_sys_exit = f"import sys; from b2tensor.cli import main; sys.exit(main({argv!r}))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    ends = []
    for program in (["-m", "b2tensor", *argv], ["-c", through_sys_exit]):
        read, write = os.pipe()
        os.close(read)
        try:
            child = subprocess.run(
                [sys.executable, *program],
                cwd=ROOT, env=env, stdout=write, stderr=subprocess.PIPE, text=True, timeout=120,
            )
        finally:
            os.close(write)
        ends.append((child.returncode, child.stderr))
    assert ends[0] == ends[1]
    assert ends[0][0] == 120 and "BrokenPipeError" in ends[0][1]


def test_cli_main_leaves_nothing_frozen(capsys):
    for argv, _ in RUNS * 2:
        main_in_process(argv)
        assert gc.get_freeze_count() == 0
    capsys.readouterr()
