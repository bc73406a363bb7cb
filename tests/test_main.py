"""`python -m b2tensor`: the entry point freezes the collector after cli.main
returns, so the collections at interpreter shutdown skip every object. A run
answers as cli.main does in process, with the same exit code, stdout and
stderr, and cli.main itself leaves nothing frozen."""

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


def test_cli_main_leaves_nothing_frozen(capsys):
    for argv, _ in RUNS * 2:
        main_in_process(argv)
        assert gc.get_freeze_count() == 0
    capsys.readouterr()
