"""Invariant guards in the package must survive `python -O`."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import b2tensor
from b2tensor.cache import canonical_json
from b2tensor.verify import run_suite

SRC = Path(b2tensor.__file__).parent


def test_package_has_no_assert_statements():
    # -O strips assert, so an invariant guarded by one would go unchecked
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_verify_runs_under_python_O():
    # the same package, run with asserts stripped, must give the in-process output
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    argv = [sys.executable, "-O", "-m", "b2tensor", "verify", "--suite", "all", "--pmax", "6",
            "--format", "json"]
    run = subprocess.run(argv, capture_output=True, timeout=300, env=dict(os.environ, PYTHONPATH=path))
    assert run.returncode == 0, run.stderr.decode()
    assert run.stdout.decode() == canonical_json(run_suite("all", 6).to_json_obj()) + "\n"
