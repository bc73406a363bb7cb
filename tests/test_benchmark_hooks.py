"""The benchmark's helper scripts still run against the package.

benchmark/tracing.py rebinds public functions of b2tensor by name from outside
the package; a renamed or deleted one stops `benchmark/run.py --trace 1`.
Both modes run here as the benchmark runs them: a child process on the
command line `verify --suite all --pmax 4`. benchmark/task.py, the
large-power workload, reads every route's record; it runs here at p = 4.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from b2tensor import decomposition

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> str:
    """stdout of benchmark/<name> run as a child process on the given arguments."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, str(ROOT / "benchmark" / name), *args]
    child = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    return child.stdout


def trace(tmp_path, mode: str) -> dict:
    out = tmp_path / f"{mode}.json"
    run_script("tracing.py", mode, str(out), mode, "cli", "verify", "--suite", "all", "--pmax", "4")
    return json.loads(out.read_text(encoding="utf-8"))


@pytest.mark.parametrize("mode", ["spans", "counts"])
def test_tracer_runs_the_cli(tmp_path, mode):
    got = trace(tmp_path, mode)
    if mode == "counts":
        assert got["counts"]["lattice.Weight.new"] > 0
        return
    names = {span[0] for span in got["spans"]}
    want = {"cli.main", "series.mul", "series.power", "fans.diff_report", "verify.four-routes-agree"}
    assert want <= names
    assert not [n for n in names if n.startswith("verify.check_")]  # every check span renamed
    assert set(got["lru"]) == {"engine.tensor_power_weights"}


@pytest.mark.parametrize("module", ["vector", "spinor"])
def test_task_prints_four_equal_routes(module):
    routes = json.loads(run_script("task.py", module, "4"))["routes"]
    assert sorted(routes) == ["decomposition", "fan", "recursion", "single-step"]
    want = [[w.d1, w.d2, m] for w, m in decomposition(module, 4).multiplicities]
    assert all(rows == want for rows in routes.values()), routes
