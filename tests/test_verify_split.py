"""run_suite in two processes: the checks in verify.CHILD_CHECKS run in one
forked child while the caller runs the rest, and the report, and any error,
is the one an in-order run gives."""

import gc
import os
import re
import threading

import pytest

from b2tensor import cli, closed_forms as cf, verify
from b2tensor.verify import CHILD_CHECKS, SUITES, run_suite

EVERY_CHECK = [fn for checks in SUITES.values() for fn in checks]


@pytest.fixture
def forks(monkeypatch):
    """The pids os.fork returned in the caller during the test, with the fork
    allowed whatever the CPUs and threads of the test process."""
    monkeypatch.setattr(verify, "_may_fork", lambda: True)
    pids, real = [], os.fork

    def counted():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def fields(checks):
    return [(c.name, c.status, c.evidence, c.points) for c in checks]


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def in_order(monkeypatch, capsys, *argv):
    """run_cli with the fork turned off: every check in turn in this process."""
    with monkeypatch.context() as m:
        m.setattr(verify, "_may_fork", lambda: False)
        return run_cli(capsys, *argv)


def test_the_split_has_checks_on_both_sides():
    assert CHILD_CHECKS < set(EVERY_CHECK)
    assert verify.check_character_product not in CHILD_CHECKS
    assert verify.check_diff_reports not in CHILD_CHECKS


def test_it_forks_only_with_two_cpus_and_one_thread(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda _: {0, 1})
    assert verify._may_fork()
    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda _: {1})
        assert not verify._may_fork()
    with monkeypatch.context() as m:
        m.delattr(os, "fork")
        assert not verify._may_fork()
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        assert not verify._may_fork()
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert verify._may_fork()


@pytest.mark.parametrize("pmax", range(4, 9))
def test_forked_run_equals_the_in_order_loop(forks, pmax):
    report = run_suite("all", pmax)
    assert len(forks) == 1
    assert fields(report.checks) == fields(fn(pmax) for fn in EVERY_CHECK)
    with pytest.raises(ChildProcessError):  # the child is reaped
        os.waitpid(-1, os.WNOHANG)


def test_forked_runs_leave_nothing_frozen(forks):
    for _ in range(3):
        assert run_suite("all", 4).ok
    assert len(forks) == 3
    assert gc.get_freeze_count() == 0


@pytest.mark.parametrize("suite", ["all", *SUITES])
def test_a_suite_forks_exactly_when_its_checks_sit_on_both_sides(forks, suite):
    checks = EVERY_CHECK if suite == "all" else SUITES[suite]
    both = len({fn in CHILD_CHECKS for fn in checks}) == 2
    assert run_suite(suite, 4).ok
    assert len(forks) == both
    assert both == (suite in ("all", "closed-forms", "fan-singular"))


def test_a_failed_fork_runs_every_check_in_order(monkeypatch, capsys, forks):
    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    argv = ("verify", "--pmax", "4")
    failed = run_cli(capsys, *argv)
    assert failed[0] == 0
    assert failed == in_order(monkeypatch, capsys, *argv)
    assert fields(run_suite("all", 4).checks) == fields(fn(4) for fn in EVERY_CHECK)
    assert gc.get_freeze_count() == 0


def _raise_in(monkeypatch, owner, name, exc):
    """Make owner.<name>, a function one check calls, raise exc."""

    def raising(*_, **__):
        raise exc

    monkeypatch.setattr(owner, name, raising)


@pytest.mark.parametrize("exc", [RuntimeError("degenerate step"), ValueError("bad point 3/2,1")])
def test_an_error_in_the_child_surfaces_as_in_order(monkeypatch, capsys, forks, exc):
    # fan_step_audit: only singular-contribution, a child check, calls it
    assert verify.check_singular_contribution in CHILD_CHECKS
    _raise_in(monkeypatch, verify, "fan_step_audit", exc)
    with pytest.raises(type(exc), match=re.escape(str(exc))):
        run_suite("all", 6)
    argv = ("verify", "--suite", "all", "--pmax", "6")
    forked = run_cli(capsys, *argv)
    assert len(forks) == 2
    assert forked == in_order(monkeypatch, capsys, *argv) == (1, "", f"error: {exc}\n")


# (owner, function, the one check that calls it)
CHILD_EARLY = (verify, "fan_line_structure", verify.check_line_structure)
CHILD_LATE = (verify, "fan_step_audit", verify.check_singular_contribution)
PARENT_EARLY = (cf, "vector_table", verify.check_vector_table)
PARENT_LATE = (cf, "bracket_factors_rationally", verify.check_bracket_factorization)


@pytest.mark.parametrize("first,second", [(CHILD_EARLY, PARENT_LATE), (PARENT_EARLY, CHILD_LATE)])
def test_the_error_of_the_earlier_check_is_reported(monkeypatch, capsys, forks, first, second):
    assert EVERY_CHECK.index(first[2]) < EVERY_CHECK.index(second[2])
    assert (first[2] in CHILD_CHECKS) != (second[2] in CHILD_CHECKS)
    for (owner, name, _), message in ((first, "first"), (second, "second")):
        _raise_in(monkeypatch, owner, name, ValueError(message))
    with pytest.raises(ValueError, match="^first$"):
        run_suite("all", 6)
    assert len(forks) == 1
    argv = ("verify", "--suite", "all", "--pmax", "6")
    assert run_cli(capsys, *argv) == in_order(monkeypatch, capsys, *argv) == (1, "", "error: first\n")


def test_a_child_that_exits_without_results_names_its_status(monkeypatch, forks):
    monkeypatch.setattr(verify, "fan_line_structure", lambda p: os._exit(3))
    with pytest.raises(RuntimeError, match="status 3"):
        run_suite("all", 6)
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
