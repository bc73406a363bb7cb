"""Failure paths and point counts of the verify checks.

Each failure test makes one published value (or one recursion value) wrong
at a point that is not the first of its check's sweep, and pins the status
and the exact point the check reports first.
"""

from fractions import Fraction

import pytest

from b2tensor import Weight, closed_forms as cf, engine, verify
from b2tensor.verify import run_suite

HALF = Fraction(1, 2)


def _wrong_at(monkeypatch, name, key, value=None, shift=1):
    """Make cf.<name> return value (or its own value + shift) at the arguments key."""
    original = getattr(cf, name)

    def patched(*args, **kwargs):
        got = original(*args, **kwargs)
        if args + tuple(kwargs.values()) != key:
            return got
        return got + shift if value is None else value

    monkeypatch.setattr(cf, name, patched)


def _recursion_wrong_at(monkeypatch, p, point, value):
    """Make the weight-shift recursion record at p carry value at the doubled point."""
    original = engine.recur_multiplicity

    def patched(*args, **kwargs):
        recs = original(*args, **kwargs)
        if len(recs) > p:
            rec = recs[p]
            recs[p] = rec._replace(values={**rec.values, point: value})
        return recs

    monkeypatch.setattr(engine, "recur_multiplicity", patched)
    monkeypatch.setattr(verify, "recur_multiplicity", patched, raising=False)


def _assert_fails(check, pmax, where):
    result = check(pmax)
    assert (result.status, result.evidence, result.points) == ("fail", f"first mismatch at {where}", 0)


def test_vector_table_reports_the_first_wrong_cell(monkeypatch):
    _wrong_at(monkeypatch, "vector_table", (2, 1, 7))
    _assert_fails(verify.check_vector_table, 10, "p=7 cell=(2,1)")


def test_spinor_table_reports_the_first_wrong_entry(monkeypatch):
    _wrong_at(monkeypatch, "spinor_table", (1, 2, 5))
    _assert_fails(verify.check_spinor_table, 10, "p=5 entry=(1,2)")


def test_spinor_table_reports_a_nonzero_half_column(monkeypatch):
    _wrong_at(monkeypatch, "spinor_table", (3 * HALF, 2, 4))
    _assert_fails(verify.check_spinor_table, 10, "p=4 half column (3/2,2)")


def test_spinor_table_reports_a_half_column_on_the_lattice(monkeypatch):
    original = cf.spinor_table_weight

    def patched(a, b, p, printed=False):
        if (a, b, p) == (HALF, 3, 6):
            return Weight(0, 0)
        return original(a, b, p, printed)

    monkeypatch.setattr(cf, "spinor_table_weight", patched)
    _assert_fails(verify.check_spinor_table, 10, "p=6 (1/2,3) unexpectedly on lattice")


def test_spinor_table_reports_the_extended_spot(monkeypatch):
    # table and M agree on 0 at (2,2), p=2: every entry matches, the spot does not
    _wrong_at(monkeypatch, "spinor_table", (2, 2, 2), value=0)
    original = verify.m_extended

    def patched(module, p, mu):
        if (module, p, mu) == ("spinor", 2, cf.spinor_table_weight(2, 2, 2)):
            return 0
        return original(module, p, mu)

    monkeypatch.setattr(verify, "m_extended", patched)
    _assert_fails(verify.check_spinor_table, 10, "extended spot (2,2) p=2")


def test_diagonal_low_reports_the_first_wrong_point(monkeypatch):
    _wrong_at(monkeypatch, "diagonal_formula", (2, 1, 5))
    _assert_fails(verify.check_diagonal_low, 10, "s=2 t=1 p=5")


@pytest.mark.parametrize("key,where", [
    ((4, 3, 6), "s=4 t=3 p=6"),
    ((6, 2, 4), "s=6 t=2 p=4"),
    ((5, 2, 7, True), "s=5 corrected t=2 p=7"),
])
def test_diagonal_high_reports_the_first_wrong_row(monkeypatch, key, where):
    _wrong_at(monkeypatch, "diagonal_formula", key)
    _assert_fails(verify.check_diagonal_high, 10, where)


def test_diagonal_high_reports_an_early_printed_s5_failure(monkeypatch):
    # the printed s=5 bracket first fails at p = t+1; a failure before that is reported
    _wrong_at(monkeypatch, "diagonal_formula", (5, 3, 2))
    _assert_fails(verify.check_diagonal_high, 10, "s=5 t=3: first printed failure at 2, expected 4")


def test_diagonal_high_reports_a_late_printed_s5_failure(monkeypatch):
    # the printed s=5 value made right at p = t+1 moves its first failure later
    _wrong_at(monkeypatch, "diagonal_formula", (5, 2, 3), value=verify.m_extended(
        "vector", 3, cf.diagonal_weight(5, 2, 3)
    ))
    _assert_fails(verify.check_diagonal_high, 10, "s=5 t=2: first printed failure at 4, expected 3")


def test_diagonal_spinor_line_reports_the_first_wrong_value(monkeypatch):
    _wrong_at(monkeypatch, "diagonal_formula", (1, 2, 6))
    _assert_fails(verify.check_diagonal_spinor_line, 10, "a=2 p=6")


def test_diagonal_zeros_reports_a_nonzero_formula(monkeypatch):
    _wrong_at(monkeypatch, "diagonal_formula", (3, 2, 5, False))
    _assert_fails(verify.check_diagonal_zeros, 10, "formula s=3 t=2 p=5")


def test_diagonal_zeros_reports_a_nonzero_multiplicity(monkeypatch):
    # the zero of family (2, 3) moved onto the highest weight, where M = 1
    _wrong_at(monkeypatch, "diagonal_weight", (2, 3, 6), value=Weight.make(6, 0))
    _assert_fails(verify.check_diagonal_zeros, 10, "multiplicity s=2 t=3 p=6")


def test_known_window_reports_the_first_wrong_row(monkeypatch):
    # M(p-1, 1) at p = 6 is p-1 = 5 (doubled point (10, 2)); row p-1 reads it
    # at second coordinate 1 and, reflected with sign -1, at -2
    _recursion_wrong_at(monkeypatch, 6, (10, 2), 99)
    _assert_fails(verify.check_known_window, 10, "p=6 row p-1: [-99, 0, 0, 99, 0, 0]")


def test_polynomial_fits_report_a_wrong_prediction(monkeypatch):
    # at pmax 10 the window is 6..14; family (2, 1) at p = 16 reads (14, 1), doubled (28, 2)
    _recursion_wrong_at(monkeypatch, 16, (28, 2), 0)
    _assert_fails(verify.check_polynomial_fits, 10, "s=2 t=1 prediction p=16")


def test_run_suite_point_counts():
    # the counts `verify --timings` prints, in suite order
    report = run_suite("all", 10)
    assert [c.points for c in report.checks] == [
        22, 30, 176, 183, 357, 322, 39, 113, 1500, 4324,
        3716, 662, 63, 4856, 10, 36, 82, 45, 88, 19,
    ]


@pytest.mark.parametrize("suite", ["all", *verify.SUITES])
def test_run_suite_refuses_a_pmax_below_the_fit_window(suite):
    with pytest.raises(ValueError, match="pmax"):
        run_suite(suite, cf.PMAX_MIN - 1)


def test_pmax_floor_is_the_first_pmax_whose_fit_window_certifies():
    # verify's fits sample p = 6..pmax+4; at the floor that window certifies a
    # constant, one pmax lower it holds too few samples to certify anything
    constant = {p: 7 for p in range(6, cf.PMAX_MIN + 8)}
    fit, _ = cf.fit_window(constant, cf.PMAX_MIN + 4)
    assert fit.coefficients() == (7,)
    with pytest.raises(ValueError):
        cf.fit_window(constant, cf.PMAX_MIN + 3)
    assert run_suite("all", cf.PMAX_MIN).ok
