"""Polynomial tables, diagonal families, certified fits."""

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from b2tensor import Weight, m_extended, recur_multiplicity
from b2tensor import closed_forms as cf


def test_vector_table_matches_extended_multiplicities():
    for p in (2, 3, 4, 5, 6, 9, 12):
        for i in range(4):
            for j in range(4):
                want = m_extended("vector", p, cf.vector_table_weight(i, j, p))
                assert cf.vector_table(i, j, p) == want, (p, i, j)


def test_vector_table_nonzero_census():
    # 9 of the 16 polynomial cells are not identically zero
    nonzero = [(i, j) for i in range(4) for j in range(4) if cf.vector_table(i, j, 40)]
    assert len(nonzero) == 9


def test_spinor_table_matches_extended_multiplicities():
    for p in range(2, 13):
        for (a, b) in cf.SPINOR_TABLE_KEYS:
            want = m_extended("spinor", p, cf.spinor_table_weight(a, b, p))
            assert cf.spinor_table(a, b, p) == want, (p, a, b)


def test_spinor_table_half_columns_vanish_off_lattice():
    for b in (1, 2, 3):
        for a in (Fraction(1, 2), Fraction(3, 2)):
            assert cf.spinor_table(a, b, 6) == 0
            with pytest.raises(ValueError):
                cf.spinor_table_weight(a, b, 6)


def test_spinor_table_extends_through_reflection():
    # at p=2 the (2,2) polynomial is negative and equals the reflected value
    assert cf.spinor_table(2, 2, 2) == -1
    assert m_extended("spinor", 2, cf.spinor_table_weight(2, 2, 2)) == -1


def test_printed_weight_maps_differ():
    assert cf.spinor_table_weight(1, 2, 4) == Weight.make(1, 1)
    assert cf.spinor_table_weight(1, 2, 4, printed=True) == Weight.make(1, 2)
    assert cf.diagonal_weight(2, 1, 6) == Weight.make(4, 1)
    assert cf.diagonal_weight(2, 1, 6, printed=True) == Weight.make(1, 4)


def test_diagonal_low_families_exact():
    for s in (1, 2, 3):
        for p in range(1, 11):
            for t in range(0, p + 1):
                want = m_extended("vector", p, cf.diagonal_weight(s, t, p))
                assert cf.diagonal_formula(s, t, p) == want, (s, t, p)


def test_diagonal_s2_is_the_known_window_multiplicity():
    for p in range(2, 20):
        assert cf.diagonal_formula(2, 1, p) == (p - 1) * (p - 2) // 2


def test_diagonal_s4_s6_exact_as_printed():
    for s in (4, 6):
        for t in range(0, 5):
            for p in range(1, 13):
                want = m_extended("vector", p, cf.diagonal_weight(s, t, p))
                assert cf.diagonal_formula(s, t, p) == want, (s, t, p)


def test_diagonal_s5_printed_is_broken_and_corrected_holds():
    # the printed bracket reuses the s=4 coefficients; its first failure for
    # each offset t sits at p = t+1 and the values are not even integers
    assert cf.diagonal_formula(5, 0, 4) == Fraction(35, 6)
    for t in range(0, 5):
        bad = [
            p
            for p in range(1, 13)
            if cf.diagonal_formula(5, t, p)
            != m_extended("vector", p, cf.diagonal_weight(5, t, p))
        ]
        assert bad and bad[0] == t + 1
        for p in range(1, 13):
            want = m_extended("vector", p, cf.diagonal_weight(5, t, p))
            assert cf.diagonal_formula(5, t, p, corrected=True) == want


def test_diagonal_zero_powers():
    for s in range(1, 7):
        for t in range(0, 8):
            p = cf.diagonal_zero_power(s, t)
            if p < 1:
                continue
            assert cf.diagonal_formula(s, t, p, corrected=(s == 5)) == 0
            assert m_extended("vector", p, cf.diagonal_weight(s, t, p)) == 0


def test_spinor_line_coincidence():
    for p in range(2, 13):
        for a in (0, 1, 2):
            assert cf.diagonal_formula(1, a, p) == cf.spinor_table(a, 1, p)


def _rgamma(n):
    return Fraction(1, factorial(n - 1)) if n >= 1 else Fraction(0)


def diagonal_formula_by_fractions(s, t, p, corrected=False):
    # reference: the closed form as a chain of Fraction products
    g = Fraction(factorial(p))
    bracket = cf._bracket_value(s, t, p, corrected) if s >= 4 else None
    if s == 1:
        return g * (p + 1 - 2 * t) * _rgamma(p + 2 - t) * _rgamma(t + 1)
    if s == 2:
        return g * (p - t) * (p - 2 * t) * _rgamma(p + 2 - t) * _rgamma(t) / (t + 1)
    if s == 3:
        return g * (p - 2 * t - 1) * _rgamma(p - t) * _rgamma(t + 1) / 2
    if s == 4:
        return g * (p - 2 * t - 2) * _rgamma(p + 1 - t) * _rgamma(t + 3) / 6 * bracket
    if s == 5:
        return g * (p - 2 * t - 3) * _rgamma(p - t) * _rgamma(t + 3) / 24 * bracket
    return g * (p - 2 * t - 4) * _rgamma(p - t) * _rgamma(t + 4) / 120 * bracket


def test_diagonal_formula_equals_fraction_chain():
    non_integers = 0
    for s in range(1, 7):
        for t in range(13):
            for p in range(31):
                for corrected in (False, True):
                    got = cf.diagonal_formula(s, t, p, corrected)
                    want = diagonal_formula_by_fractions(s, t, p, corrected)
                    assert got == want and type(got) is type(want) is Fraction, (s, t, p)
                    non_integers += got.denominator != 1
    assert non_integers > 0  # the printed s = 5 values that are not integers


def vector_table_by_fractions(i, j, p):
    table = {
        (0, 0): Fraction(1),
        (1, 1): Fraction(p - 1),
        (2, 0): Fraction(p * (p - 1), 2),
        (2, 1): Fraction((p - 1) * (p - 2), 2),
        (2, 2): Fraction(p * (p - 3), 2),
        (3, 0): Fraction((p - 1) * (p - 2) * (p - 3), 6),
        (3, 1): Fraction(p * (p - 1) * (p - 3), 2),
        (3, 2): Fraction(p * (p - 2) * (p - 4), 3),
        (3, 3): Fraction(p * (p - 1) * (p - 5), 6),
    }
    return table.get((i, j), Fraction(0))


def spinor_table_by_fractions(a, b, p):
    table = {
        (0, 1): Fraction(1),
        (1, 1): Fraction(p - 1),
        (2, 1): Fraction(p * (p - 3), 2),
        (0, 2): Fraction(0),
        (1, 2): Fraction(p * (p - 1), 2),
        (2, 2): Fraction((p - 1) * (p + 1) * (p - 3), 3),
        (1, 3): Fraction(0),
        (2, 3): Fraction((p - 1) * (p - 2) * (p - 3) * (p + 2), 12),
    }
    return table[a, b]


def test_tables_equal_fraction_tables():
    for p in range(-10, 41):
        for i in range(4):
            for j in range(4):
                got = cf.vector_table(i, j, p)
                assert got == vector_table_by_fractions(i, j, p) and type(got) is int, (i, j, p)
        for a, b in cf.SPINOR_TABLE_KEYS:
            for key in (a, Fraction(a), str(a)):
                got = cf.spinor_table(key, b, p)
                assert got == spinor_table_by_fractions(a, b, p) and type(got) is int, (a, b, p)
    with pytest.raises(KeyError):
        cf.vector_table(4, 0, 5)
    with pytest.raises(KeyError):
        cf.spinor_table(3, 1, 5)
    assert cf.spinor_table("1/2", 1, 5) == 0


def test_bracket_factorization_pattern():
    assert [cf.bracket_factors_rationally(4, t) for t in range(5)] == [
        True,
        True,
        False,
        False,
        False,
    ]
    assert cf.bracket_discriminant(4, 2) == 1872
    assert [cf.bracket_factors_rationally(6, t) for t in range(5)] == [
        True,
        True,
        True,
        False,
        False,
    ]



def _rational_root_by_fractions(coeffs):
    # the rational root theorem evaluated in Fractions, as a reference
    if coeffs[0] == 0:
        return True
    for r in cf._divisors(abs(coeffs[0])):
        for num in (r, -r):
            for den in cf._divisors(abs(coeffs[-1])):
                x = Fraction(num, den)
                if x.denominator == den and sum(c * x**k for k, c in enumerate(coeffs)) == 0:
                    return True
    return False


def test_bracket_factorization_matches_fraction_reference():
    for s in (4, 5, 6):
        for t in range(11):
            coeffs = cf.diagonal_bracket(s, t)
            if len(coeffs) == 3:
                c0, c1, c2 = coeffs
                disc = c1 * c1 - 4 * c2 * c0
                want = disc >= 0 and isqrt(disc) ** 2 == disc
            else:
                want = _rational_root_by_fractions(coeffs)
            assert cf.bracket_factors_rationally(s, t) == want, (s, t)


@given(
    st.integers(-12, 12),
    st.integers(1, 12),
    st.lists(st.integers(-30, 30), min_size=2, max_size=4).filter(lambda c: c[-1] != 0),
    st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_integer_root_test_matches_fractions(num, den, rest, plant):
    # with plant, multiply by (den*x - num) so that num/den is a root
    coeffs = list(rest)
    if plant:
        coeffs = [0] * (len(rest) + 1)
        for k, c in enumerate(rest):
            coeffs[k] -= num * c
            coeffs[k + 1] += den * c
    assert cf._has_rational_root(coeffs) == _rational_root_by_fractions(coeffs)

# --- certified fits


@given(
    st.lists(st.fractions(min_value=-5, max_value=5), min_size=1, max_size=4),
    st.integers(-3, 3),
)
@settings(max_examples=40)
def test_fit_recovers_polynomials(coeffs, x0):
    def poly(x):
        return sum(c * x**k for k, c in enumerate(coeffs))

    xs = list(range(x0, x0 + len(coeffs) + 4))
    fit = cf.fit_polynomial(xs, [poly(x) for x in xs])
    assert fit.degree <= len(coeffs) - 1
    got = list(fit.coefficients())
    got += [Fraction(0)] * (len(coeffs) - len(got))
    want = [Fraction(c) for c in coeffs]
    while len(want) > len(got):
        got.append(Fraction(0))
    assert got == want
    assert fit(x0 + 50) == poly(x0 + 50)


@dataclass(frozen=True)
class _FractionNewtonFit:
    """The Newton fit on Fractions throughout: the reference for the integer one."""

    x0: int
    diffs: tuple  # leading forward differences, Fractions

    @property
    def degree(self) -> int:
        return len(self.diffs) - 1

    def __call__(self, x: int) -> Fraction:
        acc = Fraction(0)
        rising = Fraction(1)
        for k, d in enumerate(self.diffs):
            if k:
                rising = rising * (x - self.x0 - (k - 1)) / k
            acc += d * rising
        return acc

    def coefficients(self) -> tuple:
        total = [Fraction(0)] * (self.degree + 1)
        basis = [Fraction(1)]  # product of (x - x0 - j)/(j+1), expanded
        for k, d in enumerate(self.diffs):
            for i, c in enumerate(basis):
                total[i] += d * c
            shift, scale = -Fraction(self.x0 + k), Fraction(1, k + 1)
            out = [Fraction(0)] * (len(basis) + 1)
            for i, c in enumerate(basis):
                out[i] += c * shift * scale
                out[i + 1] += c * scale
            basis = out
        return tuple(total)


def _fit_by_fractions(xs, ys) -> _FractionNewtonFit:
    ys = [Fraction(y) for y in ys]
    leading = []
    row = ys
    while row:
        if not any(row):
            if len(row) < cf.ZERO_SLACK:
                break
            return _FractionNewtonFit(xs[0], tuple(leading) or (Fraction(0),))
        leading.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    raise cf.PolynomialityError(f"window of {len(ys)} samples does not certify a polynomial")


@st.composite
def _sample_windows(draw):
    """(xs, ys): a polynomial of degree <= 8 on a window of consecutive integers.

    The polynomial has rational coefficients (Fraction samples) or integer
    Newton coefficients (int samples); some windows are too short to certify.
    """
    degree = draw(st.integers(0, 8))
    x0 = draw(st.integers(-30, 30))
    xs = list(range(x0, x0 + max(cf.ZERO_SLACK + 1, degree + draw(st.integers(1, 6)))))
    if draw(st.booleans()):
        coeffs = draw(st.lists(st.fractions(-10**6, 10**6, max_denominator=50), min_size=degree + 1, max_size=degree + 1))
        ys = [sum(c * x**k for k, c in enumerate(coeffs)) for x in xs]
    else:
        coeffs = draw(st.lists(st.integers(-10**12, 10**12), min_size=degree + 1, max_size=degree + 1))
        ys = [sum(c * comb(x + 40, k) for k, c in enumerate(coeffs)) for x in xs]
    return xs, ys


@given(_sample_windows())
@settings(max_examples=200)
def test_integer_fit_matches_the_fraction_fit(window):
    xs, ys = window
    try:
        want = _fit_by_fractions(xs, ys)
    except cf.PolynomialityError as exc:
        with pytest.raises(cf.PolynomialityError, match=str(exc)):
            cf.fit_polynomial(xs, ys)
        return
    got = cf.fit_polynomial(xs, ys)
    assert got.degree == want.degree
    assert got.coefficients() == want.coefficients()
    assert all(type(c) is Fraction for c in got.coefficients())
    for x in range(xs[0] - 12, xs[-1] + 12):  # below x0 too, where C(x - x0, k) alternates
        value = got(x)
        assert value == want(x) and type(value) is Fraction


def test_fit_rejects_non_polynomial():
    xs = list(range(8))
    with pytest.raises(cf.PolynomialityError):
        cf.fit_polynomial(xs, [2**x for x in xs])


def test_fit_window_predicts_recurrence():
    recs = recur_multiplicity("vector", 15)
    xs = list(range(6, 13))
    for s, t in ((1, 2), (2, 1), (3, 0)):
        ys = [recs[p](cf.diagonal_weight(s, t, p)) for p in xs]
        fit = cf.fit_polynomial(xs, ys)
        for p in (13, 14, 15):
            assert fit(p) == recs[p](cf.diagonal_weight(s, t, p))


def test_fit_input_validation():
    with pytest.raises(ValueError):
        cf.fit_polynomial([0, 2, 3], [1, 2, 3])
    with pytest.raises(ValueError):
        cf.fit_polynomial([0, 1], [1, 2])


def test_fit_window_fits_six_to_hi_and_predicts_three_beyond():
    squares = [p * p for p in range(20)]
    fit, predictions = cf.fit_window(squares, 10)
    assert (fit.x0, fit.degree, fit.coefficients()) == (6, 2, (0, 0, 1))
    assert predictions == [(11, 121, 121), (12, 144, 144), (13, 169, 169)]
    off = {p: p * p + (p == 12) for p in range(6, 14)}  # only the samples it reads
    assert cf.fit_window(off, 10)[1][1] == (12, 144, 145)
    with pytest.raises(cf.PolynomialityError):
        cf.fit_window([2**p for p in range(20)], 10)
