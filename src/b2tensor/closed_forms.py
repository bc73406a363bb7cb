"""Polynomial multiplicity tables and diagonal families.

Three families of exact closed forms for multiplicities in the p-th tensor
power, all polynomials in p for fixed index:

  * vector_table / spinor_table: the 4x4 and 8-entry windows of weights
    nearest the highest weight, as published;
  * diagonal_formula: six anti-diagonal families s = 1..6 of the vector
    power, M(p-t-s+1, t) as a gamma-factor expression in (p, t);
  * fit_polynomial: certified Newton interpolation used to rediscover such
    polynomials from recurrence samples; fit_window fits the samples at
    p = 6..hi and predicts beyond them.

Weight maps exist in validated form (matching the multiplicity oracles) and,
behind printed=True, in the published form, which differs by coordinate
slips; the discrepancies are documented where the two disagree.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm
from typing import NamedTuple

from .lattice import Weight


class PolynomialityError(ValueError):
    """Samples do not certify a polynomial within the window."""


# ---------------------------------------------------------------------------
# near-highest-weight tables


def spinor_table_weight(a, b: int, p: int, printed: bool = False) -> Weight:
    """Weight of the spinor-table entry (a, b) in the p-th power.

    Validated map: (p/2 - (b-1), p/2 - a). The published map adds b-1 to the
    second coordinate as well; pass printed=True for that reading.
    """
    a = Fraction(a)
    half = Fraction(p, 2)
    if printed:
        return Weight.make(half - (b - 1), half - a + (b - 1))
    return Weight.make(half - (b - 1), half - a)


def _table_value(num: int, den: int, where: str) -> int:
    # a table polynomial written as num/den with integer num and positive den
    val, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"non-integer table value at {where}")
    return val


# Each cell is its polynomial in p as an integer (numerator, denominator) pair,
# so a lookup evaluates one cell and builds no Fraction.
_SPINOR_CELLS = {
    (0, 1): lambda p: (1, 1),
    (1, 1): lambda p: (p - 1, 1),
    (2, 1): lambda p: (p * (p - 3), 2),
    (0, 2): lambda p: (0, 1),
    (1, 2): lambda p: (p * (p - 1), 2),
    (2, 2): lambda p: ((p - 1) * (p + 1) * (p - 3), 3),
    (1, 3): lambda p: (0, 1),
    (2, 3): lambda p: ((p - 1) * (p - 2) * (p - 3) * (p + 2), 12),
}


def spinor_table(a, b: int, p: int) -> int:
    """Published polynomial for the spinor-power multiplicity at entry (a, b).

    a may be half-integer; those columns sit off the p-th coset and carry 0.
    """
    if type(a) is not int:
        a = Fraction(a)
        if a.denominator != 1:
            return 0
        a = int(a)
    cell = _SPINOR_CELLS.get((a, b))
    if cell is None:
        raise KeyError(f"spinor table has no entry ({a},{b})")
    return _table_value(*cell(p), f"({a},{b}), p={p}")


SPINOR_TABLE_KEYS = tuple(_SPINOR_CELLS)


def vector_table_weight(i: int, j: int, p: int) -> Weight:
    """Weight of the vector-table cell (i, j): first coordinate p-i, second j."""
    return Weight.make(p - i, j)


_VECTOR_CELLS = {
    (0, 0): lambda p: (1, 1),
    (1, 1): lambda p: (p - 1, 1),
    (2, 0): lambda p: (p * (p - 1), 2),
    (2, 1): lambda p: ((p - 1) * (p - 2), 2),
    (2, 2): lambda p: (p * (p - 3), 2),
    (3, 0): lambda p: ((p - 1) * (p - 2) * (p - 3), 6),
    (3, 1): lambda p: (p * (p - 1) * (p - 3), 2),
    (3, 2): lambda p: (p * (p - 2) * (p - 4), 3),
    (3, 3): lambda p: (p * (p - 1) * (p - 5), 6),
}


def vector_table(i: int, j: int, p: int) -> int:
    """Published polynomial for the vector-power multiplicity at cell (i, j).

    Rows i = 0..3 run from the highest weight (p, 0) downward, columns
    j = 0..3 along the second coordinate. Zero cells are part of the claim.
    """
    if not (0 <= i <= 3 and 0 <= j <= 3):
        raise KeyError(f"vector table has no cell ({i},{j})")
    cell = _VECTOR_CELLS.get((i, j))
    if cell is None:
        return 0
    return _table_value(*cell(p), f"({i},{j}), p={p}")


# ---------------------------------------------------------------------------
# diagonal families of the vector power


def _gamma_quotient(g: int, front: int, x: int, y: int, den: int) -> Fraction:
    """g * front * rgamma(x) * rgamma(y) / den as one Fraction.

    rgamma(n) is the reciprocal gamma function at an integer: 1/(n-1)!, and
    0 at the poles n <= 0. den is positive.
    """
    if x < 1 or y < 1:
        return Fraction(0)
    return Fraction(g * front, factorial(x - 1) * factorial(y - 1) * den)


def diagonal_weight(s: int, t: int, p: int, printed: bool = False) -> Weight:
    """Weight of the s-th diagonal family at offset t.

    Validated map: (p-t-s+1, t), the s-th anti-diagonal of the vector power.
    The published map starts from the spinor highest weight instead; pass
    printed=True for that reading.
    """
    if printed:
        return Weight.make(Fraction(p, 2) - t - (s - 1), Fraction(p, 2) + t)
    return Weight.make(p - t - s + 1, t)


def diagonal_bracket(s: int, t: int) -> tuple:
    """Coefficients (ascending in p) of the bracket polynomial for s >= 4.

    For s <= 3 the closed form has no bracket; () is returned.
    """
    if s == 4:
        return (
            t**4 + 4 * t**3 + 8 * t**2 + 8 * t + 6,
            -2 * (t + 2) ** 2 * (t + 1),
            t**2 + 6 * t + 2,
        )
    if s == 5:
        return (
            t**4 + 4 * t**3 + 8 * t**2 + 8 * t + 6,
            -(2 * t + 4) * (t + 1) * (t + 2),
            t**2 + 11 * t + 6,
        )
    if s == 6:
        return (
            -(t + 1) * (t + 3) * (t**4 + 8 * t**3 + 68 * t**2 + 208 * t + 12),
            3 * t**5 + 45 * t**4 + 326 * t**3 + 1086 * t**2 + 1408 * t + 516,
            -(3 * t**4 + 54 * t**3 + 309 * t**2 + 654 * t + 276),
            t**3 + 21 * t**2 + 86 * t + 36,
        )
    return ()


def diagonal_bracket_corrected(s: int, t: int) -> tuple:
    """Bracket coefficients with the s=5 row repaired.

    The published s=5 bracket reuses the linear and constant coefficients of
    the s=4 row; refitting against the recurrence gives the coefficients
    below (validated for t <= 10, p <= 20). Other rows are unchanged.
    """
    if s == 5:
        return (
            t**4 + 6 * t**3 + 29 * t**2 + 60 * t + 12,
            -(2 * t**3 + 17 * t**2 + 53 * t + 18),
            t**2 + 11 * t + 6,
        )
    return diagonal_bracket(s, t)


def _bracket_value(s: int, t: int, p: int, corrected: bool = False) -> int:
    coeffs = diagonal_bracket_corrected(s, t) if corrected else diagonal_bracket(s, t)
    return sum(c * p**k for k, c in enumerate(coeffs))


def diagonal_formula(s: int, t: int, p: int, corrected: bool = False) -> Fraction:
    """Published closed form for the vector-power multiplicity at (p-t-s+1, t).

    Exact rational arithmetic; reciprocal gamma factors vanish at the poles.
    s = 1..4 and s = 6 hold exactly as printed; the printed s = 5 bracket is
    wrong at every offset (its values are not even integers), and
    corrected=True substitutes the refitted bracket, which matches the
    recurrence everywhere tested.
    """
    g = factorial(p)  # gamma(p+1), p >= 0 always here
    if s == 1:
        return _gamma_quotient(g, p + 1 - 2 * t, p + 2 - t, t + 1, 1)
    if s == 2:
        return _gamma_quotient(g, (p - t) * (p - 2 * t), p + 2 - t, t, t + 1)
    if s == 3:
        return _gamma_quotient(g, p - 2 * t - 1, p - t, t + 1, 2)
    if s == 4:
        front = (p - 2 * t - 2) * _bracket_value(4, t, p, corrected)
        return _gamma_quotient(g, front, p + 1 - t, t + 3, 6)
    if s == 5:
        front = (p - 2 * t - 3) * _bracket_value(5, t, p, corrected)
        return _gamma_quotient(g, front, p - t, t + 3, 24)
    if s == 6:
        front = (p - 2 * t - 4) * _bracket_value(6, t, p, corrected)
        return _gamma_quotient(g, front, p - t, t + 4, 120)
    raise KeyError(f"no diagonal family s={s}")


def diagonal_zero_power(s: int, t: int) -> int:
    """The power p at which the linear front factor of family s vanishes."""
    return 2 * t + s - 2


def bracket_factors_rationally(s: int, t: int) -> bool:
    """Whether the bracket polynomial of family s at offset t has a rational root.

    The families s <= 3 are pure products of linear integer factors; for
    s >= 4 the bracket can be irreducible over the rationals, so the pattern
    of integer-linear factorizations breaks. Decided by the rational root
    theorem at every degree.
    """
    coeffs = diagonal_bracket(s, t)
    return not coeffs or _has_rational_root(coeffs)


def _has_rational_root(coeffs) -> bool:
    """Rational root theorem for integer coefficients (ascending, nonzero lead).

    A root num/den in lowest terms has num | c0 and den | lead, and it is a
    root iff den^n * f(num/den) = sum c_k num^k den^(n-k) vanishes, which is
    an integer sum: no Fractions needed. For each den that sum is a
    polynomial in num with the coefficients c_k den^(n-k), evaluated by
    Horner's rule.
    """
    c0 = coeffs[0]
    if c0 == 0:
        return True
    n = len(coeffs) - 1
    nums = _divisors(abs(c0))
    for den in _divisors(abs(coeffs[-1])):
        scaled = [c * den ** (n - k) for k, c in enumerate(coeffs)]
        scaled.reverse()
        for r in nums:
            if gcd(r, den) != 1:
                continue
            for num in (r, -r):
                acc = 0
                for c in scaled:
                    acc = acc * num + c
                if acc == 0:
                    return True
    return False


def bracket_discriminant(s: int, t: int) -> int:
    """Discriminant of the quadratic bracket (s = 4 or 5)."""
    coeffs = diagonal_bracket(s, t)
    if len(coeffs) != 3:
        raise ValueError(f"family s={s} has no quadratic bracket")
    c0, c1, c2 = coeffs
    return c1 * c1 - 4 * c2 * c0


def _divisors(n: int):
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            out.append(n // d)
        d += 1
    return sorted(set(out))


# ---------------------------------------------------------------------------
# polynomial rediscovery from samples


class NewtonFit(NamedTuple):
    """Polynomial in Newton forward-difference form anchored at x0.

    The polynomial is sum_k diffs[k] * C(x - x0, k) / den: diffs are the
    leading forward differences of the samples times their common
    denominator den, so all of them are integers.
    """

    x0: int
    diffs: tuple  # ints
    den: int

    @property
    def degree(self) -> int:
        return len(self.diffs) - 1

    def __call__(self, x: int) -> Fraction:
        # C(n, k) = n (n-1) ... (n-k+1) / k! is an integer for every integer
        # n = x - x0, negative ones included (C(n, k) = (-1)^k C(k-n-1, k)).
        # Since C(n, k-1) * (n-k+1) = k * C(n, k) is a multiple of k, the
        # update b * (n - k + 1) // k is exact division for either sign.
        n = x - self.x0
        acc = 0
        b = 1  # C(n, k)
        for k, d in enumerate(self.diffs):
            if k:
                b = b * (n - k + 1) // k
            acc += d * b
        return Fraction(acc, self.den)

    def coefficients(self) -> tuple:
        """Standard-basis coefficients, ascending.

        With g = degree!, g * den * p(x) = sum_k diffs[k] * (g / k!) *
        prod_{j<k} (x - x0 - j). Each g / k! is an integer since k <= degree,
        and each product of monic integer linear factors has integer
        coefficients, so the sum is an integer polynomial; the only division
        is one Fraction per coefficient.
        """
        g = factorial(self.degree)
        total = [0] * (self.degree + 1)
        basis = [1]  # prod_{j<k} (x - x0 - j), ascending
        for k, d in enumerate(self.diffs):
            scale = d * (g // factorial(k))
            for i, c in enumerate(basis):
                total[i] += scale * c
            root = self.x0 + k
            nxt = [0] * (len(basis) + 1)
            for i, c in enumerate(basis):
                nxt[i] -= root * c
                nxt[i + 1] += c
            basis = nxt
        den = g * self.den
        # a list, not a generator: in CPython 3.11 a generator that calls
        # Fraction's Python-level constructor raised the peak RSS of a
        # process answering fit queries by about 0.8 MB
        return tuple([Fraction(c, den) for c in total])


# entries the all-zero row of a difference table needs to certify a fit
ZERO_SLACK = 2


def fit_polynomial(xs, ys) -> NewtonFit:
    """Certified polynomial through samples at consecutive integers.

    xs must be consecutive integers and ys ints or Fractions. The difference
    table must reach an all-zero row that still has at least ZERO_SLACK
    entries; otherwise the window does not certify polynomiality and
    PolynomialityError is raised.
    """
    xs = list(xs)
    ys = list(ys)
    if len(xs) != len(ys) or len(xs) < ZERO_SLACK + 1:
        raise ValueError("need matching xs/ys with enough samples")
    for a, b in zip(xs, xs[1:]):
        if b - a != 1:
            raise ValueError("xs must be consecutive integers")
    # times the common denominator the samples are integers, and so are all
    # their forward differences
    den = lcm(*(y.denominator for y in ys))
    row = [y.numerator * (den // y.denominator) for y in ys]
    leading = []
    while row:
        if not any(row):
            if len(row) < ZERO_SLACK:
                break
            return NewtonFit(xs[0], tuple(leading) or (0,), den)
        leading.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    raise PolynomialityError(
        f"window of {len(ys)} samples does not certify a polynomial"
    )


def fit_window(values, hi: int):
    """The fit of a sequence in p on the window 6..hi, and its predictions.

    values[p] must exist for p = 6..hi+3. Returns the certified fit of
    values[6..hi] and [(p, fit(p), values[p]) for p = hi+1..hi+3], or raises
    PolynomialityError when the window does not certify a polynomial.
    """
    fit = fit_polynomial(range(6, hi + 1), [values[p] for p in range(6, hi + 1)])
    return fit, [(p, fit(p), values[p]) for p in range(hi + 1, hi + 4)]


# The least pmax whose fit window 6..pmax+4 holds the ZERO_SLACK + 1 samples
# that certify even a constant: verify's fits need it, and so do fit queries.
PMAX_MIN = ZERO_SLACK + 2
