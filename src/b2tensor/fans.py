"""Injection fans and singular elements of tensor powers.

The fan of the p-fold diagonal injection is the (p-1)-th convolution power
of the denominator product R. Two series are attached to the p-th tensor
power of a fundamental module:

  * the direct singular element  Phi = ch^p * R   (one denominator), whose
    coefficient function is the antisymmetrized multiplicity function, and
  * the projected power          Pi  = (Psi^omega)^p = ch^p * R^p,
    the p-fold product of one-factor singular elements.

They are tied together by R^(p-1) * Phi = Pi. In pointwise form that reads

    sum_gamma gamma_p(gamma) * Phi(mu + gamma) + Pi(mu) = 0   for every mu,

with gamma_p(a,b) = -R^(p-1)(-a,-b), so the zero point carries -1. Solving
this for the top unknown weight by weight is the fan recursion; rearranged,
Pi is the source term the recursion adds at each step.

The closed-form evaluators here compute coefficients of R^(p-1) (fan) and of
Pi (singular powers). Each exists in two variants: a verbatim transcription
of the published index formula, and a validated evaluator that matches the
direct convolution exactly. CLOSED_FORMS holds both as batch evaluators, one
entry per kind; closed_form_window reads the direct values they are checked
against off the chamber chains, and diff_report exposes their disagreements.
closed_form_point answers one point of a validated form from the builders
and factor vectors its earlier calls made, kept per (kind, p) in tables of
at most FACTOR_CHARGE vectors and ints; a batch builds its own and keeps
nothing.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import lru_cache, partial
from math import comb
from operator import mul
from typing import Callable, NamedTuple

from .cache import BoundedLRU
from .engine import MultiplicityFunction, m_extended, tensor_power_weights
from .lattice import FUNDAMENTAL, RHO, Weight, band, power_highest_weight, reflect_to_chamber
from .series import ChamberChain, LatticeSeries, denominator_product, singular_element


# ---------------------------------------------------------------------------
# fans


_DENOMINATOR = denominator_product()
# the powers of R, kept on the closed chamber: e^rho R = Delta is anti-invariant
_FAN = ChamberChain(_DENOMINATOR, signed=True)


def _fan_power(p: int) -> int:
    # the exponent p - 1 of the fan of p factors
    if p < 1:
        raise ValueError("fan needs p >= 1")
    return p - 1


def fan_power_direct(p: int) -> LatticeSeries:
    """R^(p-1): the fan of the diagonal injection into p factors (p >= 1), a new series per call."""
    return _FAN.unfold(_fan_power(p))


def fan_with_zero(p: int) -> LatticeSeries:
    """Fan coefficients gamma_p(a,b) = -R^(p-1)(-a,-b), zero point included (-1).

    A new series per call; the fan solve reads R^(p-1) itself instead.
    """
    return fan_power_direct(p).reflect().scale(-1)


def _tb_lax(j: int, i: int) -> int:
    # binomial with the widened domain 0 <= i <= j (validated reading)
    return comb(j, i) if 0 <= i <= j else 0


def _tb_strict(j: int, i: int) -> int:
    # truncated binomial exactly as printed: C(j,i) for 0 < i <= j, else 0
    return comb(j, i) if 0 < i <= j else 0


def _nonzero_range(first: int, last: int, offset: int, step: int, width: int) -> range:
    """The i in first..last with 0 <= offset - step*i <= width.

    Outside this range the truncated binomial tb(width, offset - step*i) is
    zero under both readings (C(j,i) vanishes unless 0 <= i <= j), so a sum
    over i may skip those terms exactly.
    """
    lo = max(first, -((width - offset) // step))  # ceil((offset - width) / step)
    hi = min(last, offset // step)
    return range(lo, hi + 1)


# Each validated closed form is a sum over k of a product of a factor that
# depends on k and the first coordinate only and one that depends on k and
# the second coordinate only (the sign splits the same way). So for a fixed
# p every coordinate value gets one vector over k, and each point is one dot
# product of its two vectors. The builders of a (kind, p) give the coset and
# a point's two coordinates on it, and build each vector. A batch builds each vector once and
# drops its tables when it returns; closed_form_point keeps the builders and
# the tables of its (kind, p) across calls, under the bound FACTOR_CHARGE.
# This only reorders the published sums; they share no code with the
# convolutions they are checked against.


class Builders(NamedTuple):
    """The factored form of one closed form at one p.

    A doubled point (d1, d2) lies on the coset when d1 and d2 both have the
    parity parity; its factor coordinates are then (d1 >> shift, d2 >> shift),
    and its value first(x) . second(y). Off the coset the value is 0.
    """

    parity: int
    shift: int
    first: Callable  # x -> the vector over k of the factors of x
    second: Callable  # y -> the vector over k of the factors of y


def _nonzero(u: list):
    # a vector of zeros is kept as (), so its dot products end at once
    return u if any(u) else ()


def _factored(points, builders: Builders) -> list:
    """The value of builders at each doubled point, each vector built once."""
    parity, shift, first, second = builders
    firsts, seconds = {}, {}
    out = []
    for d1, d2 in points:
        if ((d1 ^ parity) | (d2 ^ parity)) & 1:  # off the coset
            out.append(0)
            continue
        x, y = d1 >> shift, d2 >> shift
        u = firsts.get(x)
        if u is None:
            u = firsts[x] = _nonzero(first(x))
        v = seconds.get(y)
        if v is None:
            v = seconds[y] = _nonzero(second(y))
        out.append(sum(map(mul, u, v)))
    return out


def _fan_builders(p: int, tb) -> Builders:
    # the fan closed form at doubled points (2a, 2b), 0 off the even coset:
    # gamma_p(a,b) = (-1)^(a+b) sum_k (-1)^k tb(p-1,k-1) M_k(a) L_k(b), with the
    # m-sum M_k(a) depending on (k, a) only and the l-sum L_k(b) on (k, b) only
    ks = range(1, p + 1)

    def first(a: int) -> list:
        out = []
        for k in ks:
            total = 0
            for m in _nonzero_range(1, p - k + 1, a - k + 4, 3, k - 1):
                total += tb(p - k, m - 1) * tb(k - 1, a - k - 3 * m + 4)
            out.append(-total if a % 2 else total)
        return out

    def second(b: int) -> list:
        out = []
        for k in ks:
            total = 0
            for l in _nonzero_range(1, k, b + k + 2, 3, p - k):
                total += tb(k - 1, l - 1) * tb(p - k, b + k - 3 * l + 2)
            if total:
                total *= tb(p - 1, k - 1)
            out.append(-total if (k + b) % 2 else total)
        return out

    return Builders(0, 1, first, second)  # (2a, 2b) -> (a, b)


def _fan_many(p: int, points, tb) -> list:
    return _factored(points, _fan_builders(p, tb))


def fan_closed_form(p: int, a: int, b: int) -> int:
    """Validated closed form for gamma_p(a,b); equals fan_with_zero(p) everywhere."""
    return _fan_many(p, [(2 * a, 2 * b)], _tb_lax)[0]


def fan_line_structure(p: int):
    """Coefficients of R^(p-1) along the alpha1 line from its lowest corner.

    Returns [(t, coeff at corner + t*alpha1)] for t = 0..p. Validated values
    are (-1)^t C(p-1,t), so the t=p entry is 0; the published structure claim
    expects p+1 nonzero line points weighted by C(p,t) instead.
    """
    n = _fan_power(p)
    # from the corner (-6n, -2n) in steps of alpha1 = (2, -2) doubled
    return [(t, _FAN.at(n, 2 * t - 6 * n, -2 * t - 2 * n)) for t in range(p + 1)]


# ---------------------------------------------------------------------------
# singular elements of tensor powers


def singular_power_direct(module: str, p: int) -> LatticeSeries:
    """Direct singular element Phi = ch(L)^p * R = sum_mu m_mu Psi^(mu)."""
    return tensor_power_weights(module, p) * _DENOMINATOR


# the powers of Psi^omega, kept on the closed chamber: e^rho Psi^omega =
# A_(omega+rho) is anti-invariant
_PROJECTED = {
    module: ChamberChain(singular_element(omega), signed=True)
    for module, omega in FUNDAMENTAL.items()
}


def singular_power_projected(module: str, p: int) -> LatticeSeries:
    """Projected power Pi = (Psi^omega)^p, a new series per call; the closed forms below evaluate it."""
    return _PROJECTED[module].unfold(p)


def projected_at(module: str, p: int, mu: Weight) -> int:
    """Pi = (Psi^omega)^p at mu, read from its chamber without unfolding."""
    return _PROJECTED[module].at(p, mu.d1, mu.d2)


def _vector_builders(p: int, tb) -> Builders:
    # the vector closed form at doubled points (2c, 2d), 0 off the even coset:
    # Pi_vector(c,d) = (-1)^c sum_k (-1)^(k+p+1+d) tb(p,k-1) M_k(c) L_k(d): the
    # printed sign exponent k-d-c+p-4(l+m)+7 has the parity of k+d+c+p+1
    ks = range(1, p + 2)

    def first(c: int) -> list:
        out = []
        for k in ks:
            total = 0
            for m in _nonzero_range(1, p - k + 2, p - c - 2 * k + 7, 5, k - 1):
                total += tb(p - k + 1, m - 1) * tb(k - 1, p - c - 2 * k - 5 * (m - 1) + 2)
            out.append(-total if c % 2 else total)
        return out

    def second(d: int) -> list:
        out = []
        for k in ks:
            total = 0
            for l in _nonzero_range(1, k, -d + 2 * k + 3, 5, p - k + 1):
                total += tb(k - 1, l - 1) * tb(p - k + 1, -d + 2 * k - 5 * (l - 1) - 2)
            if total:
                total *= tb(p, k - 1)
            out.append(-total if (k + p + 1 + d) % 2 else total)
        return out

    return Builders(0, 1, first, second)  # (2c, 2d) -> (c, d)


def _vector_many(p: int, points, tb) -> list:
    return _factored(points, _vector_builders(p, tb))


def vector_singular_closed(p: int, weight: Weight) -> int:
    """Validated coefficient of Pi_vector at the given point (lax binomials)."""
    return _vector_many(p, [(weight.d1, weight.d2)], _tb_lax)[0]


def _spinor_builders(p: int) -> Builders:
    # the spinor closed form at doubled points (d1, d2), 0 off the p-th spinor coset:
    # Pi_spinor = sum_k (-1)^k C(p,k) A_k(d1) B_k(d2), where the (i, j) block
    # A_k depends on (k, d1) only and the (n, m) block B_k on (k, d2) only
    ks = range(p + 1)

    def first(d1: int) -> list:
        out = []
        for k in ks:
            x = (p - 2 * k) - d1  # = 8i + 4j
            total = 0
            if x >= 0 and not x % 4:
                for i in range(min(p - k, x // 8) + 1):
                    j = (x - 8 * i) // 4
                    if j <= k:
                        total += (-1 if (i + j) % 2 else 1) * comb(p - k, i) * comb(k, j)
            if total:
                total *= comb(p, k)
            out.append(-total if k % 2 else total)
        return out

    def second(d2: int) -> list:
        out = []
        for k in ks:
            y = (p + 2 * k) - d2  # = 8n + 4m
            total = 0
            if y >= 0 and not y % 4:
                for n in range(min(k, y // 8) + 1):
                    m = (y - 8 * n) // 4
                    if m <= p - k:
                        total += (-1 if (m + n) % 2 else 1) * comb(p - k, m) * comb(k, n)
            out.append(total)
        return out

    return Builders(p % 2, 0, first, second)


def spinor_singular_closed(p: int, weight: Weight) -> int:
    """Validated coefficient of Pi_spinor at the given point.

    Re-derived from the block structure of the construction (the published
    pointwise formula reuses one block index and collapses; see the diff
    report). In doubled coordinates, with X = (p - 2k) - d1 = 8i + 4j and
    Y = (p + 2k) - d2 = 8n + 4m, the coefficient is
    sum (-1)^(k+i+j+m+n) C(p,k) C(p-k,i) C(k,j) C(p-k,m) C(k,n).
    """
    return _factored([(weight.d1, weight.d2)], _spinor_builders(p))[0]


def _spinor_printed_many(p: int, points) -> list:
    # The published sum over k = 1..p+1, l = 1..k, m = 1..p-k+2 of
    #   (-1)^(k + (c-d)/2 - (l+m) + 1) tb(p,k-1) tb(k,l-1) tb(p-k+1,m-1)
    #     tb(k, (1/2)(4(1-m)-k+c-p/2+1)) tb(k, (1/2)(2-4m+k-d+p/2+1)),
    # with its superscripts consumed exactly as printed: half-integer binomial
    # arguments and non-integer sign exponents kill their terms, as a literal
    # reading dictates. Reordered only: the sign splits as
    # (-1)^(k+(c-d)/2+1) (-1)^l (-1)^m, and (-1)^l tb(k,l-1) are the only
    # l-dependent factors, so their sum is taken once per k. (c-d)/2 =
    # (c2-d2)/4 in doubled coordinates; where it is not an integer, neither is
    # any sign exponent, so every term dies.
    ks = range(1, p + 2)
    outer = [
        _tb_strict(p, k - 1)
        * sum(-_tb_strict(k, l - 1) if l % 2 else _tb_strict(k, l - 1) for l in range(1, k + 1))
        for k in ks
    ]
    out = []
    for c2, d2 in points:
        if (c2 - d2) % 4:
            out.append(0)
            continue
        q = (c2 - d2) // 4
        total = 0
        for k, front in zip(ks, outer):
            if not front:
                continue
            m_sum = 0
            for m in range(1, p - k + 3):
                # the two superscripts, quadrupled
                s3_quad = 2 * (4 * (1 - m) - k + 1) + c2 - p
                s5_quad = 2 * (2 - 4 * m + k + 1) - d2 + p
                term = (
                    _tb_strict(p - k + 1, m - 1)
                    * _tb_quarter(k, s3_quad)
                    * _tb_quarter(k, s5_quad)
                )
                m_sum += -term if m % 2 else term
            term = front * m_sum
            total += -term if (k + q + 1) % 2 else term
        out.append(total)
    return out


def _tb_quarter(j: int, quad_i: int) -> int:
    # strict truncated binomial whose superscript arrives multiplied by 4
    if quad_i % 4:
        return 0
    return _tb_strict(j, quad_i // 4)


class ClosedForm(NamedTuple):
    """The two readings of one closed-form kind; closed_form_window gives its truth.

    validated and printed take (p, points) with points a list of doubled
    (d1, d2) pairs and give one integer per point; validated gives 0 off
    the coset its truth lives on. builders(p) are those of the validated
    reading.
    """

    builders: Callable[[int], Builders]
    printed: Callable[[int, list], list]

    def validated(self, p: int, points) -> list:
        return _factored(points, self.builders(p))


CLOSED_FORMS = {
    "fan": ClosedForm(
        partial(_fan_builders, tb=_tb_lax),
        partial(_fan_many, tb=_tb_strict),
    ),
    "vector": ClosedForm(
        partial(_vector_builders, tb=_tb_lax),
        partial(_vector_many, tb=_tb_strict),
    ),
    "spinor": ClosedForm(
        _spinor_builders,
        _spinor_printed_many,
    ),
}


# The tables of closed_form_point, one entry (builders, firsts, seconds) per
# (kind, p), in one BoundedLRU. A vector is charged p + 2, itself and at most
# p + 1 ints (an all-zero vector, kept as (), is charged the same); the
# builders, about 550 bytes (tracemalloc, p <= 12), are not charged. While
# the tables are charged more than FACTOR_CHARGE the least recently used
# entry is dropped.
# query-mix (seed 1, 300 rounds, 4 500 closed-form --weight queries) filled 36
# tables with 1 803 vectors and 15 082 ints, charged 18 145. The worst case is
# at the LIMITS top, where the ints are largest: every kind at p = 30 down
# to 23, on each window point with |d1| = |d2|, ran past the bound; the
# tables then held 0.8 MB, 0.96 MB at the peak (tracemalloc, Python 3.11); a
# vector of zeros charged p + 2 holds less.
FACTOR_CHARGE = 1 << 15


def _table_charge(key, entry) -> int:
    (_, p), (_, firsts, seconds) = key, entry
    return (len(firsts) + len(seconds)) * (p + 2)


_POINT_TABLES = BoundedLRU(FACTOR_CHARGE, _table_charge)


def closed_form_point(kind: str, p: int, point) -> int:
    """The validated closed form of kind at one doubled point, from the
    builders and factor vectors of (kind, p) kept across calls."""
    key = (kind, p)
    entry = _POINT_TABLES.get(key)
    if entry is None:
        entry = (CLOSED_FORMS[kind].builders(p), {}, {})
        _POINT_TABLES.put(key, entry)
    (parity, shift, first, second), firsts, seconds = entry
    d1, d2 = point
    if ((d1 ^ parity) | (d2 ^ parity)) & 1:  # off the coset, as in _factored
        return 0
    x, y = d1 >> shift, d2 >> shift
    u, v = firsts.get(x), seconds.get(y)
    if u is None or v is None:
        held = _table_charge(key, entry)
        if u is None:
            u = firsts[x] = _nonzero(first(x))
        if v is None:
            v = seconds[y] = _nonzero(second(y))
        _POINT_TABLES.add(_table_charge(key, entry) - held)
    return sum(map(mul, u, v))


def diff_report(kind: str, p: int) -> list:
    """Machine-readable verbatim-vs-direct discrepancies over support plus halo.

    kind is one of 'fan', 'vector', 'spinor'. Entries look like
    {"point": "a,b", "printed": "<int>", "direct": "<int>"}.
    """
    try:
        form = CLOSED_FORMS[kind]
    except KeyError:
        raise ValueError(f"unknown diff kind {kind!r}") from None
    points, direct = closed_form_window(kind, p)
    return [
        {"point": Weight(*pt).text(), "printed": str(printed), "direct": str(want)}
        for pt, want, printed in zip(points, direct, form.printed(p, points))
        if printed != want
    ]


def closed_form_window(kind: str, p: int) -> tuple:
    """(points, values): the truth of kind at p on its support plus a halo of 2.

    Points ascend; values are Pi = (Psi^omega)^p for 'vector' and 'spinor'
    and gamma_p(x) = -R^(p-1)(-x) for 'fan', 0 on the halo.
    """
    if kind != "fan":
        return _PROJECTED[kind].window(p)
    # the window of R^(p-1), negated: the halo is symmetric, and negation
    # reverses the order of the points
    points, values = _FAN.window(_fan_power(p))
    return [(-d1, -d2) for d1, d2 in reversed(points)], [-v for v in reversed(values)]


# ---------------------------------------------------------------------------
# the fan recursion of the worked example


@lru_cache(maxsize=1)
def _fan_rows(p: int) -> tuple:
    """The shifts g != 0 of gamma_p(g) = -R^(p-1)(-g) (p >= 1) as rows
    (g1, g2s, cs): g1 ascending, and in each row the g2 ascending, with their
    coefficients. The rows of the last p are kept, so the solves of both
    modules at one p build them once."""
    fan = fan_power_direct(p).by_tuple()
    if fan.get((0, 0)) != 1:
        raise RuntimeError("degenerate leading fan coefficient")
    rows: dict = {}
    for (e1, e2), c in fan.items():
        if (e1, e2) != (0, 0):
            rows.setdefault(-e1, []).append((-e2, -c))
    return tuple((g1, *zip(*sorted(rows[g1]))) for g1 in sorted(rows))


def fan_recursion_solve(module: str, p: int) -> MultiplicityFunction:
    """Solve for the multiplicity function from the fan relation.

    Processes dominant weights row by row (first coordinate descending, then
    second descending): every fan shift either lands in an already-solved
    position or reflects onto one, so each step determines one new value:

        M(nu) = sum_{gamma != 0} gamma_p(gamma) M(nu + gamma) + Pi(nu).

    The zero point's coefficient -1 is what makes the step well posed.
    """
    l1, l2 = power_highest_weight(module, p)
    if p < 0:
        raise ValueError("negative power")
    if p == 0:
        return MultiplicityFunction(module, 0, {(0, 0): 1})
    rows = _fan_rows(p)
    r1, r2 = RHO.d1, RHO.d2
    # The cut. Fix nu, with n = nu + rho, and a row g1; write x = |n1 + g1|
    # and y = |n2 + g2|. A shift off the walls reflects onto the chamber
    # point (max(x, y), min(x, y)), so it reads a point rep = (max(x, y) - r1,
    # min(x, y) - r2) below p*omega, rep1 <= l1 and rep1 + rep2 <= l1 + l2,
    # exactly when max(x, y) <= l1 + r1 = top1 and x + y <= top = l1 + l2 +
    # r1 + r2. For a fixed x both are upper bounds on y: y <= cap =
    # min(top1, top - x). So the row is dead when x > top1; otherwise
    # top - x >= l2 + r2 > 0, so cap >= 0, and the live g2 are the one
    # interval |n2 + g2| <= cap, found by two bisections in the sorted row.
    # Every pair outside it reads a point beyond the support of the p-th
    # power, which a full scan would skip; wall points inside it are skipped
    # by their sign 0.
    top1, top = l1 + r1, l1 + l2 + r1 + r2
    pi = _PROJECTED[module].at

    known: dict = {}  # (d1, d2) -> M, dominant points solved so far
    for nu in reversed(band(module, p, None)):
        n1, n2 = nu[0] + r1, nu[1] + r2
        val = pi(p, *nu)  # the source term
        for g1, g2s, cs in rows:
            x = abs(n1 + g1)
            if x > top1:
                continue
            cap = min(top1, top - x)
            for j in range(bisect_left(g2s, -cap - n2), bisect_right(g2s, cap - n2)):
                a, b, sign = reflect_to_chamber(n1 + g1, n2 + g2s[j])
                if sign == 0:
                    continue
                try:
                    val += sign * cs[j] * known[a - r1, b - r2]
                except KeyError:
                    raise RuntimeError(
                        f"fan solve order broke at dependency {Weight(a - r1, b - r2).text()}"
                    ) from None
        known[nu] = val
    return MultiplicityFunction(module, p, {w: m for w, m in known.items() if m})


def fan_step_audit(module: str, p: int, nu: Weight) -> dict:
    """Audit trail of one fan-recursion step at nu.

    Returns {"lines": [(a, contribution)], "singular": Pi(nu), "total": M(nu)}
    where line a groups the fan shifts with first coordinate a (the worked
    example's "first line", "second line", ...). Shifted values come from the
    exact extended multiplicity function.
    """
    fan = fan_with_zero(p)
    zero = Weight(0, 0)
    lines: dict = {}
    for g, c in fan.items():
        if g == zero:
            continue
        contrib = c * m_extended(module, p, nu + g)
        if contrib:
            lines[g.d1 // 2] = lines.get(g.d1 // 2, 0) + contrib
    singular = projected_at(module, p, nu)
    total = sum(lines.values()) + singular
    return {"lines": sorted(lines.items()), "singular": singular, "total": total}
