"""Finitely supported integer-valued functions on the weight lattice.

These are elements of the group ring Z[P]: formal sums of exponentials of
lattice points. Characters, signed orbit sums and fans are all stored this
way. Multiplication is convolution; everything is exact.

Inside a LatticeSeries the terms live in a dict keyed by plain (d1, d2)
tuples of doubled coordinates, so the convolution adds integer pairs and
hashes tuples instead of building and hashing a Weight per term product.
Weight remains the type at the boundary: the constructor, items() and
coeff() take or give Weights. Hot loops outside this module
read the tuple-keyed terms through by_tuple(), and the JSON payload is
written from the tuples (series_json_obj).
"""

from __future__ import annotations

from types import MappingProxyType
from typing import NamedTuple

from .lattice import (
    POSITIVE_ROOTS,
    RHO,
    WEYL_GROUP,
    Weight,
    dominated,
    is_dominant,
    point_text,
)


class LatticeSeries:
    """Immutable sparse map Weight -> nonzero integer coefficient."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for w, c in (terms.items() if isinstance(terms, dict) else terms):
                if c:
                    key = (w.d1, w.d2)
                    clean[key] = clean.get(key, 0) + c
                    if clean[key] == 0:
                        del clean[key]
        self._terms = clean

    @classmethod
    def _from_tuples(cls, terms: dict) -> "LatticeSeries":
        # terms: (d1, d2) -> coefficient, zeros already dropped, owned by the result
        out = cls.__new__(cls)
        out._terms = terms
        return out

    @classmethod
    def unit(cls, w: Weight = Weight(0, 0), coeff: int = 1) -> "LatticeSeries":
        return cls({w: coeff})

    def by_tuple(self):
        """Read-only view of the terms as (d1, d2) -> nonzero coefficient.

        Keys are plain tuples of doubled coordinates, in no particular order.
        This is the one way for code outside this class to reach the terms
        without building a Weight per lookup.
        """
        return MappingProxyType(self._terms)

    def items(self):
        # deterministic order for serialization and iteration; tuple order is Weight order
        return [(Weight(d1, d2), c) for (d1, d2), c in sorted(self._terms.items())]

    def coeff(self, w: Weight) -> int:
        return self._terms.get((w.d1, w.d2), 0)

    def __len__(self):
        return len(self._terms)

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        return isinstance(other, LatticeSeries) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "LatticeSeries") -> "LatticeSeries":
        out = dict(self._terms)
        for k, c in other._terms.items():
            n = out.get(k, 0) + c
            if n:
                out[k] = n
            else:
                out.pop(k, None)
        return LatticeSeries._from_tuples(out)

    def __sub__(self, other: "LatticeSeries") -> "LatticeSeries":
        return self + other.scale(-1)

    def scale(self, c: int) -> "LatticeSeries":
        if c == 0:
            return LatticeSeries()
        return LatticeSeries._from_tuples({k: c * v for k, v in self._terms.items()})

    def __mul__(self, other: "LatticeSeries") -> "LatticeSeries":
        # convolution: e^a * e^b = e^(a+b); the smaller support is the outer loop
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        if len(a) > _PACKED_MIN_TERMS:
            grid = _Grid.of(a, b)
            if grid.slots <= len(a) * len(b):
                return LatticeSeries._from_tuples(_packed_product(a, b, grid))
        inner = tuple(b.items())
        out = {}
        get = out.get
        for (a1, a2), ca in a.items():
            for (b1, b2), cb in inner:
                k = (a1 + b1, a2 + b2)
                out[k] = get(k, 0) + ca * cb
        return LatticeSeries._from_tuples({k: c for k, c in out.items() if c})

    def power(self, n: int) -> "LatticeSeries":
        if n < 0:
            raise ValueError("negative power")
        # Repeated multiplication by the base, not binary exponentiation: every
        # caller raises a small factor (an 8-term singular element or R), and
        # squaring a large sparse operand costs far more than n passes of it
        # against 8 terms.
        acc = LatticeSeries.unit()
        for _ in range(n):
            acc = acc * self
        return acc

    def reflect(self) -> "LatticeSeries":
        """Image under the full reflection w -> -w."""
        return LatticeSeries._from_tuples({(-d1, -d2): c for (d1, d2), c in self._terms.items()})

    def to_json_obj(self):
        return series_json_obj(sorted(self._terms.items()))

    def __repr__(self):
        inner = ", ".join(f"{w.text()}: {c}" for w, c in self.items())
        return f"Series{{{inner}}}"


def series_json_obj(terms) -> list:
    """JSON payload of a series: [{"weight": "v1,v2", "coeff": "c"}, ...].

    terms are ((d1, d2), coeff) pairs in ascending point order, which is
    Weight order; zero coefficients are left out, as a LatticeSeries holds
    none.
    """
    return [{"weight": point_text(d1, d2), "coeff": str(c)} for (d1, d2), c in terms if c]


# Packed products (Kronecker substitution).
#
# A product whose smaller operand has more than _PACKED_MIN_TERMS terms is
# computed as one big-integer product instead of a loop over term pairs.
# Each operand becomes an integer X = sum_x a_x * z^slot(x) in the base
# z = 2^(8*size), and the product's coefficients are the base-z digits of X*Y.
#
# Exactness. Let (lo1, lo2) be the corner (coordinatewise minimum) of an
# operand, s the step (2 when every point of both operands differs from its
# own corner by even amounts in both coordinates, else 1) and
# W = (d2 span of a + d2 span of b)/s + 1. The slot of an a-point x is
# (x1 - lo1)/s * W + (x2 - lo2)/s, and likewise for b with b's corner. The
# map is affine with the same W on both sides, so slot(x) + slot(y) is the
# slot of x + y in the product grid with corner lo_a + lo_b, and the d2 offset
# of x + y is at most W - 1, so every slot k names exactly one product point
# (row k // W, column k % W). Hence X*Y = sum_k c_k z^k with c_k the exact
# product coefficient of slot k. For one k each x pairs with at most one y,
# so |c_k| <= sum|a| * max|b| (and symmetrically); bound is the smaller of
# the two. With 8*size >= bound.bit_length() + 1 (one sign bit),
# |c_k| <= bound < h = 2^(8*size - 1). Adding H = sum_k h z^k gives
# sum_k (c_k + h) z^k with 0 < c_k + h < 2h = z: these are exactly the base-z
# digits of X*Y + H, read back slot by slot from one to_bytes, minus h. The
# operands' own coefficients are at most bound in size, so each fits its
# slot too: X is the positive bytes minus the negative bytes.
#
# Threshold: the smaller operand must have more than 16 terms, so every chain
# (the 4- and 5-term characters, the 8-term singular elements and R) stays on
# the dict loop. Against R^17 (2 024 terms), dict/packed took 11.0/7.2 ms
# with 8 terms, 21.5/7.7 with 16, 43.6/8.2 with 32 and 171/12 with 128; the
# products R^(p-1) * Phi of fan-identity (792 x 2 024 terms at p = 18) went
# from 0.85 s to 0.026 s. A product whose grid has more slots than term pairs
# (far-apart sparse operands) also stays on the dict loop, which bounds the
# packed path's memory by that of the term pairs.
#
# Two measured dead ends:
#   * unpacking by repeated `>>=` of the product copies the remaining integer
#     each time, which is quadratic in its size, and was slower than the dict
#     product; one to_bytes and slicing is linear;
#   * packing a whole chain as one big-integer power costs more than it
#     saves: Pi_vector at p = 60 took 30.8 s that way against 7.9 s for the
#     dict chain, because the slots must be as wide as the largest final
#     coefficient from the first factor on.

_PACKED_MIN_TERMS = 16


class _Grid(NamedTuple):
    """Slot layout of a packed product: operand corners, step and row width."""

    corner_a: tuple
    corner_b: tuple
    step: int
    width: int
    rows_a: int
    rows_b: int

    @classmethod
    def of(cls, a: dict, b: dict) -> "_Grid":
        (alo1, ahi1, alo2, ahi2), (blo1, bhi1, blo2, bhi2) = _box(a), _box(b)
        even = all(not ((d1 - alo1) | (d2 - alo2)) & 1 for d1, d2 in a) and all(
            not ((d1 - blo1) | (d2 - blo2)) & 1 for d1, d2 in b
        )
        step = 2 if even else 1
        return cls(
            (alo1, alo2),
            (blo1, blo2),
            step,
            (ahi2 - alo2 + bhi2 - blo2) // step + 1,
            (ahi1 - alo1) // step + 1,
            (bhi1 - blo1) // step + 1,
        )

    @property
    def slots(self) -> int:
        return (self.rows_a + self.rows_b - 1) * self.width


def _box(terms: dict):
    d1s = [d1 for d1, _ in terms]
    d2s = [d2 for _, d2 in terms]
    return min(d1s), max(d1s), min(d2s), max(d2s)


def _pack(terms: dict, corner: tuple, rows: int, grid: _Grid, size: int) -> int:
    lo1, lo2 = corner
    step, width = grid.step, grid.width
    pos = bytearray(rows * width * size)
    neg = bytearray(len(pos))
    for (d1, d2), c in terms.items():
        i = ((d1 - lo1) // step * width + (d2 - lo2) // step) * size
        if c > 0:
            pos[i : i + size] = c.to_bytes(size, "little")
        else:
            neg[i : i + size] = (-c).to_bytes(size, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _packed_product(a: dict, b: dict, grid: _Grid = None) -> dict:
    """The convolution of two tuple-keyed term dicts by one integer product.

    grid is _Grid.of(a, b), passed when the caller already has it; the
    result drops zeros, as the dict loop does. See the comment above
    _PACKED_MIN_TERMS for why it is exact.
    """
    if not a or not b:
        return {}
    if grid is None:
        grid = _Grid.of(a, b)
    bound = min(
        sum(map(abs, a.values())) * max(map(abs, b.values())),
        sum(map(abs, b.values())) * max(map(abs, a.values())),
    )
    size = (bound.bit_length() + 8) // 8  # bytes per slot: bound plus one sign bit
    x = _pack(a, grid.corner_a, grid.rows_a, grid, size)
    y = _pack(b, grid.corner_b, grid.rows_b, grid, size)
    n = grid.slots
    half = 1 << (8 * size - 1)
    zero = half.to_bytes(size, "little")  # the digit of a zero coefficient
    digits = (x * y + int.from_bytes(zero * n, "little")).to_bytes(n * size, "little")
    lo1 = grid.corner_a[0] + grid.corner_b[0]
    lo2 = grid.corner_a[1] + grid.corner_b[1]
    step, width = grid.step, grid.width
    from_bytes = int.from_bytes
    out = {}
    for k in range(n):
        digit = digits[k * size : (k + 1) * size]
        if digit != zero:
            row, col = divmod(k, width)
            out[lo1 + row * step, lo2 + col * step] = from_bytes(digit, "little") - half
    return out


class PowerChain:
    """The powers factor^0, factor^1, ... of one series, each built once.

    Indexing fills the chain bottom-up by a loop from its highest built
    power, one multiplication by the factor per new power, so a large power
    takes no recursion. Every chain raises a small factor, for which n passes
    against its few terms cost far less than squaring a large operand.
    """

    __slots__ = ("_factor", "_powers")

    def __init__(self, factor: LatticeSeries):
        self._factor = factor
        self._powers = [LatticeSeries.unit()]

    def __getitem__(self, n: int) -> LatticeSeries:
        if n < 0:
            raise ValueError("negative power")
        powers = self._powers
        while len(powers) <= n:
            powers.append(powers[-1] * self._factor)
        return powers[n]


def singular_element(lam: Weight) -> LatticeSeries:
    """Signed orbit sum e^(w(lam+rho)-rho) weighted by det(w), 8 terms."""
    if not is_dominant(lam):
        raise ValueError(f"{lam} is not dominant")
    shifted = lam + RHO
    terms = {}
    for w in WEYL_GROUP:
        terms[w.apply(shifted) - RHO] = w.det
    if len(terms) != 8:
        # lam+rho is regular, so its orbit is free
        raise RuntimeError(f"orbit of {lam}+rho has {len(terms)} points, expected 8")
    return LatticeSeries(terms)


def denominator_product() -> LatticeSeries:
    """Product of (1 - e^(-alpha)) over the positive roots; equals singular_element(0)."""
    acc = LatticeSeries.unit()
    for alpha in POSITIVE_ROOTS:
        acc = acc * (LatticeSeries.unit() - LatticeSeries.unit(-alpha))
    return acc


# Height of a doubled point for the Freudenthal walk: f(d1, d2) = 3*d1 + d2
# is 4x + 2y on x*alpha1 + y*alpha2 (alpha1 = (2, -2), alpha2 = (0, 2)
# doubled), so it is positive on every positive root. Each root carries its
# doubled coordinates and its height.
_ROOT_STEPS = tuple((a.d1, a.d2, 3 * a.d1 + a.d2) for a in POSITIVE_ROOTS)


def weight_multiplicities(lam: Weight) -> LatticeSeries:
    """Weight diagram of the irreducible L^lam by the Freudenthal recursion.

    Independent of the singular-element machinery, so it can serve as an
    oracle against it. Recursion runs over dominant points ordered by
    decreasing height, on (d1, d2) tuples; a point off the chamber is looked
    up at its sorted absolute coordinates, and the full diagram is then
    filled in by Weyl symmetry.
    """
    if not is_dominant(lam):
        raise ValueError(f"{lam} is not dominant")
    l1, l2 = lam.d1, lam.d2
    top = 3 * l1 + l2
    dom = dominated(l1, l2)
    # every point a step depends on is strictly higher, so comes first; lam,
    # the one point of height 0, heads the list
    dom.sort(key=lambda mu: (top - 3 * mu[0] - mu[1], mu))

    r1, r2 = RHO.d1, RHO.d2
    c_lam = (l1 + r1) ** 2 + (l2 + r2) ** 2  # 4 |lam + rho|^2
    mult = {(l1, l2): 1}
    for m1, m2 in dom[1:]:
        denom = c_lam - (m1 + r1) ** 2 - (m2 + r2) ** 2
        if denom <= 0:
            continue
        height = top - 3 * m1 - m2  # f(lam - mu)
        total = 0
        for a1, a2, step in _ROOT_STEPS:
            # nu = mu + k*alpha has f(lam - nu) = height - k*step, which is
            # negative for k > height // step: such nu lie above lam, outside
            # the diagram, so the walk stops there
            nu1, nu2 = m1, m2
            for _ in range(height // step):
                nu1 += a1
                nu2 += a2
                x, y = abs(nu1), abs(nu2)
                n = mult.get((x, y) if x >= y else (y, x))
                if n:
                    total += n * (nu1 * a1 + nu2 * a2)
        val, rem = divmod(2 * total, denom)
        if rem:
            raise ArithmeticError(
                f"Freudenthal recursion produced a non-integer at {Weight(m1, m2)}"
            )
        if val:
            mult[m1, m2] = val

    full = {}
    for mu, n in mult.items():
        for g in WEYL_GROUP:
            full[g.act(*mu)] = n
    return LatticeSeries._from_tuples(full)
