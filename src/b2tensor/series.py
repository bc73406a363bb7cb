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

    # _powers is set by the first power() call and read with a default, so
    # the constructors never touch it
    __slots__ = ("_terms", "_powers")

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
        inner = tuple(b.items())
        out = {}
        get = out.get
        for (a1, a2), ca in a.items():
            for (b1, b2), cb in inner:
                k = (a1 + b1, a2 + b2)
                out[k] = get(k, 0) + ca * cb
        return LatticeSeries._from_tuples({k: c for k, c in out.items() if c})

    def power(self, n: int) -> "LatticeSeries":
        """self^n, built once and kept.

        A series keeps every power it has been raised to for as long as it
        lives. A new power is filled bottom-up by a loop from the highest one
        held, one multiplication by self per new power, so a large power
        takes no recursion. Repeated multiplication, not squaring: every
        caller raises a small factor (a fundamental weight diagram, an
        8-term singular element or R), and n passes of a large operand
        against a few terms cost far less than squaring it.
        """
        if n < 0:
            raise ValueError("negative power")
        powers = getattr(self, "_powers", None)
        if powers is None:
            powers = self._powers = [LatticeSeries.unit()]
        while len(powers) <= n:
            powers.append(powers[-1] * self)
        return powers[n]

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


def is_product(c: LatticeSeries, a: LatticeSeries, b: LatticeSeries) -> bool:
    """Whether c == a * b, decided by one big-integer product.

    Each series becomes an integer E(x) = sum of coeff * z^slot over its
    points (Kronecker substitution), and c == a * b exactly when
    E(a) * E(b) == E(c). A grid with more slots than term pairs (far-apart
    sparse operands) is compared through the dict product instead, which
    bounds the memory by that of the term pairs.

    Grid: a and b each have their corner (coordinatewise minimum), and the
    product box has the sum of the corners. The step s is 2 when a and b
    each lie on the even coset of their own corner, else 1, and every row
    is W = (d2 span of a + d2 span of b)/s + 1 slots wide. The slot of x is
    (x1 - lo1)/s * W + (x2 - lo2)/s, so the slots of x and y add to that of
    x + y. A point of c off the product grid is not a point of a * b.

    Exactness: a product coefficient is at most sum|a| * max|b| (for one
    slot each x pairs with at most one y), and symmetrically; a slot of
    8*size bits with 2^(8*size - 1) above that bound and above max|c| keeps
    every digit under z/2 in absolute value. Two base-z expansions whose
    digits are all under z/2 in absolute value are equal only digit by
    digit: the digits of their difference are under z, so its lowest
    nonzero digit, at z^k, leaves it nonzero mod z^(k+1).
    """
    at, bt, ct = a._terms, b._terms, c._terms
    if not at or not bt:
        return not ct
    (alo1, ahi1, alo2, ahi2), (blo1, bhi1, blo2, bhi2) = _box(at), _box(bt)
    step = 2 if _on_even_coset(at, alo1, alo2) and _on_even_coset(bt, blo1, blo2) else 1
    lo1, lo2, hi1, hi2 = alo1 + blo1, alo2 + blo2, ahi1 + bhi1, ahi2 + bhi2
    width = (hi2 - lo2) // step + 1
    if ((hi1 - lo1) // step + 1) * width > len(at) * len(bt):
        return c == a * b
    if not ct:
        return False  # Z[P] has no zero divisors, so a * b != 0
    clo1, chi1, clo2, chi2 = _box(ct)
    if clo1 < lo1 or clo2 < lo2 or chi1 > hi1 or chi2 > hi2:
        return False
    if step == 2 and not _on_even_coset(ct, lo1, lo2):
        return False
    bound = max(
        min(
            sum(map(abs, at.values())) * max(map(abs, bt.values())),
            sum(map(abs, bt.values())) * max(map(abs, at.values())),
        ),
        max(map(abs, ct.values())),
    )
    size = (bound.bit_length() + 8) // 8  # bytes per slot: bound plus one sign bit
    x = _encode(at, alo1, alo2, ahi1, step, width, size)
    y = _encode(bt, blo1, blo2, bhi1, step, width, size)
    return x * y == _encode(ct, lo1, lo2, hi1, step, width, size)


def _encode(terms: dict, lo1: int, lo2: int, hi1: int, step: int, width: int, size: int) -> int:
    # sum of coeff * 2^(8 * size * slot), with corner (lo1, lo2) and last row at hi1
    pos = bytearray(((hi1 - lo1) // step + 1) * width * size)
    neg = bytearray(len(pos))
    for (d1, d2), c in terms.items():
        i = ((d1 - lo1) // step * width + (d2 - lo2) // step) * size
        if c > 0:
            pos[i : i + size] = c.to_bytes(size, "little")
        else:
            neg[i : i + size] = (-c).to_bytes(size, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _box(terms: dict):
    d1s = [d1 for d1, _ in terms]
    d2s = [d2 for _, d2 in terms]
    return min(d1s), max(d1s), min(d2s), max(d2s)


def _on_even_coset(terms: dict, lo1: int, lo2: int) -> bool:
    return all(not ((d1 - lo1) | (d2 - lo2)) & 1 for d1, d2 in terms)


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
