"""Finitely supported integer-valued functions on the weight lattice.

These are elements of the group ring Z[P]: formal sums of exponentials of
lattice points. Characters, signed orbit sums and fans are all stored this
way. Multiplication is convolution; everything is exact.

Inside a LatticeSeries the terms live in a dict keyed by plain (d1, d2)
tuples of doubled coordinates, so the convolution adds integer pairs and
hashes tuples instead of building and hashing a Weight per term product.
Weight remains the type at the boundary: the constructor, items(),
support(), coeff() and JSON all take or give Weights. Hot loops outside
this module read the tuple-keyed terms through by_tuple().
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType

from .lattice import (
    POSITIVE_ROOTS,
    RHO,
    WEYL_GROUP,
    Weight,
    is_dominant,
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

    def support(self):
        return [Weight(d1, d2) for d1, d2 in sorted(self._terms)]

    def mass(self) -> int:
        return sum(self._terms.values())

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

    def translate(self, shift: Weight) -> "LatticeSeries":
        s1, s2 = shift.d1, shift.d2
        return LatticeSeries._from_tuples(
            {(d1 + s1, d2 + s2): c for (d1, d2), c in self._terms.items()}
        )

    def reflect(self) -> "LatticeSeries":
        """Image under the full reflection w -> -w."""
        return LatticeSeries._from_tuples({(-d1, -d2): c for (d1, d2), c in self._terms.items()})

    def apply_weyl(self, w) -> "LatticeSeries":
        return LatticeSeries({w.apply(x): c for x, c in self.items()})

    def is_weyl_invariant(self) -> bool:
        return all(self.apply_weyl(w) == self for w in WEYL_GROUP)

    def support_bounds(self):
        """Exact bounding box ((min d1, max d1), (min d2, max d2)), doubled coords."""
        if not self._terms:
            return (0, 0), (0, 0)
        d1s = [d1 for d1, _ in self._terms]
        d2s = [d2 for _, d2 in self._terms]
        return (min(d1s), max(d1s)), (min(d2s), max(d2s))

    def to_json_obj(self):
        return [{"weight": w.text(), "coeff": str(c)} for w, c in self.items()]

    @classmethod
    def from_json_obj(cls, obj) -> "LatticeSeries":
        return cls({Weight.parse(e["weight"]): int(e["coeff"]) for e in obj})

    def __repr__(self):
        inner = ", ".join(f"{w.text()}: {c}" for w, c in self.items())
        return f"Series{{{inner}}}"


@lru_cache(maxsize=None)
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


def _orbit(w: Weight):
    return {g.apply(w) for g in WEYL_GROUP}


def _dominant_points_below(lam: Weight):
    """Dominant lattice points mu on lam's coset with mu <= lam in the root order."""
    out = []
    for d1 in range(lam.d1 % 2, lam.d1 + 1, 2):
        for d2 in range(d1 % 2, d1 + 1, 2):
            mu = Weight(d1, d2)
            diff = lam - mu
            # lam - mu must be a nonnegative integer combination of alpha1, alpha2:
            # diff = x*(1,-1) + y*(0,1) with x = diff.v1 >= 0 and y = x + diff.v2 >= 0
            two_x = diff.d1
            two_y = diff.d1 + diff.d2
            if two_x >= 0 and two_y >= 0 and two_x % 2 == 0 and two_y % 2 == 0:
                out.append(mu)
    return out


def _ip4(x: Weight, y: Weight) -> int:
    # 4 * Euclidean inner product (doubled coords on both sides)
    return x.d1 * y.d1 + x.d2 * y.d2


@lru_cache(maxsize=None)
def weight_multiplicities(lam: Weight) -> LatticeSeries:
    """Weight diagram of the irreducible L^lam by the Freudenthal recursion.

    Independent of the singular-element machinery, so it can serve as an
    oracle against it. Recursion runs over dominant points ordered by
    decreasing height; the full diagram is then filled in by Weyl symmetry.
    """
    if not is_dominant(lam):
        raise ValueError(f"{lam} is not dominant")
    dom = _dominant_points_below(lam)
    # height 2*(x+y) where lam-mu = x*alpha1 + y*alpha2; equivalent level order
    dom.sort(key=lambda mu: (2 * (lam.d1 - mu.d1) + (lam.d1 + lam.d2 - mu.d1 - mu.d2), mu), reverse=False)

    mult = {}

    def get(nu: Weight) -> int:
        rep, _ = _plain_dominant(nu)
        return mult.get(rep, 0)

    lam_rho = lam + RHO
    c_lam = _ip4(lam_rho, lam_rho)
    for mu in dom:
        if mu == lam:
            mult[mu] = 1
            continue
        mu_rho = mu + RHO
        denom = c_lam - _ip4(mu_rho, mu_rho)
        if denom <= 0:
            mult[mu] = 0
            continue
        total = 0
        for alpha in POSITIVE_ROOTS:
            k = 1
            while True:
                nu = Weight(mu.d1 + k * alpha.d1, mu.d2 + k * alpha.d2)
                n = get(nu)
                if n == 0 and _height_above(lam, nu) < 0:
                    break
                total += n * _ip4(nu, alpha)
                k += 1
        val, rem = divmod(2 * total, denom)
        if rem:
            raise ArithmeticError(f"Freudenthal recursion produced a non-integer at {mu}")
        if val:
            mult[mu] = val

    full = {}
    for mu, n in mult.items():
        for x in _orbit(mu):
            full[x] = n
    return LatticeSeries(full)


def _plain_dominant(nu: Weight):
    """Dominant orbit representative ignoring regularity (sorted absolute coords)."""
    a, b = abs(nu.d1), abs(nu.d2)
    if a < b:
        a, b = b, a
    return Weight(a, b), None


def _height_above(lam: Weight, nu: Weight) -> int:
    # twice the alpha-height of lam - nu; negative once nu escapes the diagram cone
    diff = lam - nu
    return 2 * diff.d1 + (diff.d1 + diff.d2)
