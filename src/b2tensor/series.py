"""Finitely supported integer-valued functions on the weight lattice.

These are elements of the group ring Z[P]: formal sums of exponentials of
lattice points. Characters, signed orbit sums and fans are all stored this
way. Weyl orbits of closed-chamber values have two writers: _unfold builds a
series, and ChamberChain.window a support-plus-halo window, which must sort
its points. Multiplication is convolution; all is exact.

Inside a LatticeSeries the terms live in a dict keyed by plain (d1, d2)
tuples of doubled coordinates, so the convolution adds integer pairs and
hashes tuples instead of building and hashing a Weight per term product.
Weight remains the type at the boundary: the constructor, items() and
coeff() take or give Weights. Hot loops outside this module
read the tuple-keyed terms through by_tuple(), and the JSON payload is
written from the tuples (series_json_obj).
"""

from __future__ import annotations

import sys
from array import array
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

    __slots__ = ("_terms",)

    def __init__(self, terms: dict | None = None):
        # terms: Weight -> coefficient; zero coefficients are dropped
        self._terms = {(w.d1, w.d2): c for w, c in (terms or {}).items() if c}

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
        """self^n by n multiplications from the unit; nothing is kept.

        The library's power chains are ChamberChains; this plain product
        stays under its name because benchmark/tracing.py wraps it.
        """
        if n < 0:
            raise ValueError("negative power")
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
    nonzero digit, at z^k, leaves it nonzero mod z^(k+1). A size of at
    most 8 bytes is rounded up to the width of an array item, 1, 2, 4 or 8
    bytes (_WIDTHS); a wider slot keeps 2^(8*width - 1) above the bound, so
    the argument holds for it unchanged.
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
    if size < len(_WIDTHS):
        size = _WIDTHS[size]
    x = _encode(at, alo1, alo2, ahi1, step, width, size)
    y = _encode(bt, blo1, blo2, bhi1, step, width, size)
    return x * y == _encode(ct, lo1, lo2, hi1, step, width, size)


# The slot width of each size of 1 to 8 bytes: the smallest array item size,
# 1, 2, 4 or 8 bytes, that holds it.
_WIDTHS = (0, 1, 2, 4, 4, 8, 8, 8, 8)
# The unsigned array type code of each item size. A slot written as one item
# lies in the array's bytes in native order, which int.from_bytes reads as
# "little" only on a little-endian machine; a big-endian one has no codes here
# and writes every slot as a byte slice.
_UNSIGNED = {array(code).itemsize: code for code in "BHILQ"} if sys.byteorder == "little" else {}


def _encode(terms: dict, lo1: int, lo2: int, hi1: int, step: int, width: int, size: int) -> int:
    # sum of coeff * 2^(8 * size * slot), with corner (lo1, lo2) and last row at hi1:
    # each coefficient one array item when size is an item size, else a byte slice
    slots = ((hi1 - lo1) // step + 1) * width
    code = _UNSIGNED.get(size)
    if code is None:
        pos = bytearray(slots * size)
        neg = bytearray(len(pos))
        for (d1, d2), c in terms.items():
            i = ((d1 - lo1) // step * width + (d2 - lo2) // step) * size
            if c > 0:
                pos[i : i + size] = c.to_bytes(size, "little")
            else:
                neg[i : i + size] = (-c).to_bytes(size, "little")
    else:
        pos = array(code, bytes(slots * size))
        neg = array(code, bytes(slots * size))
        for (d1, d2), c in terms.items():
            i = (d1 - lo1) // step * width + (d2 - lo2) // step
            if c > 0:
                pos[i] = c
            else:
                neg[i] = -c
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
    orbit = _unfold({(lam.d1 + RHO.d1, lam.d2 + RHO.d2): 1}, -1, RHO.d1, RHO.d2)
    if len(orbit) != 8:
        # lam+rho is regular, so its orbit is free
        raise RuntimeError(f"orbit of {lam}+rho has {len(orbit)} points, expected 8")
    return orbit


def denominator_product() -> LatticeSeries:
    """Product of (1 - e^(-alpha)) over the positive roots; equals singular_element(0)."""
    acc = LatticeSeries.unit()
    for alpha in POSITIVE_ROOTS:
        acc = acc * (LatticeSeries.unit() - LatticeSeries.unit(-alpha))
    return acc


def _chamber_read(chamber, flip: int, d1: int, d2: int) -> int:
    """A W-symmetric function at (d1, d2), read from its closed-chamber dict.

    The point is taken to (|d1|, |d2|) sorted, and each of the (up to three)
    reflections on the way multiplies the value by flip: 1 for an invariant
    function, so the read is by abs and sort only, and -1, the determinant,
    for an anti-invariant one. An anti-invariant function is 0 on the walls,
    where its chamber dict holds no key.
    """
    sign = 1
    if d1 < 0:
        d1, sign = -d1, flip
    if d2 < 0:
        d2, sign = -d2, sign * flip
    if d1 < d2:
        d1, d2, sign = d2, d1, sign * flip
    return sign * chamber.get((d1, d2), 0)


def _unfold(chamber, flip: int, s1: int, s2: int) -> LatticeSeries:
    """The W-symmetric function with these chamber values, moved by -(s1, s2).

    Key (a, b) gives its eight images w(a, b), the value times flip where
    det(w) = -1, as in _chamber_read. The values are nonzero, and an
    anti-invariant chamber (flip -1) holds no wall point."""
    out = {}
    for (a, b), v in chamber.items():
        u = flip * v
        out[a - s1, b - s2] = v
        out[-a - s1, -b - s2] = v
        out[-b - s1, a - s2] = v
        out[b - s1, -a - s2] = v
        out[-a - s1, b - s2] = u
        out[a - s1, -b - s2] = u
        out[b - s1, a - s2] = u
        out[-b - s1, -a - s2] = u
    return LatticeSeries._from_tuples(out)


class ChamberChain:
    """The powers F^n of one factor F, each kept by its closed-chamber values.

    Unsigned, G = F must be W-invariant, as the weight diagram ch is; signed,
    G = e^rho F must be W-anti-invariant, as e^rho R = Delta and e^rho
    Psi^omega = A_(omega+rho) are. Then G^n is invariant, except that it is
    anti-invariant when G is and n is odd, so one point in eight determines
    it. Power n is held as the dict of the nonzero values of G^n on the
    closed chamber d1 >= d2 >= 0, and F^n(x) = G^n(x + n*s*rho) with s = 1
    if signed, else 0.

    An invariant power is read at (|d1|, |d2|) sorted; an anti-invariant one
    takes the determinant of the reflection into the chamber and is 0 on the
    walls.

    Step: G^n(y) = sum of c_a G^(n-1)(y - a) over the terms c_a e^a of G,
    computed only at the candidates y = rep(x + a), for x a key of the
    chamber dict of G^(n-1) and a in the support of G, rep being the sorted
    absolute values. No other chamber point can be nonzero: if G^n(y) != 0
    for a dominant y, then y - a = w x for some term a, some w in W and some
    key x, as the support of G^(n-1) is the W-orbit of its keys. So
    w^-1 y = x + w^-1 a, where w^-1 a lies in the support of G again because
    that support is W-stable, and y = rep(w^-1 y).

    Powers are filled bottom-up by a loop from the highest one held, so a
    large power takes no recursion, and the chain keeps every power it has
    built for as long as it lives. Only unfold builds a full series, and it
    keeps none; window reads a power without building one.
    """

    __slots__ = ("_terms", "_signed", "_chambers")

    def __init__(self, factor: LatticeSeries, signed: bool):
        s1, s2 = (RHO.d1, RHO.d2) if signed else (0, 0)
        g = {(d1 + s1, d2 + s2): c for (d1, d2), c in factor.by_tuple().items()}
        for w in WEYL_GROUP:
            sign = w.det if signed else 1
            if any(g.get(w.act(*x), 0) != sign * c for x, c in g.items()):
                raise ValueError(f"{factor} shifted by {int(signed)}*rho is not Weyl-symmetric")
        self._terms = tuple((a1, a2, c) for (a1, a2), c in g.items())
        self._signed = signed
        self._chambers = [{(0, 0): 1}]

    def _flip(self, n: int) -> int:
        # the sign a reflection puts on G^n: -1 when G^n is anti-invariant
        return -1 if self._signed and n % 2 else 1

    def chamber(self, n: int) -> MappingProxyType:
        """Read-only view of G^n on the closed chamber: (d1, d2) -> nonzero value."""
        return MappingProxyType(self.chamber_dict(n))

    def chamber_dict(self, n: int) -> dict:
        """The dict that chamber(n) views, itself: for a caller that reads it
        and never writes it, so no view is built for each read."""
        if n < 0:
            raise ValueError("negative power")
        chambers, terms = self._chambers, self._terms
        while len(chambers) <= n:
            prev = chambers[-1]
            flip = self._flip(len(chambers) - 1)
            walls_vanish = self._flip(len(chambers)) == -1
            xs1, xs2 = [x1 for x1, _ in prev], [x2 for _, x2 in prev]
            shifted = set()
            for a1, a2, _ in terms:
                shifted.update(zip(map(a1.__add__, xs1), map(a2.__add__, xs2)))
            candidates = set()
            for y1, y2 in shifted:
                y1, y2 = abs(y1), abs(y2)
                candidates.add((y1, y2) if y1 >= y2 else (y2, y1))
            get = prev.get
            nxt = {}
            for y1, y2 in candidates:
                if walls_vanish and (y2 == 0 or y1 == y2):
                    continue
                v = 0
                for a1, a2, c in terms:
                    # _chamber_read(prev, flip, y1 - a1, y2 - a2), inlined
                    z1, z2 = y1 - a1, y2 - a2
                    if z1 < 0:
                        z1, c = -z1, flip * c
                    if z2 < 0:
                        z2, c = -z2, flip * c
                    if z1 < z2:
                        z1, z2, c = z2, z1, flip * c
                    v += c * get((z1, z2), 0)
                if v:
                    nxt[y1, y2] = v
            chambers.append(nxt)
        return chambers[n]

    def at(self, n: int, d1: int, d2: int) -> int:
        """F^n at the doubled point (d1, d2), without unfolding."""
        s = n if self._signed else 0
        return _chamber_read(self.chamber_dict(n), self._flip(n), d1 + s * RHO.d1, d2 + s * RHO.d2)

    def unfold(self, n: int) -> LatticeSeries:
        """F^n as a full series, a new one per call."""
        s = n if self._signed else 0
        return _unfold(self.chamber_dict(n), self._flip(n), s * RHO.d1, s * RHO.d2)

    def window(self, n: int) -> tuple:
        """(points, values): F^n on its support plus a halo of 2; points ascend, 0 on the halo."""
        chamber, flip = self.chamber_dict(n), self._flip(n)
        s1, s2 = (n * RHO.d1, n * RHO.d2) if self._signed else (0, 0)
        # F^n(x) = G^n(x + s) with G^n W-symmetric, so supp F^n = W.C - s, C
        # the chamber keys, and supp + K = W.(C + K) - s for the W-invariant
        # K = {-2, 0, 2}^2. Its chamber part is (C + K) in the chamber: for a
        # chamber point z = w c + k, the fold (abs, sort) fixes z, sends w c to
        # c and is 1-Lipschitz in the max norm, so |z - c| <= 2 per coordinate,
        # and z - c is even, as c's coordinates share a parity; so z - c is in K.
        near = {
            (a + h1, b + h2) for h1 in (-2, 0, 2) for h2 in (-2, 0, 2) for a, b in chamber
            if a + h1 >= b + h2 >= 0
        }
        # Each image w(a, b) - s is coded as (d1 + off) * base + d2 + off, with
        # every coordinate in [-off, off] and base = 2*off + 1, so codes sort as
        # points do; it takes v, or flip * v where det(w) = -1, as in _unfold.
        off = max(near)[0] + max(s1, s2)
        base = 2 * off + 1
        u1, u2 = off - s1, off - s2
        codes = {}
        for a, b in near:
            v = chamber.get((a, b), 0)
            pa, ma = (u1 + a) * base + u2, (u1 - a) * base + u2
            pb, mb = (u1 + b) * base + u2, (u1 - b) * base + u2
            codes[pa + b] = codes[ma - b] = codes[mb + a] = codes[pb - a] = v
            codes[ma + b] = codes[pa - b] = codes[pb + a] = codes[mb - a] = flip * v
        keys = sorted(codes)
        points = [(q - off, r - off) for q, r in (divmod(k, base) for k in keys)]
        return points, [codes[k] for k in keys]


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

    return _unfold(mult, 1, 0, 0)
