"""Root data for so(5) = B2 and the action of its Weyl group.

Weights live on the lattice generated by (1,0) and (1/2,1/2): either both
Euclidean coordinates are integers or both are half-integers. To keep every
value hashable and exact we store doubled coordinates (d1,d2) = (2*v1,2*v2),
so the lattice constraint becomes d1 = d2 (mod 2).

The Weyl group is the 8 signed permutations of two coordinates. An element
first transposes (optionally), then applies the signs.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple


def _coord_str(d: int) -> str:
    # exact rational text for a doubled coordinate; avoid floor division on odd negatives
    if d % 2 == 0:
        return str(d // 2)
    return f"{d}/2"


# a sign and ASCII digits over 2: on every Python, Fraction reads it as
# int(the text before '/') / 2, so its doubled value is that int
_HALF = re.compile(r"[-+]?[0-9]+/2")


def _doubled(v: str) -> int:
    """Twice the coordinate text v, a half n/2 or what int() reads; ValueError otherwise."""
    return int(v[:-2]) if _HALF.fullmatch(v) else 2 * int(v)


def point_text(d1: int, d2: int) -> str:
    """Text 'v1,v2' of the doubled point (d1, d2), as Weight.text gives it."""
    return f"{_coord_str(d1)},{_coord_str(d2)}"


class Weight(NamedTuple("_WeightFields", [("d1", int), ("d2", int)])):
    """Lattice point in doubled coordinates (d1, d2) = (2*v1, 2*v2).

    A tuple: order, equality and hashing are those of (d1, d2). Build it
    with Weight(...), which checks the lattice; _make and _replace do not.
    """

    __slots__ = ()

    def __new__(cls, d1: int, d2: int):
        self = tuple.__new__(cls, (d1, d2))
        self.__post_init__()
        return self

    def __post_init__(self):
        if (self.d1 - self.d2) % 2 != 0:
            raise ValueError(f"({self.d1},{self.d2})/2 is off the weight lattice")

    @classmethod
    def make(cls, v1, v2) -> "Weight":
        """Build from Euclidean coordinates given as ints, Fractions or strings."""
        if type(v1) is int and type(v2) is int:
            return cls(2 * v1, 2 * v2)
        a, b = Fraction(v1), Fraction(v2)
        d1, d2 = a * 2, b * 2
        if d1.denominator != 1 or d2.denominator != 1:
            raise ValueError(f"({v1},{v2}) is not a half-integer point")
        return cls(int(d1), int(d2))

    @classmethod
    def parse(cls, text: str) -> "Weight":
        """The weight 'v1,v2'. A half n/2 is read as its doubled value n and
        an integer with int(); the rest (texts int() rejects) goes to
        Fraction through make.

        On a text without '_', int() takes no text that Fraction reads as
        another value or rejects, on every Python from 3.10; Fraction reads
        underscores only from 3.11, so a text with '_' goes to make, which
        gives each version's own Fraction answer. An exponent is refused
        first, as Fraction would build the whole power of ten."""
        parts = text.split(",")
        if len(parts) != 2:
            raise ValueError(f"weight must be 'v1,v2', got {text!r}")
        v1, v2 = parts[0].strip(), parts[1].strip()
        if "e" in text or "E" in text:
            raise ValueError(f"weight {text!r} has an exponent; write it without e or E")
        if "_" not in text:
            try:
                d1, d2 = _doubled(v1), _doubled(v2)
            except ValueError:
                pass
            else:
                return cls(d1, d2)
        return cls.make(v1, v2)

    def text(self) -> str:
        return point_text(self.d1, self.d2)

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(self.d1 + other.d1, self.d2 + other.d2)

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(self.d1 - other.d1, self.d2 - other.d2)

    def __neg__(self) -> "Weight":
        return Weight(-self.d1, -self.d2)

    def __repr__(self):
        return f"W({self.text()})"


class WeylElement(NamedTuple("_WeylFields", [("swap", bool), ("s1", int), ("s2", int)])):
    """Signed permutation: transpose coordinates iff swap, then multiply by (s1,s2)."""

    __slots__ = ()

    def __new__(cls, swap: bool, s1: int, s2: int):
        self = tuple.__new__(cls, (swap, s1, s2))
        self.__post_init__()
        return self

    def __post_init__(self):
        if self.s1 not in (1, -1) or self.s2 not in (1, -1):
            raise ValueError("signs must be +-1")

    @property
    def det(self) -> int:
        return (-1 if self.swap else 1) * self.s1 * self.s2

    def apply(self, lam: Weight) -> Weight:
        return Weight(*self.act(lam.d1, lam.d2))

    def act(self, d1: int, d2: int) -> tuple:
        """apply on the doubled point (d1, d2), without building a Weight."""
        if self.swap:
            d1, d2 = d2, d1
        return self.s1 * d1, self.s2 * d2

    def compose(self, other: "WeylElement") -> "WeylElement":
        # self after other; derived so that apply(compose) == apply(self) o apply(other)
        swap = self.swap != other.swap
        if self.swap:
            t1, t2 = other.s2, other.s1
        else:
            t1, t2 = other.s1, other.s2
        return WeylElement(swap, self.s1 * t1, self.s2 * t2)


WEYL_GROUP = tuple(
    WeylElement(swap, s1, s2) for swap in (False, True) for s1 in (1, -1) for s2 in (1, -1)
)

ALPHA1 = Weight.make(1, -1)
ALPHA2 = Weight.make(0, 1)
OMEGA1 = Weight.make(1, 0)
OMEGA2 = Weight.make(Fraction(1, 2), Fraction(1, 2))
RHO = Weight.make(Fraction(3, 2), Fraction(1, 2))
# e1-e2, e2, e1, e1+e2
POSITIVE_ROOTS = (ALPHA1, ALPHA2, OMEGA1, Weight.make(1, 1))

# The two fundamental modules by name, the only spelling: their highest
# weights and their weight multisets (vector dim 5, spinor dim 4). Any other
# name raises KeyError.
FUNDAMENTAL = {"vector": OMEGA1, "spinor": OMEGA2}
FUNDAMENTAL_WEIGHTS = {
    "vector": (Weight(2, 0), Weight(-2, 0), Weight(0, 2), Weight(0, -2), Weight(0, 0)),
    "spinor": tuple(Weight(sa, sb) for sa in (1, -1) for sb in (1, -1)),
}


def is_dominant(lam: Weight) -> bool:
    """Closure of the fundamental chamber: v1 >= v2 >= 0."""
    return lam.d1 >= lam.d2 >= 0


def power_highest_weight(module: str, p: int) -> tuple:
    """Doubled coordinates of p*omega, the highest weight of the p-th power of the module."""
    omega = FUNDAMENTAL[module]
    return p * omega.d1, p * omega.d2


def deficit(module: str, p: int, d1: int, d2: int) -> int:
    """The shortfall of the doubled point (d1, d2) below p*omega, in the module's height.

    The height is f = 2<mu, omega>/<omega, omega>: f = d1 for the vector and
    f = d1 + d2 for the spinor, so f(p*omega) = 2p and the deficit is
    (2p - f)/2. On the weights of the p-th power it is the integer x (vector)
    or y (spinor) of p*omega - mu = x*alpha1 + y*alpha2, as f vanishes on
    the other simple root.
    """
    o1, o2 = FUNDAMENTAL[module]
    f = 2 * (d1 * o1 + d2 * o2) // (o1 * o1 + o2 * o2)
    return (2 * p - f) // 2


def dominated(l1: int, l2: int, x_max: int | None = None, y_max: int | None = None) -> list:
    """Dominant doubled points mu below lam = (l1, l2), in ascending order.

    These are the mu with lam - mu = x*alpha1 + y*alpha2 for integers
    x, y >= 0: the coset makes x = (l1 - d1)/2 and y = (l1 + l2 - d1 - d2)/2
    integers, so the conditions x, y >= 0 are d1 <= l1 and d2 <= l1 + l2 - d1.
    A bound x <= x_max is d1 >= l1 - 2*x_max, and y <= y_max is
    d2 >= l1 + l2 - 2*y_max - d1; both keep the parity of the coset.
    """
    top = l1 + l2
    lo1 = l1 % 2 if x_max is None else max(l1 % 2, l1 - 2 * x_max)
    lo2 = -top if y_max is None else top - 2 * y_max
    return [
        (d1, d2)
        for d1 in range(lo1, l1 + 1, 2)
        for d2 in range(max(d1 % 2, lo2 - d1), min(d1, top - d1) + 1, 2)
    ]


def band(module: str, p: int, depth: int | None) -> list:
    """The dominant points below p*omega of deficit <= depth, in ascending order.

    The deficit is x for the vector and y for the spinor (see deficit), so
    the band is dominated(p*omega) with that coordinate bounded; depth None
    leaves it unbounded, and the band is every dominant point below p*omega.
    """
    l1, l2 = power_highest_weight(module, p)
    if module == "vector":
        return dominated(l1, l2, x_max=depth)
    return dominated(l1, l2, y_max=depth)


def reflect_to_chamber(d1: int, d2: int):
    """Reflect the doubled point (d1, d2) into the open chamber, tracking the determinant.

    Returns (a, b, sign) with a > b > 0 and sign = +-1, the determinant of
    the Weyl element that maps (d1, d2) to (a, b). Wall points (|d1| = |d2|
    or a zero coordinate) are fixed by some reflection, so their signed
    orbit sum vanishes: they get sign 0 and come back unchanged. Works on
    plain integers so that hot loops need not build Weights.
    """
    if d1 == 0 or d2 == 0 or d1 == d2 or d1 == -d2:
        return d1, d2, 0
    sign = 1
    if d1 < 0:
        d1, sign = -d1, -sign
    if d2 < 0:
        d2, sign = -d2, -sign
    if d1 < d2:
        d1, d2, sign = d2, d1, -sign
    return d1, d2, sign


def to_dominant_regular(lam: Weight):
    """Reflect lam into the open chamber, tracking the determinant.

    Returns (representative, sign); wall points get sign 0 and are returned
    unchanged. See reflect_to_chamber.
    """
    a, b, sign = reflect_to_chamber(lam.d1, lam.d2)
    if sign == 0:
        return lam, 0
    return Weight(a, b), sign


def dim_irrep(lam: Weight) -> int:
    """Dimension of the irreducible with highest weight lam.

    Product of <lam+rho, alpha> / <rho, alpha> over the four positive roots;
    in doubled coordinates with A = d1+3, B = d2+1 this collapses to
    A*B*(A^2-B^2)/24, always an exact integer.
    """
    if not is_dominant(lam):
        raise ValueError(f"{lam} is not dominant")
    a = lam.d1 + 3
    b = lam.d2 + 1
    num, rem = divmod(a * b * (a * a - b * b), 24)
    if rem:
        raise ArithmeticError(f"dimension of {lam} is not an integer")
    return num
