"""Shared strategies (weights on the doubled lattice, dominant weights, powers),
points near the highest weight, the Fraction references of the weight text and
of its parse, properties of a LatticeSeries read from its terms (its support
among them), the references for its powers and for the support-plus-halo
window, the full-scan fan solve, and a fresh CLI answer memo and closed-form factor tables for every
test."""

from fractions import Fraction

import pytest
from hypothesis import strategies as st

from b2tensor import RHO, WEYL_GROUP, LatticeSeries, Weight, cli, fans
from b2tensor.engine import MultiplicityFunction
from b2tensor.lattice import band, power_highest_weight, reflect_to_chamber


@pytest.fixture(autouse=True)
def fresh_long_lived_stores():
    """Empty the CLI's memo of answer texts and the factor tables of
    closed_form_point, so a test that monkeypatches the engine never gets text
    an earlier test computed, and no test reads tables another one filled."""
    cli._ANSWERS.clear()
    fans._POINT_TABLES.clear()


def weights(span: int = 12):
    """Arbitrary lattice weights with doubled coordinates in [-span, span]."""

    def build(d1, d2, half):
        return Weight(2 * d1 + half, 2 * d2 + half)

    half_span = span // 2
    return st.builds(
        build,
        st.integers(-half_span, half_span),
        st.integers(-half_span, half_span),
        st.sampled_from((0, 1)),
    )


def dominant_weights(span: int = 12):
    return weights(span).map(
        lambda w: Weight(max(abs(w.d1), abs(w.d2)), min(abs(w.d1), abs(w.d2)))
    )


def near_top(mod, p, k, c, e):
    """The lattice point of deficit k below p*omega at free coordinate c; e = 1
    takes the vector point one step up the other coset (same deficit)."""
    if mod == "vector":
        d1 = 2 * p - 2 * k - e
        return Weight(d1, 2 * c + d1 % 2)
    return Weight(c, 2 * p - 2 * k - c)


def weyl_elements():
    return st.sampled_from(WEYL_GROUP)


def small_powers(top: int = 6):
    return st.integers(0, top)


def _support_halo(series: LatticeSeries, step: int = 2) -> list:
    """Sorted doubled points within one step (both coordinates) of the support.

    The reference for ChamberChain.window, which builds the same points
    from the chamber keys of its chain.
    """
    keys = series.by_tuple().keys()
    d1s = [d1 for d1, _ in keys]
    d2s = [d2 for _, d2 in keys]
    pts = set()
    for da in (-step, 0, step):
        shifted = list(map(da.__add__, d1s))
        for db in (-step, 0, step):
            pts.update(zip(shifted, map(db.__add__, d2s)))
    return sorted(pts)


def full_scan_fan_solve(module: str, p: int) -> MultiplicityFunction:
    """fan_recursion_solve visiting every (nu, shift) pair: the reference for
    its cut, which visits only the shifts that read a point below p*omega."""
    l1, l2 = power_highest_weight(module, p)
    if p == 0:
        return MultiplicityFunction(module, 0, {(0, 0): 1})
    fan = fans.fan_power_direct(p).by_tuple()
    shifts = [(-e1, -e2, -c) for (e1, e2), c in fan.items() if (e1, e2) != (0, 0)]
    r1, r2 = RHO.d1, RHO.d2
    known = {}
    for nu in reversed(band(module, p, None)):
        n1, n2 = nu[0] + r1, nu[1] + r2
        val = fans.projected_at(module, p, Weight(*nu))
        for g1, g2, c in shifts:
            a, b, sign = reflect_to_chamber(n1 + g1, n2 + g2)
            if sign == 0:
                continue
            rep = (a - r1, b - r2)
            if rep[0] > l1 or rep[0] + rep[1] > l1 + l2:
                continue  # not below p*omega
            val += sign * c * known[rep]
        known[nu] = val
    return MultiplicityFunction(module, p, {w: m for w, m in known.items() if m})


def halo_weights(series):
    """The support of series plus a halo, as Weights."""
    return [Weight(d1, d2) for d1, d2 in _support_halo(series)]


def text_by_fractions(w: Weight) -> str:
    """Weight.text through Fraction: the reference for its doubled-integer path."""
    return f"{Fraction(w.d1, 2)},{Fraction(w.d2, 2)}"


def parse_by_fractions(text: str) -> Weight:
    """Weight.parse with every coordinate read by Fraction: the reference for its int() path.

    A coordinate with an exponent is refused, as Weight.parse refuses it."""
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"weight must be 'v1,v2', got {text!r}")
    v1, v2 = parts[0].strip(), parts[1].strip()
    if "e" in text or "E" in text:
        raise ValueError(f"weight {text!r} has an exponent; write it without e or E")
    d1, d2 = Fraction(v1) * 2, Fraction(v2) * 2
    if d1.denominator != 1 or d2.denominator != 1:
        raise ValueError(f"({v1},{v2}) is not a half-integer point")
    return Weight(int(d1), int(d2))


def repeated_product(base, n: int):
    """base^n as n products by base from the unit: the reference for LatticeSeries.power."""
    acc = LatticeSeries.unit()
    for _ in range(n):
        acc = acc * base
    return acc


def mass(series) -> int:
    """The sum of the coefficients: the dimension of a character."""
    return sum(series.by_tuple().values())


def is_weyl_invariant(series) -> bool:
    terms = dict(series.items())
    return all({g.apply(w): c for w, c in terms.items()} == terms for g in WEYL_GROUP)


def support(series):
    """The support of series as Weights, in ascending order."""
    return [Weight(d1, d2) for d1, d2 in sorted(series.by_tuple())]


def support_bounds(series):
    """The bounding box ((min d1, max d1), (min d2, max d2)) of the support, doubled coordinates."""
    d1s, d2s = zip(*series.by_tuple())
    return (min(d1s), max(d1s)), (min(d2s), max(d2s))
