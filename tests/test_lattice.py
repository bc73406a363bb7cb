"""Lattice layer: weights, the signed-permutation group, dominance, dimensions."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from b2tensor import (
    ALPHA1,
    ALPHA2,
    OMEGA1,
    OMEGA2,
    RHO,
    WEYL_GROUP,
    Weight,
    dim_irrep,
    is_dominant,
    to_dominant_regular,
    weights_of_fundamental,
)
from b2tensor.lattice import dominated, power_highest_weight
from conftest import dominant_weights, text_by_fractions, weights, weyl_elements


def test_weight_parity_enforced():
    with pytest.raises(ValueError):
        Weight(1, 0)
    with pytest.raises(ValueError):
        Weight.make(Fraction(1, 2), 1)


def test_weight_text_round_trip():
    for w in (Weight.make(3, -1), Weight.make(Fraction(5, 2), Fraction(-1, 2))):
        assert Weight.parse(w.text()) == w
    assert Weight.make(Fraction(1, 2), Fraction(1, 2)).text() == "1/2,1/2"


_BIG = 10**30


@given(st.integers(-_BIG, _BIG), st.integers(-_BIG, _BIG), st.booleans())
@settings(max_examples=200)
def test_parse_inverts_text_on_large_points(a, b, half):
    # a lattice point with coordinates up to 10^30 in absolute value
    w = Weight(2 * a + half, 2 * b + half)
    assert w.text() == text_by_fractions(w)
    got = Weight.parse(w.text())
    assert got == w
    assert type(got.d1) is int and type(got.d2) is int


def test_constants():
    assert ALPHA1 == Weight.make(1, -1)
    assert ALPHA2 == Weight.make(0, 1)
    assert OMEGA1 == Weight.make(1, 0)
    assert OMEGA2 == Weight.make(Fraction(1, 2), Fraction(1, 2))
    assert RHO == OMEGA1 + OMEGA2


def test_weyl_group_is_a_group_of_order_eight():
    assert len(set(WEYL_GROUP)) == 8
    closure = {a.compose(b) for a in WEYL_GROUP for b in WEYL_GROUP}
    assert closure == set(WEYL_GROUP)


@given(weyl_elements(), weyl_elements(), weights())
def test_compose_matches_apply(a, b, w):
    assert a.compose(b).apply(w) == a.apply(b.apply(w))


@given(weyl_elements(), weyl_elements())
def test_det_is_a_homomorphism(a, b):
    assert a.compose(b).det == a.det * b.det


@given(weights())
def test_orbit_hits_exactly_one_weakly_dominant_point(w):
    orbit = {g.apply(w) for g in WEYL_GROUP}
    assert sum(1 for v in orbit if is_dominant(v)) == 1


@given(weights())
def test_to_dominant_regular_consistency(w):
    rep, sign = to_dominant_regular(w)
    if sign == 0:
        # fixed by some reflection: orbit is strictly smaller than the group
        assert len({g.apply(w) for g in WEYL_GROUP}) < 8
    else:
        assert sign in (-1, 1)
        assert rep.d1 > rep.d2 > 0
        matches = [g for g in WEYL_GROUP if g.apply(w) == rep]
        assert matches and all(g.det == sign for g in matches)


def test_dimensions_of_small_irreducibles():
    half = Fraction(1, 2)
    expect = {
        (0, 0): 1,
        (half, half): 4,
        (1, 0): 5,
        (1, 1): 10,
        (2, 0): 14,
        (Fraction(3, 2), half): 16,
        (2, 1): 35,
        (2, 2): 35,
        (3, 0): 30,
    }
    for (a, b), d in expect.items():
        assert dim_irrep(Weight.make(a, b)) == d


@given(dominant_weights())
def test_dim_positive_on_dominants(w):
    assert dim_irrep(w) >= 1


def test_fundamental_weight_multisets():
    vec = weights_of_fundamental(1)
    assert len(vec) == 5 and Weight.make(0, 0) in vec
    sp = weights_of_fundamental(2)
    assert len(sp) == 4 and all(abs(z.d1) == 1 and abs(z.d2) == 1 for z in sp)


@given(st.integers(-10**30, 10**30), st.integers(-10**30, 10**30))
@settings(max_examples=100)
def test_make_from_ints_equals_the_fraction_path(v1, v2):
    w = Weight.make(v1, v2)
    assert w == Weight.make(Fraction(v1), Fraction(v2)) == Weight.make(str(v1), str(v2))
    assert type(w.d1) is int and type(w.d2) is int
    assert w == Weight(2 * v1, 2 * v2)


def _dominated_by_definition(lam: Weight):
    # every lam - x*alpha1 - y*alpha2 over a box of x, y >= 0 that holds all
    # dominant ones (d1 >= 0 needs 2x <= l1, d2 >= 0 needs y <= x + l2/2)
    box = range(lam.d1 + lam.d2 + 1)
    found = set()
    for x in box:
        for y in box:
            mu = Weight(
                lam.d1 - x * ALPHA1.d1 - y * ALPHA2.d1, lam.d2 - x * ALPHA1.d2 - y * ALPHA2.d2
            )
            if is_dominant(mu):
                found.add((mu.d1, mu.d2))
    return sorted(found)


def test_dominated_matches_the_definition():
    for l1 in range(25):
        for l2 in range(l1 % 2, l1 + 1, 2):
            assert dominated(l1, l2) == _dominated_by_definition(Weight(l1, l2)), (l1, l2)


def test_power_highest_weight_is_p_omega():
    for p in range(6):
        assert power_highest_weight(1, p) == (p * OMEGA1.d1, p * OMEGA1.d2)
        assert power_highest_weight(2, p) == (p * OMEGA2.d1, p * OMEGA2.d2)
