"""Formal series layer: convolution ring, singular elements, characters."""

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from b2tensor import (
    POSITIVE_ROOTS,
    RHO,
    WEYL_GROUP,
    LatticeSeries,
    OMEGA1,
    OMEGA2,
    Weight,
    denominator_product,
    dim_irrep,
    singular_element,
    weight_multiplicities,
)
from b2tensor.lattice import FUNDAMENTAL_WEIGHTS
from b2tensor.series import ChamberChain, is_product
from conftest import dominant_weights, is_weyl_invariant, mass, repeated_product, support, weights


def small_series():
    return st.dictionaries(weights(span=6), st.integers(-4, 4), max_size=5).map(
        LatticeSeries
    )


@given(small_series(), small_series())
@settings(max_examples=60)
def test_convolution_commutes(a, b):
    assert a * b == b * a


@given(small_series(), small_series(), small_series())
@settings(max_examples=40)
def test_convolution_associates_and_distributes(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(small_series())
def test_unit_and_zero(a):
    one = LatticeSeries.unit(Weight(0, 0))
    assert a * one == a
    assert a - a == LatticeSeries()
    assert not LatticeSeries()


@given(small_series(), st.lists(st.integers(0, 5), min_size=1, max_size=6))
@settings(max_examples=40)
def test_power_is_repeated_product(a, ns):
    for n in ns:
        assert a.power(n) == repeated_product(a, n)


POWER_BASES = {
    "init": lambda: LatticeSeries({Weight(2, 0): 1, Weight(0, 0): -1}),
    "mul": lambda: singular_element(OMEGA1) * singular_element(OMEGA2),
    "from_tuples": lambda: LatticeSeries._from_tuples({(2, 0): 1, (1, 1): 3}),
    "empty": LatticeSeries,
}


@pytest.mark.parametrize("built", sorted(POWER_BASES))
def test_power_on_every_constructor(built):
    base = POWER_BASES[built]()
    for n in (3, 0, 4):
        assert base.power(n) == repeated_product(base, n)
    assert base.power(0) == LatticeSeries.unit()
    with pytest.raises(ValueError, match="negative power"):
        base.power(-1)


# the library's five chains: (factor, signed, shift)
CHAIN_FACTORS = {
    "ch vector": (LatticeSeries({w: 1 for w in FUNDAMENTAL_WEIGHTS["vector"]}), False, 0),
    "ch spinor": (LatticeSeries({w: 1 for w in FUNDAMENTAL_WEIGHTS["spinor"]}), False, 0),
    "R": (denominator_product(), True, 1),
    "Pi vector": (singular_element(OMEGA1), True, 1),
    "Pi spinor": (singular_element(OMEGA2), True, 1),
}
SIGNED_CHAINS = sorted(name for name, (_, signed, _) in CHAIN_FACTORS.items() if signed)


def fresh_chain(name: str) -> ChamberChain:
    return ChamberChain(*CHAIN_FACTORS[name])


@lru_cache(maxsize=None)
def reference_power(name: str, n: int) -> LatticeSeries:
    return repeated_product(CHAIN_FACTORS[name][0], n)


def on_a_wall(d1: int, d2: int) -> bool:
    return d1 == 0 or d2 == 0 or abs(d1) == abs(d2)


@given(st.sampled_from(sorted(CHAIN_FACTORS)), st.lists(st.integers(0, 14), min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_unfolded_chains_are_repeated_products(name, ns):
    # a fresh chain asked for its powers in any order
    chain = fresh_chain(name)
    for n in ns:
        assert chain.unfold(n) == reference_power(name, n), n


@pytest.mark.parametrize("name", SIGNED_CHAINS)
def test_odd_powers_of_signed_chains_vanish_on_the_walls(name):
    # e^(n rho) F^n is anti-invariant for odd n: 0 wherever a reflection fixes the point
    chain = fresh_chain(name)
    for n in range(8):
        shifted = [(d1 + 3 * n, d2 + n) for d1, d2 in reference_power(name, n).by_tuple()]
        if n % 2:
            assert not [x for x in shifted if on_a_wall(*x)]
            assert not [x for x in chain.chamber(n) if on_a_wall(*x)]
            walls = [(d, d) for d in range(-41, 42)] + [(d, -d) for d in range(-41, 42)]
            walls += [(0, d) for d in range(-40, 41, 2)] + [(d, 0) for d in range(-40, 41, 2)]
            assert {chain.at(n, x - 3 * n, y - n) for x, y in walls} == {0}
        elif n:
            assert [x for x in shifted if on_a_wall(*x)]  # an even power is not anti-invariant


@given(st.sampled_from(sorted(CHAIN_FACTORS)), st.integers(0, 14), weights(span=41))
@settings(max_examples=200, deadline=None)
def test_point_read_equals_the_unfolded_power(name, n, w):
    # out to doubled +-41, well past the support of every power read here
    chain = fresh_chain(name)
    assert chain.at(n, w.d1, w.d2) == chain.unfold(n).coeff(w)


def test_a_chain_factor_must_be_weyl_symmetric():
    with pytest.raises(ValueError, match="not Weyl-symmetric"):
        ChamberChain(denominator_product(), signed=False, shift=1)
    with pytest.raises(ValueError, match="not Weyl-symmetric"):
        ChamberChain(denominator_product(), signed=True, shift=0)
    with pytest.raises(ValueError, match="negative power"):
        fresh_chain("R").chamber(-1)


def plain_convolution(a: dict, b: dict) -> dict:
    # reference product on (d1, d2) pairs, zeros dropped
    out = {}
    for (a1, a2), ca in a.items():
        for (b1, b2), cb in b.items():
            key = (a1 + b1, a2 + b2)
            out[key] = out.get(key, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


def as_pairs(series: LatticeSeries) -> dict:
    return {(w.d1, w.d2): c for w, c in series.items()}


def crowded_series():
    # few points and small signed coefficients, so products collide and cancel often
    return st.dictionaries(weights(span=2), st.integers(-2, 2), max_size=6).map(LatticeSeries)


@given(crowded_series(), crowded_series())
@settings(max_examples=150)
def test_product_equals_plain_dict_convolution(a, b):
    want = plain_convolution(as_pairs(a), as_pairs(b))
    got = a * b
    assert as_pairs(got) == want
    assert dict(got.by_tuple()) == want
    assert 0 not in got.by_tuple().values()


@given(crowded_series(), weights(span=4))
@settings(max_examples=60)
def test_product_with_cancelling_factor(a, g):
    # a * (1 - e^g) * (1 + e^g) == a * (1 - e^2g): the middle terms cancel
    one = LatticeSeries.unit()
    lhs = a * (one - LatticeSeries.unit(g)) * (one + LatticeSeries.unit(g))
    assert lhs == a * (one - LatticeSeries.unit(g + g))
    assert as_pairs(a * (one - one)) == {}


def coefficients():
    # small values collide and cancel; large ones need multi-byte slots
    return st.one_of(st.integers(-3, 3), st.integers(-(2**70), 2**70)).filter(bool)


def grid_operand(cosets):
    # cosets: the doubled-coordinate parities to draw from, one or both. A
    # coefficient, often zero, for every point of a small box keeps most
    # grids within the term pairs, where is_product packs instead of
    # multiplying term by term.
    box = [(2 * d1, 2 * d2) for d1 in (-1, 0, 1) for d2 in (-1, 0, 1)]
    points = [(d1 + half, d2 + half) for half in cosets for d1, d2 in box]
    coeffs = st.lists(
        st.one_of(st.just(0), coefficients()), min_size=len(points), max_size=len(points)
    )
    return coeffs.map(lambda cs: {p: c for p, c in zip(points, cs) if c})


def series_of(terms: dict) -> LatticeSeries:
    return LatticeSeries({Weight(d1, d2): c for (d1, d2), c in terms.items()})


def plus(terms: dict, point: tuple, c: int) -> dict:
    out = dict(terms)
    out[point] = out.get(point, 0) + c
    return out


def assert_is_product_decides(a: dict, b: dict, pick: int = 0):
    """is_product(c, a, b) == (c == a * b) for the product and for c near it.

    The near misses: one coefficient off by one either way, an extra point
    inside the product box on each coset, one past the box, a coefficient
    of c beyond the slot that a and b alone would need carried into the
    next slot, and on the halved grid a coefficient moved onto the other
    coset.
    """
    want = plain_convolution(a, b)
    near = [want]
    if want:
        k = sorted(want)[pick % len(want)]
        near += [plus(want, k, 1), plus(want, k, -1)]
    if not a or not b:
        near.append({(0, 0): 1})
    else:
        # the product box: a product of nonzero series reaches every side of it
        xs, ys = [x for x, _ in want], [y for _, y in want]
        lo1, hi1, lo2, hi2 = min(xs), max(xs), min(ys), max(ys)
        inside = [
            (x, y)
            for x in range(lo1, hi1 + 1)
            for y in range(lo2, hi2 + 1)
            if (x - y) % 2 == 0 and (x, y) not in want
        ]
        for parity in (0, 1):  # the product's coset and the other one
            points = [(x, y) for x, y in inside if x % 2 == parity]
            if points:
                near.append(plus(want, points[pick % len(points)], 1))
        # one past the box on two sides
        top, low = max(want), min(want, key=lambda p: p[1])
        near += [plus(want, (top[0] + 2, top[1]), 1), plus(want, (low[0], low[1] - 2), -1)]
        bound = min(
            sum(map(abs, a.values())) * max(map(abs, b.values())),
            sum(map(abs, b.values())) * max(map(abs, a.values())),
        )
        z = 256 ** ((bound.bit_length() + 8) // 8)  # the slot base of a and b alone
        # slots in order on the grid: halved when each operand lies on one coset
        step = 2 if all(len({d1 % 2 for d1, _ in t}) == 1 for t in (a, b)) else 1
        slots = [(x, y) for x in range(lo1, hi1 + 1, step) for y in range(lo2, hi2 + 1, step)]
        on_lattice = [(x - y) % 2 == 0 for x, y in slots]
        carries = [
            (slots[i], slots[i + 1])
            for i in range(len(slots) - 1)
            if on_lattice[i] and on_lattice[i + 1]
        ]
        if carries:
            k, k1 = carries[pick % len(carries)]
            near.append(plus(plus(want, k, z), k1, -1))  # z*e_k - e_(k+1): the same integer
        # a coefficient moved onto the other coset, next to its halved-grid slot
        movable = [(x, y) for x, y in want if x < hi1 and y < hi2] if step == 2 else []
        if movable:
            moved = dict(want)
            x, y = movable[pick % len(movable)]
            moved[x + 1, y + 1] = moved.pop((x, y))
            near.append(moved)
    sa, sb = series_of(a), series_of(b)
    for c in near:
        assert is_product(series_of(c), sa, sb) == (series_of(c) == series_of(want)), c


@given(
    st.sampled_from([(0,), (1,), (0, 1)]).flatmap(grid_operand),
    st.sampled_from([(0,), (1,), (0, 1)]).flatmap(grid_operand),
    st.integers(0, 10**6),
)
@example({}, {}, 0)
@example({}, {(1, 1): 2}, 0)
@example({(0, 2): -1}, {}, 0)
@settings(max_examples=100, deadline=None)
def test_is_product_equals_plain_dict_convolution(a, b, pick):
    # one coset per operand packs on the halved grid, mixed cosets on the full one;
    # empty and single-term operands are among the draws
    assert_is_product_decides(a, b, pick)


@given(
    st.integers(1, 2**80),
    st.integers(1, 2**80),
    st.sampled_from([1, -1]),
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
    st.sampled_from([(1, 0), (0, 1)]),
)
@example(217, 151, 1, (0, 0), (1, 0))  # 2 * 217 * 151 = 65534, sixteen bits
@example(217, 151, -1, (0, 0), (1, 0))
@example(15, 17, -1, (3, 1), (2, 2))  # the single terms meet at 15 * 17 = 255, eight bits
@settings(max_examples=100, deadline=None)
def test_is_product_at_the_coefficient_bound(k, m, sign, shift, gap):
    # a = k(e^s + e^(s+g)) and b = sign*m(e^0 + e^-g) meet at s with 2km, which
    # is exactly the slot bound sum|a| * max|b|; single terms give km, also the bound.
    # A gap of one step along an axis keeps the pair's grid within its term
    # pairs, so it is packed; the (2, 2) example packs its single terms only.
    s1, s2 = 2 * shift[0], 2 * shift[1]
    g1, g2 = 2 * gap[0], 2 * gap[1]
    a = {(s1, s2): k, (s1 + g1, s2 + g2): k}
    b = {(0, 0): sign * m, (-g1, -g2): sign * m}
    assert plain_convolution(a, b)[(s1, s2)] == sign * 2 * k * m
    assert_is_product_decides(a, b)
    assert_is_product_decides({(s1, s2): k}, {(0, 0): sign * m})


def test_dense_operands_are_decided_without_the_dict_product(monkeypatch):
    # fan-identity's operands and the at-the-bound pairs along one axis fit a
    # grid no larger than their term pairs, so is_product packs them
    fan, phi = denominator_product().power(5), singular_element(OMEGA1).power(6)
    pairs = [(fan, phi), (series_of({(0, 0): 3, (2, 0): 3}), series_of({(0, 0): 5, (-2, 0): 5}))]
    products = [x * y for x, y in pairs]

    def refuse(self, other):
        raise AssertionError("is_product fell back to the dict product")

    monkeypatch.setattr(LatticeSeries, "__mul__", refuse)
    for (x, y), xy in zip(pairs, products):
        assert is_product(xy, x, y) and is_product(xy, y, x)
        assert not is_product(xy + LatticeSeries.unit(), x, y)


def test_large_products_equal_plain_dict_convolution():
    big = singular_element(OMEGA1).power(4)
    chain_factor = singular_element(OMEGA1)
    assert dict((big * big).by_tuple()) == plain_convolution(as_pairs(big), as_pairs(big))
    assert dict((big * chain_factor).by_tuple()) == plain_convolution(
        as_pairs(big), as_pairs(chain_factor)
    )


@given(small_series())
def test_items_and_support_are_sorted_weights(a):
    items = a.items()
    assert [w for w, _ in items] == support(a) == sorted(support(a))
    assert all(isinstance(w, Weight) for w in support(a))
    assert all(a.coeff(w) == c != 0 for w, c in items)
    assert {(w.d1, w.d2): c for w, c in items} == dict(a.by_tuple())


def test_by_tuple_is_read_only():
    view = denominator_product().by_tuple()
    with pytest.raises(TypeError):
        view[(0, 0)] = 5
    assert view[(0, 0)] == 1


def test_zero_coefficients_are_pruned():
    s = LatticeSeries({Weight(0, 0): 1}) + LatticeSeries({Weight(0, 0): -1})
    assert len(s) == 0 and s.coeff(Weight(0, 0)) == 0


def test_denominator_product_support():
    # the eight-term alternating product over the positive roots
    R = denominator_product()
    expect = {
        (0, 0): 1,
        (0, -1): -1,
        (-3, 0): -1,
        (-3, -1): 1,
        (-1, 1): -1,
        (-1, -2): 1,
        (-2, 1): 1,
        (-2, -2): -1,
    }
    assert dict(R.items()) == {Weight.make(a, b): c for (a, b), c in expect.items()}
    assert R == singular_element(Weight(0, 0))


def test_singular_element_has_eight_regular_terms():
    for lam in (Weight.make(1, 0), Weight.make(Fraction(1, 2), Fraction(1, 2)), Weight.make(3, 1)):
        s = singular_element(lam)
        assert len(s) == 8
        assert s.coeff(lam) == 1
        assert sorted(c for _, c in s.items()) == [-1] * 4 + [1] * 4


def test_singular_element_rejects_non_dominant():
    with pytest.raises(ValueError):
        singular_element(Weight.make(0, 1))


def test_vector_spinor_characters():
    vec = weight_multiplicities(OMEGA1)
    assert mass(vec) == 5
    assert vec.coeff(Weight(0, 0)) == 1
    sp = weight_multiplicities(OMEGA2)
    assert mass(sp) == 4
    assert all(c == 1 for _, c in sp.items())


def test_adjoint_character():
    ad = weight_multiplicities(Weight.make(1, 1))
    assert mass(ad) == 10
    assert ad.coeff(Weight(0, 0)) == 2  # rank of the algebra
    assert ad.coeff(Weight.make(1, 1)) == 1
    assert ad.coeff(Weight.make(1, 0)) == 1


@given(dominant_weights(span=8))
@settings(max_examples=25, deadline=None)
def test_character_mass_is_dimension_and_weyl_invariant(lam):
    ch = weight_multiplicities(lam)
    assert mass(ch) == dim_irrep(lam)
    assert is_weyl_invariant(ch)


@given(dominant_weights(span=6))
@settings(max_examples=20, deadline=None)
def test_character_times_denominator_is_singular_element(lam):
    assert weight_multiplicities(lam) * denominator_product() == singular_element(lam)


def freudenthal_on_weights(lam):
    # reference: the Freudenthal recursion on Weight objects, with candidate
    # points filtered by the root cone and each root walk running until its
    # point is both zero and above lam
    def ip4(x, y):
        return x.d1 * y.d1 + x.d2 * y.d2

    def dominant(nu):
        a, b = sorted((abs(nu.d1), abs(nu.d2)), reverse=True)
        return Weight(a, b)

    def height_above(nu):
        diff = lam - nu
        return 2 * diff.d1 + (diff.d1 + diff.d2)

    dom = []
    for d1 in range(lam.d1 % 2, lam.d1 + 1, 2):
        for d2 in range(d1 % 2, d1 + 1, 2):
            diff = lam - Weight(d1, d2)
            two_x, two_y = diff.d1, diff.d1 + diff.d2
            if two_x >= 0 and two_y >= 0 and two_x % 2 == 0 and two_y % 2 == 0:
                dom.append(Weight(d1, d2))
    dom.sort(key=lambda mu: (height_above(mu), mu))
    mult = {}
    c_lam = ip4(lam + RHO, lam + RHO)
    for mu in dom:
        if mu == lam:
            mult[mu] = 1
            continue
        denom = c_lam - ip4(mu + RHO, mu + RHO)
        total = 0
        for alpha in POSITIVE_ROOTS:
            k = 1
            while True:
                nu = Weight(mu.d1 + k * alpha.d1, mu.d2 + k * alpha.d2)
                n = mult.get(dominant(nu), 0)
                if n == 0 and height_above(nu) < 0:
                    break
                total += n * ip4(nu, alpha)
                k += 1
        val, rem = divmod(2 * total, denom)
        assert rem == 0
        if val:
            mult[mu] = val
    return LatticeSeries({g.apply(mu): n for mu, n in mult.items() for g in WEYL_GROUP})


def dominant_up_to(d1_max):
    return st.integers(0, d1_max).flatmap(
        lambda d1: st.sampled_from(range(d1 % 2, d1 + 1, 2)).map(lambda d2: Weight(d1, d2))
    )


@given(dominant_up_to(16))
@example(Weight(0, 0))
@example(Weight(16, 16))
@example(Weight(16, 0))
@example(Weight(15, 1))
@settings(max_examples=40, deadline=None)
def test_tuple_freudenthal_equals_weight_freudenthal(lam):
    ch = weight_multiplicities(lam)
    assert ch == freudenthal_on_weights(lam)
    assert mass(ch) == dim_irrep(lam)
    assert is_weyl_invariant(ch)
    assert ch * denominator_product() == singular_element(lam)


@given(small_series())
@settings(max_examples=60)
def test_series_json_round_trip(s):
    # the payload the CLI prints and caches, read back with the weight codec
    obj = s.to_json_obj()
    assert [(Weight.parse(e["weight"]), int(e["coeff"])) for e in obj] == s.items()
    r = denominator_product()
    assert LatticeSeries({Weight.parse(e["weight"]): int(e["coeff"]) for e in r.to_json_obj()}) == r
