"""Decomposition engine: oracle, recursion, single-step products."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from b2tensor import (
    RHO,
    WEYL_GROUP,
    Weight,
    decomposition,
    dim_irrep,
    m_extended,
    recur_multiplicity,
    single_step_decompose,
    tensor_power_weights,
    tensor_with_vector,
    to_dominant_regular,
)
from b2tensor import engine
from b2tensor.engine import (
    NegativeMultiplicityError,
    band_values,
    iterate_single_step,
    single_step_chain,
)
from b2tensor.lattice import deficit, reflect_to_chamber
from conftest import dominant_weights, mass, near_top, small_powers, weights


def as_weight_dict(pairs):
    return {Weight.make(a, b): m for (a, b), m in pairs.items()}


# frozen decomposition values, computed independently by hand from the
# antisymmetrized weight counts of small powers
FROZEN = {
    ("spinor", 2): {(1, 1): 1, (1, 0): 1, (0, 0): 1},
    ("vector", 2): {(2, 0): 1, (1, 1): 1, (0, 0): 1},
    ("vector", 3): {(3, 0): 1, (2, 1): 2, (1, 1): 1, (1, 0): 3},
    ("spinor", 3): {
        (Fraction(3, 2), Fraction(3, 2)): 1,
        (Fraction(3, 2), Fraction(1, 2)): 2,
        (Fraction(1, 2), Fraction(1, 2)): 3,
    },
    ("spinor", 4): {(2, 2): 1, (2, 1): 3, (1, 1): 6, (2, 0): 2, (1, 0): 5, (0, 0): 3},
}


def test_frozen_decompositions():
    for (mod, p), pairs in FROZEN.items():
        assert dict(decomposition(mod, p).multiplicities) == as_weight_dict(pairs), (mod, p)


def test_power_zero_and_one():
    for mod, top in (("vector", Weight.make(1, 0)), ("spinor", Weight.make(Fraction(1, 2), Fraction(1, 2)))):
        assert dict(decomposition(mod, 0).multiplicities) == {Weight(0, 0): 1}
        assert dict(decomposition(mod, 1).multiplicities) == {top: 1}


def test_tensor_power_weight_mass():
    assert mass(tensor_power_weights("vector", 5)) == 5**5
    assert mass(tensor_power_weights("spinor", 5)) == 4**5


@pytest.mark.parametrize("mod,dim", [("vector", 5), ("spinor", 4)])
def test_dimension_sums(mod, dim):
    for p in [*range(8), 100]:  # 100: the largest power decompose serves
        terms = decomposition(mod, p).multiplicities
        assert sum(m * dim_irrep(w) for w, m in terms) == dim**p


def test_routes_agree_small():
    for mod in ("vector", "spinor"):
        recs = recur_multiplicity(mod, 6)
        for p in range(7):
            a = decomposition(mod, p)
            assert a == recs[p].to_result()
            assert a == iterate_single_step(mod, p)


@pytest.mark.parametrize("mod", ["vector", "spinor"])
def test_single_step_chain_holds_each_power_of_its_pass(mod):
    # one pass to p_max gives, at each p, what a separate pass to p gives
    for p_max in range(13):
        chain = single_step_chain(mod, p_max)
        assert [r.power for r in chain] == list(range(p_max + 1))
        assert all(chain[p] == iterate_single_step(mod, p) for p in range(p_max + 1)), p_max
    assert chain == [decomposition(mod, p) for p in range(13)]
    with pytest.raises(ValueError, match="negative power"):
        single_step_chain(mod, -1)


def test_extended_multiplicity_spot():
    assert m_extended("vector", 12, Weight.make(10, 1)) == 55


@given(dominant_weights(span=8), small_powers(5))
@settings(max_examples=30, deadline=None)
def test_extended_values_antisymmetrize(mu, p):
    # M(w(mu+rho)-rho) == det(w) M(mu) for every group element
    base = m_extended("vector", p, mu)
    for g in WEYL_GROUP:
        moved = g.apply(mu + RHO) - RHO
        assert m_extended("vector", p, moved) == g.det * base


def test_walls_carry_zero():
    # mu+rho on a reflection wall forces extended multiplicity 0
    assert m_extended("vector", 4, Weight.make(1, 2)) == 0  # +rho = (5/2,5/2)
    assert m_extended("vector", 6, Weight.make(0, -2)) == 0  # +rho = (3/2,-3/2)
    assert m_extended("spinor", 3, Weight.make(Fraction(-1, 2), Fraction(1, 2))) == 0  # +rho = (1,1)
    assert m_extended("spinor", 5, Weight.make(Fraction(1, 2), Fraction(-1, 2))) == 0  # +rho = (2,0)


def test_extended_at_regular_non_dominant():
    # regular non-dominant points reflect to dominant ones with a sign
    assert m_extended("vector", 4, Weight.make(2, -1)) == -6  # reflects to (2,0)
    assert m_extended("vector", 4, Weight.make(0, 2)) == -6  # reflects to (1,1)
    assert m_extended("vector", 5, Weight.make(0, 2)) == -10


@given(dominant_weights(span=10))
@settings(max_examples=40, deadline=None)
def test_single_step_vector_matches_case_formulas(mu):
    by_rule = single_step_decompose(mu, "vector")
    assert sorted(by_rule) == list(tensor_with_vector(mu))
    assert set(by_rule.values()) == {1}


@given(dominant_weights(span=8))
@settings(max_examples=30, deadline=None)
def test_single_step_conserves_dimension(mu):
    for mod, d in (("vector", 5), ("spinor", 4)):
        parts = single_step_decompose(mu, mod)
        assert sum(m * dim_irrep(nu) for nu, m in parts.items()) == d * dim_irrep(mu)


E1, E2 = Weight(2, 0), Weight(0, 2)


def test_vector_products_on_the_half_line():
    # mu = (d1/2, 1/2), d1 >= 3: mu - e2 + rho = (d1/2 + 3/2, 0) lies on a
    # wall, so of the five interior summands mu - e2 drops out
    for d1 in range(3, 42, 2):
        mu = Weight(d1, 1)
        want = sorted([mu - E1, mu, mu + E1, mu + E2])
        assert list(tensor_with_vector(mu)) == want, mu
        assert single_step_decompose(mu, "vector") == {w: 1 for w in want}, mu


def test_vector_products_use_no_decomposition(monkeypatch):
    # the case table answers every dominant mu without the general rule
    mus = [Weight(d1, d2) for d1 in range(42) for d2 in range(d1 % 2, d1 + 1, 2)]
    want = [sorted(single_step_decompose(mu, "vector")) for mu in mus]

    def no_decomposition(*args):
        raise AssertionError("tensor_with_vector decomposed")

    monkeypatch.setattr(engine, "single_step_decompose", no_decomposition)
    assert [list(tensor_with_vector(mu)) for mu in mus] == want


def test_spinor_edge_product():
    parts = tensor_with_vector(Weight.make(Fraction(1, 2), Fraction(1, 2)))
    assert sorted(dim_irrep(w) for w in parts) == [4, 16]


def test_result_json_round_trip():
    # the payload the CLI prints and caches, read back with the weight codec
    r = decomposition("spinor", 4)
    obj = r.to_json_obj()
    assert (obj["module"], obj["power"]) == ("spinor", 4)
    back = tuple((Weight.parse(t["weight"]), int(t["mult"])) for t in obj["terms"])
    assert back == r.multiplicities
    assert [int(t["dim"]) for t in obj["terms"]] == [dim_irrep(w) for w, _ in back]


_RECS = {mod: recur_multiplicity(mod, 14) for mod in ("vector", "spinor")}


@given(st.sampled_from(("vector", "spinor")), small_powers(14), weights(span=41))
@settings(max_examples=200, deadline=None)
def test_multiplicity_function_matches_weight_level_rule(mod, p, mu):
    m = _RECS[mod][p]
    rep, sign = to_dominant_regular(mu + RHO)
    want = 0 if sign == 0 else sign * dict(m.multiplicities).get(rep - RHO, 0)
    assert m(mu) == want
    assert m(mu) == m_extended(mod, p, mu)


_FULL = {mod: recur_multiplicity(mod, 24) for mod in ("vector", "spinor")}


@given(st.sampled_from(("vector", "spinor")), st.integers(0, 24), st.integers(0, 8))
@settings(max_examples=60, deadline=None)
def test_band_records_equal_the_full_records_on_the_band(mod, p_max, depth):
    band = recur_multiplicity(mod, p_max, depth)
    assert len(band) == p_max + 1
    for p, rec in enumerate(band):
        full = _FULL[mod][p]
        assert (rec.module, rec.power) == (mod, p)
        assert all(deficit(mod, p, *pt) <= depth for pt in rec.values)
        assert rec.values == {
            pt: m for pt, m in full.values.items() if deficit(mod, p, *pt) <= depth
        }, (mod, p, depth)


_READ = st.tuples(st.integers(0, 40), st.integers(-2, 8), st.integers(-46, 46), st.integers(0, 1))


@given(st.sampled_from(("vector", "spinor")), st.lists(_READ, max_size=12))
@settings(max_examples=80, deadline=None)
def test_band_values_equal_m_extended(mod, reads):
    reads = [(p, near_top(mod, p, k, c, e)) for p, k, c, e in reads]
    assert all(deficit(mod, p, *w) <= 8 for p, w in reads)
    assert band_values(mod, reads) == [m_extended(mod, p, w) for p, w in reads]


def test_band_values_on_walls_and_off_the_chamber():
    for mod in ("vector", "spinor"):
        assert band_values(mod, []) == []
        for p in (0, 1, 6, 40, 100):
            reads = [
                (p, near_top(mod, p, k, c, e))
                for k in range(-1, 4)
                for c in range(-2 * p - 6, 2 * p + 7)
                for e in (0, 1)
            ]
            walls = [w for _, w in reads if reflect_to_chamber(w.d1 + RHO.d1, w.d2 + RHO.d2)[2] == 0]
            assert walls and any(not w.d1 >= w.d2 >= 0 for _, w in reads)
            got = band_values(mod, reads)
            assert got == [m_extended(mod, p, w) for _, w in reads], (mod, p)
            assert p < 6 or min(got) < 0 < max(got)  # reflected values are read too


def test_m_extended_reads_the_chamber_without_a_record(monkeypatch):
    # no record is extracted: at powers no other test asks for, m_extended
    # answers from the ch^p chamber alone, off and on the walls
    def no_record(*args):
        raise AssertionError("m_extended built a record")

    monkeypatch.setattr(engine, "decomposition", no_record)
    monkeypatch.setattr(engine, "extract_multiplicities", no_record)
    for mod in ("vector", "spinor"):
        recs = recur_multiplicity(mod, 29)
        for p in (23, 29):
            box = [
                Weight(d1, d2)
                for d1 in range(-2 * p - 6, 2 * p + 7)
                for d2 in range(-2 * p - 6, 2 * p + 7)
                if (d1 - d2) % 2 == 0
            ]
            walls = [mu for mu in box if to_dominant_regular(mu + RHO)[1] == 0]
            assert walls and len(walls) < len(box)
            assert {m_extended(mod, p, mu) for mu in walls} == {0}
            assert [m_extended(mod, p, mu) for mu in box] == [recs[p](mu) for mu in box], (mod, p)
            assert any(recs[p](mu) < 0 for mu in box)  # reflected values are compared too


def test_iterate_single_step_raises_per_source_weight(monkeypatch):
    # a single shift by -e1-e1 sends rho to the reflection of rho: the one
    # summand of the trivial weight comes out with multiplicity -1
    monkeypatch.setitem(engine.FUNDAMENTAL_WEIGHTS, "vector", (Weight(-6, 0),))
    with pytest.raises(NegativeMultiplicityError, match=r"single step at 0,0 "):
        iterate_single_step("vector", 1)
