"""Lattice layer: weights, the signed-permutation group, dominance, dimensions."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import b2tensor
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
)
from b2tensor import lattice
from b2tensor.closed_forms import NewtonFit
from b2tensor.engine import decomposition, recur_multiplicity
from b2tensor.lattice import (
    FUNDAMENTAL,
    FUNDAMENTAL_WEIGHTS,
    POSITIVE_ROOTS,
    WeylElement,
    band,
    deficit,
    dominated,
    power_highest_weight,
)
from b2tensor.verify import CheckResult, VerificationReport
from conftest import dominant_weights, parse_by_fractions, text_by_fractions, weights, weyl_elements


@given(st.integers(-50, 50), st.integers(-50, 50))
def test_weight_parity_enforced(d1, d2):
    if (d1 - d2) % 2:
        with pytest.raises(ValueError, match="off the weight lattice"):
            Weight(d1, d2)
    else:
        assert Weight(d1, d2) == (d1, d2)
    with pytest.raises(ValueError):
        Weight.make(Fraction(1, 2), 1)


# record contract: the six records are slotted tuples, and Weight and
# WeylElement check their fields once per construction


@given(st.lists(weights(), max_size=12))
def test_weight_order_equality_and_hash_are_those_of_the_pair(ws):
    assert [(w.d1, w.d2) for w in sorted(ws)] == sorted((w.d1, w.d2) for w in ws)
    for a in ws[:4]:
        for b in ws:
            assert (a == b) == ((a.d1, a.d2) == (b.d1, b.d2))
            if a == b:
                assert hash(a) == hash(b)


@given(weights())
def test_weight_is_immutable_and_has_no_dict(w):
    with pytest.raises(AttributeError):
        w.d1 = w.d1 + 2
    assert not hasattr(w, "__dict__")


def test_weyl_element_rejects_signs_other_than_one():
    with pytest.raises(ValueError, match="signs must be"):
        WeylElement(False, 1, 2)


@given(st.lists(st.tuples(st.integers(-9, 9), st.booleans()), max_size=8))
def test_each_weight_runs_its_check_once(points):
    calls = []
    check = Weight.__post_init__

    def counted(self):
        calls.append(self)
        check(self)

    Weight.__post_init__ = counted
    try:
        built = [Weight(2 * a + half, half) for a, half in points]
    finally:
        Weight.__post_init__ = check
    assert calls == built


def test_records_are_slotted():
    records = [
        Weight(0, 0),
        WEYL_GROUP[0],
        decomposition("vector", 1),
        recur_multiplicity("vector", 1)[1],
        NewtonFit(0, (0, 1, 2), 1),
        CheckResult("name", "pass", ""),
        VerificationReport("all", 4, []),
    ]
    for record in records:
        assert isinstance(record, tuple) and not hasattr(record, "__dict__"), type(record)


def test_src_builds_weights_only_through_the_checked_constructor():
    # _make and _replace skip Weight.__new__ and so the lattice check. A call
    # counts as one on a Weight or WeylElement if it sits in lattice.py, which
    # defines no other record, or if its receiver names either class; on the
    # other records both stay free to use.
    sites = []
    for path in sorted(Path(b2tensor.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in ("_make", "_replace"):
                receiver = ast.unparse(node.value)
                if path.name == "lattice.py" or "Weight" in receiver or "WeylElement" in receiver:
                    sites.append(f"{path.name}:{ast.unparse(node)}")
    assert sites == []


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


# coordinate texts: some that int() reads, some only Fraction reads, some
# neither does, and some with an exponent, which both parses refuse
_DIGITS = "0123456789\u0663\uff11"  # \u0663 and \uff11 are the digits 3 and 1
_COORDS = st.text(_DIGITS + "+-_ /.e", max_size=6) | st.tuples(
    st.sampled_from(("", " ", "+", "-", " -")),
    st.text(_DIGITS, min_size=1, max_size=4),
    st.sampled_from(("", "_0", "/2", "/-2", "/0", "1/2", ".5", " ")),
).map("".join)


def _parsed(parse, text):
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


@given(st.one_of(st.tuples(_COORDS, _COORDS), st.lists(_COORDS, max_size=3)).map(",".join))
@settings(max_examples=300)
def test_parse_matches_the_fraction_reference(text):
    # the same Weight, or the same exception type and message
    got, want = _parsed(Weight.parse, text), _parsed(parse_by_fractions, text)
    assert (type(got), got) == (type(want), want)


# halves as people write them: a sign, leading zeros, spaces around the parts
# and the '/', a denominator 02, and digits int() reads but [0-9] does not match
_SPACES = st.sampled_from(("", " ", "  "))
_HALVES = st.tuples(
    _SPACES,
    st.sampled_from(("", "+", "-")),
    st.sampled_from(("", "0", "00")),
    st.text(_DIGITS, min_size=1, max_size=4),
    _SPACES,
    st.just("/"),
    _SPACES,
    st.sampled_from(("2", "02", "4")),
    _SPACES,
).map("".join)


@given(_HALVES | st.integers(-99, 99).map(str), _HALVES)
@settings(max_examples=300)
def test_parse_reads_halves_as_make_does(v1, v2):
    text = f"{v1},{v2}"
    got, want = _parsed(Weight.parse, text), _parsed(lambda _: Weight.make(v1.strip(), v2.strip()), text)
    assert (type(got), got) == (type(want), want)


@pytest.mark.parametrize("text", ["9e999999,0", "0, 1E5", "5e-1,5e-1", "1/2e1,0"])
def test_parse_refuses_an_exponent_before_fraction_reads_it(monkeypatch, text):
    def no_fraction(*_):
        raise AssertionError("Fraction read a coordinate with an exponent")

    monkeypatch.setattr(lattice, "Fraction", no_fraction)
    with pytest.raises(ValueError, match="has an exponent"):
        Weight.parse(text)


class _FractionWithoutUnderscores(Fraction):
    """Fraction as Python 3.10 reads a string: with no underscores."""

    def __new__(cls, numerator=0, denominator=None):
        if isinstance(numerator, str) and "_" in numerator:
            raise ValueError(f"Invalid literal for Fraction: {numerator!r}")
        return super().__new__(cls, numerator, denominator)


@pytest.mark.parametrize("text", ["1_0,0", "2,1_0", "-1_1, 3"])
def test_parse_reads_underscores_as_fraction_does(monkeypatch, text):
    # int() reads '1_0' on every Python, Fraction only from 3.11: parse must
    # answer as the running Fraction does, so no version accepts more than before
    assert Weight.parse(text) == parse_by_fractions(text)
    monkeypatch.setattr(lattice, "Fraction", _FractionWithoutUnderscores)
    with pytest.raises(ValueError, match="Invalid literal for Fraction"):
        Weight.parse(text)


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
    assert set(FUNDAMENTAL) == set(FUNDAMENTAL_WEIGHTS) == {"vector", "spinor"}
    vec = FUNDAMENTAL_WEIGHTS["vector"]
    assert len(vec) == 5 and Weight.make(0, 0) in vec
    sp = FUNDAMENTAL_WEIGHTS["spinor"]
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
        assert power_highest_weight("vector", p) == (p * OMEGA1.d1, p * OMEGA1.d2)
        assert power_highest_weight("spinor", p) == (p * OMEGA2.d1, p * OMEGA2.d2)


def test_deficit_is_the_simple_root_coordinate_below_p_omega():
    # p*omega - mu = x*alpha1 + y*alpha2: the vector deficit is x, the spinor one y
    for module, root in (("vector", ALPHA1), ("spinor", ALPHA2)):
        for p in range(9):
            l1, l2 = power_highest_weight(module, p)
            for d1, d2 in dominated(l1, l2):
                x, y = (l1 - d1) // 2, (l1 + l2 - d1 - d2) // 2
                assert deficit(module, p, d1, d2) == (x if root == ALPHA1 else y)


def test_band_is_dominated_cut_by_the_deficit():
    for module in ("vector", "spinor"):
        for p in range(13):
            every = dominated(*power_highest_weight(module, p))
            for depth in range(p + 2):
                want = [pt for pt in every if deficit(module, p, *pt) <= depth]
                assert band(module, p, depth) == want, (module, p, depth)


def test_deficit_premises_of_the_band():
    # the height is >= 0 on every positive root and at most f(omega) on every
    # module weight: the two facts that close recur_multiplicity's band
    for module, weights_of in FUNDAMENTAL_WEIGHTS.items():
        assert all(deficit(module, 0, *alpha) <= 0 for alpha in POSITIVE_ROOTS)
        assert all(deficit(module, 1, *zeta) >= 0 for zeta in weights_of)
        assert deficit(module, 1, *FUNDAMENTAL[module]) == 0
    with pytest.raises(KeyError):
        deficit("adjoint", 1, 0, 0)
