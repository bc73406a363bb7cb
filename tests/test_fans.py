"""Fans, singular powers, the recursion that ties them together."""

import sys
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from b2tensor import (
    LatticeSeries,
    OMEGA1,
    OMEGA2,
    Weight,
    decomposition,
    denominator_product,
    fan_closed_form,
    fan_power_direct,
    fan_recursion_solve,
    fan_step_audit,
    fan_with_zero,
    singular_power_direct,
    singular_element,
    singular_power_projected,
    spinor_singular_closed,
    vector_singular_closed,
)
from b2tensor.fans import (
    CLOSED_FORMS,
    _fan_many,
    _spinor_printed_many,
    _tb_quarter,
    _tb_lax,
    _tb_strict,
    _vector_many,
    diff_report,
    fan_line_structure,
)
from b2tensor import diagram, engine, fans, verify
from b2tensor.lattice import FUNDAMENTAL_WEIGHTS
from b2tensor.series import ChamberChain
from conftest import (
    _support_halo,
    halo_weights,
    mass,
    repeated_product,
    support,
    support_bounds,
    weights,
)


def test_pairwise_fan_has_seven_signed_shifts():
    # fan_with_zero(2) off the zero point: the shifts of the pairwise injection
    fan = {w: c for w, c in fan_with_zero(2).items() if w != Weight(0, 0)}
    expect = {
        (0, 1): 1,
        (1, -1): 1,
        (1, 2): -1,
        (2, -1): -1,
        (2, 2): 1,
        (3, 0): 1,
        (3, 1): -1,
    }
    assert fan == {Weight.make(a, b): c for (a, b), c in expect.items()}
    assert fan_with_zero(2).coeff(Weight(0, 0)) == -1


def test_fan_is_reflected_denominator_power():
    for p in (1, 2, 3, 4):
        assert fan_power_direct(p) == repeated_product(denominator_product(), p - 1)
        assert fan_with_zero(p) == fan_power_direct(p).reflect().scale(-1)


@pytest.mark.parametrize("module", ["vector", "spinor"])
def test_fan_identity_series(module):
    for p in range(1, 6):
        lhs = fan_power_direct(p) * singular_power_direct(module, p)
        assert lhs == singular_power_projected(module, p)


def _one_coefficient_changed(series):
    w, _ = series.items()[0]
    return series + LatticeSeries.unit(w)


def _point_on_the_other_coset(series):
    w, _ = series.items()[0]
    return series + LatticeSeries.unit(Weight(w.d1 + 1, w.d2 + 1))


def _point_past_the_box(series):
    w, _ = series.items()[-1]
    return series + LatticeSeries.unit(Weight(w.d1 + 2, w.d2), -1)


@pytest.mark.parametrize("route,args,change", [
    ("singular_power_projected", ("vector", 3), _one_coefficient_changed),
    ("singular_power_projected", ("vector", 3), _point_on_the_other_coset),
    ("singular_power_projected", ("vector", 3), _point_past_the_box),
    ("fan_power_direct", (3,), _one_coefficient_changed),
])
def test_fan_identity_check_fails_on_a_changed_operand(monkeypatch, route, args, change):
    # the only gate that sees is_product fail: the byte gates run passing checks
    assert verify.check_fan_identity(6).status == verify.PASS
    real = getattr(verify, route)

    def changed(*called):
        return change(real(*called)) if called == args else real(*called)

    monkeypatch.setattr(verify, route, changed)
    got = verify.check_fan_identity(6)
    assert (got.status, got.evidence) == (verify.FAIL, "first mismatch at module=vector p=3")


def test_fan_identity_pointwise_source_inclusive():
    p = 2
    fan = fan_with_zero(p)
    for module in ("vector", "spinor"):
        phi = singular_power_direct(module, p)
        pi = singular_power_projected(module, p)
        for w in halo_weights(pi):
            assert pi.coeff(w) + sum(c * phi.coeff(w + g) for g, c in fan.items()) == 0


def singular_power_as_sum(result) -> LatticeSeries:
    """sum_mu m_mu Psi^(mu) for a given decomposition; must reproduce Phi."""
    acc = LatticeSeries()
    for mu, m in result.multiplicities:
        acc = acc + singular_element(mu).scale(m)
    return acc


def test_direct_singular_element_is_sum_of_singular_elements():
    for mod in ("vector", "spinor"):
        r = decomposition(mod, 3)
        assert singular_power_as_sum(r) == singular_power_direct(mod, 3)


def test_phi_and_pi_differ():
    # the closed forms evaluate Pi, not Phi: at (0,1) doubled (0,2) the two
    # disagree already at p=2 for the vector module
    w = Weight.make(0, 1)
    assert singular_power_direct("vector", 2).coeff(w) == 0
    assert singular_power_projected("vector", 2).coeff(w) == 2


def test_fan_closed_form_matches_direct():
    for p in range(1, 5):
        truth = fan_with_zero(p)
        for w in halo_weights(truth):
            if w.d1 % 2 or w.d2 % 2:
                continue
            assert fan_closed_form(p, w.d1 // 2, w.d2 // 2) == truth.coeff(w)


def test_vector_singular_closed_matches_projected():
    for p in range(1, 5):
        truth = singular_power_projected("vector", p)
        for w in halo_weights(truth):
            assert vector_singular_closed(p, w) == truth.coeff(w)


def test_spinor_singular_closed_matches_projected():
    for p in range(1, 6):
        truth = singular_power_projected("spinor", p)
        for w in halo_weights(truth):
            assert spinor_singular_closed(p, w) == truth.coeff(w)


def test_off_coset_points_are_zero():
    assert vector_singular_closed(2, Weight.make(Fraction(1, 2), Fraction(1, 2))) == 0
    assert spinor_singular_closed(2, Weight.make(Fraction(1, 2), Fraction(1, 2))) == 0
    assert spinor_singular_closed(3, Weight.make(1, 0)) == 0


def test_diff_reports_document_printed_formulas():
    assert diff_report("fan", 1) == [{"point": "0,0", "printed": "0", "direct": "-1"}]
    for kind, count in (("fan", 8), ("vector", 32), ("spinor", 33)):
        rows = diff_report(kind, 2)
        assert len(rows) == count
        for r in rows:
            assert int(r["printed"]) != int(r["direct"])


def test_line_structure_is_previous_binomial_row():
    from math import comb

    for p in (2, 3, 4, 5, 6):
        got = fan_line_structure(p)
        assert got == [(t, (-1) ** t * comb(p - 1, t)) for t in range(p)] + [(p, 0)]


@pytest.mark.parametrize("module", ["vector", "spinor"])
def test_fan_recursion_solves_to_oracle(module):
    for p in range(0, 7):
        assert fan_recursion_solve(module, p).to_result() == decomposition(module, p)


def test_fan_solve_reads_r_without_a_reflected_copy(monkeypatch):
    # gamma_p(g) = -R^(p-1)(-g) is read off R^(p-1) itself: the solve never
    # builds fan_with_zero, and fan_with_zero keeps no copy of its own
    monkeypatch.setattr(fans, "fan_with_zero", None)
    for p in range(6):
        assert fan_recursion_solve("spinor", p) == decomposition("spinor", p)
    assert not hasattr(fan_with_zero, "cache_info")


def test_step_audit_worked_example():
    audit = fan_step_audit("vector", 5, Weight.make(3, 1))
    assert audit == {"lines": [(0, 20), (1, -48), (2, 14)], "singular": 20, "total": 6}


@given(st.integers(2, 5))
@settings(max_examples=4, deadline=None)
def test_step_audit_totals_equal_multiplicity(p):
    from b2tensor import m_extended

    for nu, want in decomposition("vector", p).multiplicities:
        audit = fan_step_audit("vector", p, nu)
        assert audit["total"] == want == m_extended("vector", p, nu)


def test_singular_contribution_at_known_weight():
    for p in range(2, 8):
        assert singular_power_projected("vector", p).coeff(Weight.make(p - 2, 1)) == p * (p - 1)


# brute-force triple sums exactly as published, every index in its full range;
# the library versions skip the terms where a truncated binomial vanishes


def brute_fan_closed(p, a, b, tb):
    total = 0
    for k in range(1, p + 1):
        for l in range(1, k + 1):
            for m in range(1, p - k + 2):
                sign = -1 if (k + a + b) % 2 else 1
                total += (
                    sign
                    * tb(p - 1, k - 1)
                    * tb(k - 1, l - 1)
                    * tb(p - k, m - 1)
                    * tb(p - k, b + k - 3 * l + 2)
                    * tb(k - 1, a - k - 3 * m + 4)
                )
    return total


def brute_vector_singular(p, c, d, tb):
    total = 0
    for k in range(1, p + 2):
        for l in range(1, k + 1):
            for m in range(1, p - k + 3):
                sign = -1 if (k - d - c + p - 4 * (l + m) + 7) % 2 else 1
                total += (
                    sign
                    * tb(p, k - 1)
                    * tb(k - 1, l - 1)
                    * tb(p - k + 1, m - 1)
                    * tb(p - k + 1, -d + 2 * k - 5 * (l - 1) - 2)
                    * tb(k - 1, p - c - 2 * k - 5 * (m - 1) + 2)
                )
    return total


def _index_box(series, margin):
    # integer (halved) coordinates covering the support plus margin on every side
    (lo1, hi1), (lo2, hi2) = support_bounds(series)
    return [
        (a, b)
        for a in range(lo1 // 2 - margin, hi1 // 2 + margin + 1)
        for b in range(lo2 // 2 - margin, hi2 // 2 + margin + 1)
    ]


@pytest.mark.parametrize("tb", [_tb_lax, _tb_strict], ids=["lax", "strict"])
def test_pruned_fan_closed_equals_brute_force(tb):
    # one batch per p, so the tabulated rows and columns are shared across the box
    for p in range(1, 9):
        box = _index_box(fan_with_zero(p), margin=2)
        got = _fan_many(p, [(2 * a, 2 * b) for a, b in box], tb)
        for (a, b), value in zip(box, got):
            assert value == brute_fan_closed(p, a, b, tb), (p, a, b)


@pytest.mark.parametrize("tb", [_tb_lax, _tb_strict], ids=["lax", "strict"])
def test_pruned_vector_singular_equals_brute_force(tb):
    for p in range(1, 9):
        box = _index_box(singular_power_projected("vector", p), margin=2)
        got = _vector_many(p, [(2 * c, 2 * d) for c, d in box], tb)
        for (c, d), value in zip(box, got):
            assert value == brute_vector_singular(p, c, d, tb), (p, c, d)


def brute_spinor_singular(p, d1, d2):
    # the (i, j, n, m) block sum of spinor_singular_closed's docstring, every index
    # in its full range; the library tabulates the (i, j) and (n, m) blocks apart
    if d1 % 2 != p % 2 or d2 % 2 != p % 2:
        return 0
    total = 0
    for k in range(p + 1):
        for i in range(p - k + 1):
            for j in range(k + 1):
                for n in range(k + 1):
                    for m in range(p - k + 1):
                        if (p - 2 * k) - d1 == 8 * i + 4 * j and (p + 2 * k) - d2 == 8 * n + 4 * m:
                            sign = -1 if (k + i + j + m + n) % 2 else 1
                            total += (
                                sign
                                * comb(p, k)
                                * comb(p - k, i)
                                * comb(k, j)
                                * comb(p - k, m)
                                * comb(k, n)
                            )
    return total


def test_factored_spinor_singular_equals_brute_force():
    for p in range(1, 8):
        (lo1, hi1), (lo2, hi2) = support_bounds(singular_power_projected("spinor", p))
        for d1 in range(lo1 - 3, hi1 + 4):
            for d2 in range(lo2 - 3, hi2 + 4):
                if (d1 - d2) % 2 == 0:
                    w = Weight(d1, d2)
                    assert spinor_singular_closed(p, w) == brute_spinor_singular(p, d1, d2), (p, w)


def printed_at(kind):
    # the printed reading one point at a time, so no table is shared between points
    return lambda p, w: CLOSED_FORMS[kind].printed(p, [(w.d1, w.d2)])[0]


# the convolution each closed-form kind reproduces, unfolded
TRUTH = {
    "fan": fan_with_zero,
    "vector": lambda p: singular_power_projected("vector", p),
    "spinor": lambda p: singular_power_projected("spinor", p),
}


POINTWISE = {
    "fan": (
        lambda p, w: fan_closed_form(p, w.d1 // 2, w.d2 // 2) if w.d1 % 2 == w.d2 % 2 == 0 else 0,
        printed_at("fan"),
    ),
    "vector": (vector_singular_closed, printed_at("vector")),
    "spinor": (spinor_singular_closed, printed_at("spinor")),
}


@given(
    st.sampled_from(sorted(CLOSED_FORMS)),
    st.integers(1, 9),
    st.lists(weights(span=40), min_size=1, max_size=60),
)
@settings(max_examples=60, deadline=None)
def test_batch_closed_forms_equal_pointwise(kind, p, points):
    # random points, most off the support and half of them off the coset, with
    # repeats so that tabulated rows and columns are shared between points
    form = CLOSED_FORMS[kind]
    validated, printed = POINTWISE[kind]
    pairs = [(w.d1, w.d2) for w in points] + [(w.d2, w.d1) for w in points]
    at = [Weight(*pt) for pt in pairs]
    got = form.validated(p, pairs)
    assert got == [validated(p, w) for w in at]
    truth = TRUTH[kind](p).by_tuple()  # the convolution, far beyond the halo of verify
    assert got == [truth.get(pt, 0) for pt in pairs]
    if kind != "spinor" or p <= 5:  # the verbatim spinor triple loop is slow
        assert form.printed(p, pairs) == [printed(p, w) for w in at]


def test_batch_closed_forms_cover_the_support():
    # the same on the support itself, where the values are nonzero
    for kind, form in CLOSED_FORMS.items():
        validated, _ = POINTWISE[kind]
        for p in (3, 6):
            truth = TRUTH[kind](p).by_tuple()
            pairs = sorted(truth)
            assert form.validated(p, pairs) == [validated(p, Weight(*pt)) for pt in pairs]
            assert form.validated(p, pairs) == [truth[pt] for pt in pairs]


def fresh(kind, p, point):
    # the validated batch evaluator on one point: its tables are new and dropped
    return CLOSED_FORMS[kind].validated(p, [point])[0]


@st.composite
def point_queries(draw):
    """A shuffled list of (kind, p, doubled point) for one or two kinds and
    one to three powers, whose points take their coordinates from a few
    values, so that kinds, powers and coordinates repeat: values on and near
    the supports, which lie in |d| <= 8p, and far off them, of both
    parities."""
    kinds = draw(st.lists(st.sampled_from(sorted(CLOSED_FORMS)), min_size=1, max_size=2, unique=True))
    powers = draw(st.lists(st.integers(1, 30), min_size=1, max_size=3, unique=True))
    near, box = (st.integers(-8 * p - 4, 8 * p + 4) for p in (min(powers), max(powers)))
    far = st.integers(8 * max(powers) + 5, 10**4).flatmap(lambda d: st.sampled_from((d, -d)))
    coordinates = st.sampled_from(draw(st.lists(near | box | far, min_size=1, max_size=6)))
    queries = []
    for _ in range(draw(st.integers(1, 40))):
        kind, p = draw(st.sampled_from(kinds)), draw(st.sampled_from(powers))
        queries.append((kind, p, draw(st.tuples(coordinates, coordinates))))
    return draw(st.permutations(queries))


@given(point_queries())
@settings(max_examples=100, deadline=None)
def test_kept_tables_answer_as_a_fresh_batch(queries):
    fans._POINT_TABLES.clear()
    for kind, p, point in queries:
        assert fans.closed_form_point(kind, p, point) == fresh(kind, p, point), (kind, p, point)


def test_kept_tables_keep_powers_apart():
    # at (0, 2) the validated fan is 1 at p = 2 and 2 at p = 3
    assert [fresh("fan", p, (0, 2)) for p in (2, 3)] == [1, 2]
    for p in (2, 3):
        assert fans.closed_form_point("fan", p, (0, 2)) == fresh("fan", p, (0, 2))
    assert list(fans._POINT_TABLES.entries) == [("fan", 2), ("fan", 3)]


def test_kept_tables_stay_within_their_bound():
    tables = fans._POINT_TABLES
    bound = fans.FACTOR_CHARGE
    # each far point adds two zero vectors, each charged p + 2 = 32 at p = 30;
    # the first table is asked again midway, so it is not the least recently used
    queries = [("fan", 30, (0, 0))]
    queries += [(kind, 30, (2 * i, -2 * i)) for i in range(300, 500) for kind in ("fan", "vector")]
    queries += [("fan", 30, (0, 0))]
    queries += [("spinor", 30, (2 * i, -2 * i)) for i in range(300, 600)]
    queries += [("vector", 29, (4, -2))]
    evicted = False
    for kind, p, point in queries:
        assert fans.closed_form_point(kind, p, point) == fresh(kind, p, point)
        charged = sum((len(f) + len(s)) * (q + 2) for (_, q), (f, s) in tables.entries.items())
        assert tables.charged == charged <= bound
        evicted = evicted or ("vector", 30) not in tables.entries
    assert evicted
    assert list(tables.entries) == [("fan", 30), ("spinor", 30), ("vector", 29)]
    assert fans.closed_form_point("fan", 30, (0, 0)) == -1


@pytest.mark.parametrize("module", ["vector", "spinor"])
def test_incremental_chains_equal_repeated_power(module):
    omega = Weight.make(1, 0) if module == "vector" else Weight.make(Fraction(1, 2), Fraction(1, 2))
    psi, r = singular_element(omega), denominator_product()
    for p in range(13):
        assert singular_power_projected(module, p) == repeated_product(psi, p), p
    for p in range(1, 13):
        assert fan_power_direct(p) == repeated_product(r, p - 1), p


# every route that takes a module, at p = 2
ROUTES_BY_MODULE = {
    "tensor_power_weights": lambda mod: engine.tensor_power_weights(mod, 2),
    "decomposition": lambda mod: decomposition(mod, 2),
    "recur_multiplicity": lambda mod: engine.recur_multiplicity(mod, 2),
    "iterate_single_step": lambda mod: engine.iterate_single_step(mod, 2),
    "m_extended": lambda mod: engine.m_extended(mod, 2, Weight(0, 0)),
    "m_extended on a wall": lambda mod: engine.m_extended(mod, 2, Weight(-2, 0)),
    "single_step_decompose": lambda mod: engine.single_step_decompose(Weight(4, 0), mod),
    "singular_power_direct": lambda mod: singular_power_direct(mod, 2),
    "singular_power_projected": lambda mod: singular_power_projected(mod, 2),
    "fan_recursion_solve": lambda mod: fan_recursion_solve(mod, 2),
    "fan_step_audit": lambda mod: fan_step_audit(mod, 2, Weight(0, 0)),
    "to_dot": lambda mod: diagram.to_dot(mod, 2),
}


@pytest.mark.parametrize("module", [1, "adjoint"])
@pytest.mark.parametrize("route", sorted(ROUTES_BY_MODULE))
def test_a_module_is_named_by_its_name_only(route, module):
    # "vector" and "spinor" are the only spellings; an index is an unknown name
    with pytest.raises(KeyError):
        ROUTES_BY_MODULE[route](module)


# the four routes, the three powered families, m_extended and to_dot, each at (module, p)
ROUTES_BY_POWER = {
    "decomposition": decomposition,
    "recur_multiplicity": engine.recur_multiplicity,
    "iterate_single_step": engine.iterate_single_step,
    "fan_recursion_solve": fan_recursion_solve,
    "tensor_power_weights": engine.tensor_power_weights,
    "singular_power_direct": singular_power_direct,
    "singular_power_projected": singular_power_projected,
    "m_extended off a wall": lambda mod, p: engine.m_extended(mod, p, Weight(2, 0)),
    "m_extended on a wall": lambda mod, p: engine.m_extended(mod, p, Weight(-3, -1)),
    "to_dot": diagram.to_dot,
}


@pytest.mark.parametrize("module", ["vector", "spinor"])
@pytest.mark.parametrize("route", sorted(ROUTES_BY_POWER))
def test_a_negative_power_is_an_error(route, module):
    with pytest.raises(ValueError, match="negative power"):
        ROUTES_BY_POWER[route](module, -1)
    with pytest.raises(KeyError):
        ROUTES_BY_POWER[route]("adjoint", -1)


@pytest.mark.parametrize("module,powers", [("vector", range(11, 15)), ("spinor", range(11, 17))])
def test_bounded_fan_solve_beyond_verify_range(module, powers):
    # past verify's default pmax, where the g1 cut-off skips the most shifts
    for p in powers:
        assert fan_recursion_solve(module, p).to_result() == decomposition(module, p), p


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_chains_fill_bottom_up_without_recursion(monkeypatch):
    # each chain from empty to p = 30 with only 20 frames to spare: a chain that
    # recursed once per p would need at least 30
    diagrams = {mod: LatticeSeries({w: 1 for w in ws}) for mod, ws in FUNDAMENTAL_WEIGHTS.items()}
    singular = {"vector": singular_element(OMEGA1), "spinor": singular_element(OMEGA2)}
    monkeypatch.setattr(
        engine, "_DIAGRAMS", {mod: ChamberChain(d, False) for mod, d in diagrams.items()}
    )
    monkeypatch.setattr(fans, "_FAN", ChamberChain(denominator_product(), True))
    monkeypatch.setattr(
        fans, "_PROJECTED", {mod: ChamberChain(psi, True) for mod, psi in singular.items()}
    )
    engine.tensor_power_weights.cache_clear()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 20)
    try:
        weights30 = engine.tensor_power_weights("vector", 30)
        fan30 = fan_power_direct(30)
        pi30 = singular_power_projected("spinor", 30)
    finally:
        sys.setrecursionlimit(limit)
    assert mass(weights30) == 5**30
    assert fan30 == repeated_product(denominator_product(), 29)
    assert pi30.coeff(Weight(30, 30)) == 1


def verbatim_spinor_printed(p, c2, d2):
    # reference: the published spinor sum as a verbatim triple loop, the sign
    # unsplit and the coset test in the innermost loop
    total = 0
    for k in range(1, p + 2):
        for l in range(1, k + 1):
            for m in range(1, p - k + 3):
                if (c2 - d2) % 4:
                    continue
                e = k + (c2 - d2) // 4 - (l + m) + 1
                sign = -1 if e % 2 else 1
                s3_quad = 2 * (4 * (1 - m) - k + 1) + c2 - p
                s5_quad = 2 * (2 - 4 * m + k + 1) - d2 + p
                total += (
                    sign
                    * _tb_strict(p, k - 1)
                    * _tb_strict(k, l - 1)
                    * _tb_strict(p - k + 1, m - 1)
                    * _tb_quarter(k, s3_quad)
                    * _tb_quarter(k, s5_quad)
                )
    return total


def test_factored_printed_spinor_equals_verbatim_triple_loop():
    # Every integer point of a box, so d1 - d2 takes all four residues mod 4
    # (the odd ones are off the lattice; the batch takes them). The box is the
    # support of Pi_spinor plus 3, widened to the printed formula's own reach:
    # its binomial superscripts lie in 1..k only for p + 4 <= d1 <= 9p + 4 and
    # -7p - 4 <= d2 <= 3p - 4, where all of its nonzero values sit.
    residues = set()
    nonzero = 0
    for p in range(1, 9):
        (lo1, hi1), (lo2, hi2) = support_bounds(singular_power_projected("spinor", p))
        box = [
            (d1, d2)
            for d1 in range(lo1 - 3, max(hi1 + 3, 9 * p + 4) + 1)
            for d2 in range(min(lo2 - 3, -7 * p - 4), hi2 + 4)
        ]
        got = _spinor_printed_many(p, box)
        for (d1, d2), value in zip(box, got):
            assert value == verbatim_spinor_printed(p, d1, d2), (p, d1, d2)
            residues.add((d1 - d2) % 4)
            nonzero += value != 0
    assert residues == {0, 1, 2, 3}
    assert nonzero > 200  # the two sides are not both the zero function


def test_printed_spinor_returns_zero_off_the_quarter_coset_at_once(monkeypatch):
    # Off c2 = d2 (mod 4) the two quadrupled superscripts sum to c2 - d2 + 8
    # (mod 4), so they are never both multiples of 4 and every term dies anyway:
    # the values cannot show whether the test happens first, only the work can.
    calls = []

    def counting(j, quad_i):
        calls.append((j, quad_i))
        return _tb_quarter(j, quad_i)

    monkeypatch.setattr(fans, "_tb_quarter", counting)
    off = [(d1, d2) for d1 in range(-9, 10) for d2 in range(-9, 10) if (d1 - d2) % 4]
    assert _spinor_printed_many(6, off) == [0] * len(off)
    assert calls == []
    assert _spinor_printed_many(6, [(26, -10)]) == [verbatim_spinor_printed(6, 26, -10)]
    assert calls


def nested_support_halo(series, step=2):
    pts = set()
    for w in support(series):
        for da in (-step, 0, step):
            for db in (-step, 0, step):
                pts.add((w.d1 + da, w.d2 + db))
    return sorted(pts)


@pytest.mark.parametrize("step", [1, 2, 3])
def test_support_halo_equals_nested_loops(step):
    for series in (fan_with_zero(4), singular_power_projected("spinor", 5), LatticeSeries()):
        assert _support_halo(series, step) == nested_support_halo(series, step)


@pytest.mark.parametrize("kind", ["fan", "vector", "spinor"])
def test_folded_window_equals_the_unfolded_halo(kind):
    # built from the chamber keys of the truth's chain: a wall point missed by
    # the chamber filter, a fan window shifted the wrong way, or an image
    # given the wrong sign, shows here
    for p in range(1, 15):
        truth = TRUTH[kind](p)
        points, values = fans.closed_form_window(kind, p)
        assert points == nested_support_halo(truth), (kind, p)
        terms = truth.by_tuple()
        assert values == [terms.get(pt, 0) for pt in points], (kind, p)
