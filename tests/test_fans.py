"""Fans, singular powers, the recursion that ties them together."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from b2tensor import (
    Weight,
    decomposition,
    denominator_product,
    fan_closed_form,
    fan_pairwise,
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
    _fan_closed,
    _support_halo,
    _tb_lax,
    _tb_strict,
    _vector_singular,
    diff_report,
    fan_line_structure,
    singular_power_as_sum,
)


def test_pairwise_fan_has_seven_signed_shifts():
    fan = fan_pairwise()
    expect = {
        (0, 1): 1,
        (1, -1): 1,
        (1, 2): -1,
        (2, -1): -1,
        (2, 2): 1,
        (3, 0): 1,
        (3, 1): -1,
    }
    assert dict(fan.items()) == {Weight.make(a, b): c for (a, b), c in expect.items()}
    assert fan_with_zero(2).coeff(Weight(0, 0)) == -1


def test_fan_is_reflected_denominator_power():
    for p in (1, 2, 3, 4):
        assert fan_power_direct(p) == denominator_product().power(p - 1)
        assert fan_with_zero(p) == fan_power_direct(p).reflect().scale(-1)


@pytest.mark.parametrize("module", [1, 2])
def test_fan_identity_series(module):
    for p in range(1, 6):
        lhs = fan_power_direct(p) * singular_power_direct(module, p)
        assert lhs == singular_power_projected(module, p)


def test_fan_identity_pointwise_source_inclusive():
    p = 2
    fan = fan_with_zero(p)
    for module in (1, 2):
        phi = singular_power_direct(module, p)
        pi = singular_power_projected(module, p)
        for w in _support_halo(pi):
            assert pi.coeff(w) + sum(c * phi.coeff(w + g) for g, c in fan.items()) == 0


def test_direct_singular_element_is_sum_of_singular_elements():
    for mod in ("vector", "spinor"):
        r = decomposition(mod, 3)
        assert singular_power_as_sum(r) == singular_power_direct(mod, 3)


def test_phi_and_pi_differ():
    # the closed forms evaluate Pi, not Phi: at (0,1) doubled (0,2) the two
    # disagree already at p=2 for the vector module
    w = Weight.make(0, 1)
    assert singular_power_direct(1, 2).coeff(w) == 0
    assert singular_power_projected(1, 2).coeff(w) == 2


def test_fan_closed_form_matches_direct():
    for p in range(1, 5):
        truth = fan_with_zero(p)
        for w in _support_halo(truth):
            if w.d1 % 2 or w.d2 % 2:
                continue
            assert fan_closed_form(p, w.d1 // 2, w.d2 // 2) == truth.coeff(w)


def test_vector_singular_closed_matches_projected():
    for p in range(1, 5):
        truth = singular_power_projected(1, p)
        for w in _support_halo(truth):
            assert vector_singular_closed(p, w) == truth.coeff(w)


def test_spinor_singular_closed_matches_projected():
    for p in range(1, 6):
        truth = singular_power_projected(2, p)
        for w in _support_halo(truth):
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
        assert singular_power_projected(1, p).coeff(Weight.make(p - 2, 1)) == p * (p - 1)


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
    (lo1, hi1), (lo2, hi2) = series.support_bounds()
    return [
        (a, b)
        for a in range(lo1 // 2 - margin, hi1 // 2 + margin + 1)
        for b in range(lo2 // 2 - margin, hi2 // 2 + margin + 1)
    ]


@pytest.mark.parametrize("tb", [_tb_lax, _tb_strict], ids=["lax", "strict"])
def test_pruned_fan_closed_equals_brute_force(tb):
    for p in range(1, 9):
        for a, b in _index_box(fan_with_zero(p), margin=2):
            assert _fan_closed(p, a, b, tb) == brute_fan_closed(p, a, b, tb), (p, a, b)


@pytest.mark.parametrize("tb", [_tb_lax, _tb_strict], ids=["lax", "strict"])
def test_pruned_vector_singular_equals_brute_force(tb):
    for p in range(1, 9):
        for c, d in _index_box(singular_power_projected(1, p), margin=2):
            assert _vector_singular(p, c, d, tb) == brute_vector_singular(p, c, d, tb), (p, c, d)


@pytest.mark.parametrize("module", [1, 2])
def test_incremental_chains_equal_repeated_power(module):
    omega = Weight.make(1, 0) if module == 1 else Weight.make(Fraction(1, 2), Fraction(1, 2))
    for p in range(13):
        assert singular_power_projected(module, p) == singular_element(omega).power(p), p
    for p in range(1, 13):
        assert fan_power_direct(p) == denominator_product().power(p - 1), p


def test_one_cache_entry_per_module_and_power():
    assert singular_power_projected("vector", 6) is singular_power_projected(1, 6)
    assert singular_power_projected("spinor", 5) is singular_power_projected(2, 5)
    assert singular_power_direct("vector", 4) is singular_power_direct(1, 4)


@pytest.mark.parametrize("module,powers", [("vector", range(11, 15)), ("spinor", range(11, 17))])
def test_bounded_fan_solve_beyond_verify_range(module, powers):
    # past verify's default pmax, where the g1 cut-off skips the most shifts
    for p in powers:
        assert fan_recursion_solve(module, p).to_result() == decomposition(module, p), p
