"""Route disagreements looked for at random points up to the sizes the CLI serves.

decompose and multiplicity answer up to p = 100, fan and singular up to 40,
fit up to pmax 150, and verify compares the four routes up to pmax 22. These
tests sample the range between with a few hypothesis examples at large p, so
that together they stay within 3 s on a 2-core VM. The fixed p = 100 cases,
the dimension identity and M on walls and off the chamber, are inputs of
their tests in test_engine.py.
"""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from b2tensor import closed_forms as cf, decomposition, recur_multiplicity
from b2tensor.cli import LIMITS, main
from b2tensor.engine import band_values, iterate_single_step, m_extended
from b2tensor.fans import _FAN, _PROJECTED, CLOSED_FORMS, fan_recursion_solve
from b2tensor.lattice import RHO, WEYL_GROUP, deficit
from conftest import near_top

P_TOP = LIMITS["decompose"][2]  # the largest power decompose and multiplicity serve
P_FAN = LIMITS["fan"][2]  # the largest power fan and singular serve
MODULES = st.sampled_from(("vector", "spinor"))


@given(MODULES, st.integers(30, P_TOP), st.integers(0, 8))
@settings(max_examples=4, deadline=None)
def test_band_record_equals_the_oracle_on_the_band(mod, p, depth):
    oracle = decomposition(mod, p).values
    record = recur_multiplicity(mod, p, depth)[p]
    assert record.values == {pt: m for pt, m in oracle.items() if deficit(mod, p, *pt) <= depth}


_READ = st.tuples(st.integers(0, P_TOP), st.integers(-2, 6), st.integers(-50, 50), st.integers(0, 1))


@given(MODULES, st.lists(_READ, min_size=1, max_size=8))
@settings(max_examples=6, deadline=None)
def test_m_extended_equals_the_band_at_random_large_powers(mod, reads):
    reads = [(p, near_top(mod, p, k, c, e)) for p, k, c, e in reads]
    assert band_values(mod, reads) == [m_extended(mod, p, w) for p, w in reads]


# hypothesis tries the least example (vector, 23) first, so one random power
# takes a second example
@given(MODULES, st.integers(23, 30))
@settings(max_examples=2, deadline=None)
def test_four_routes_agree_above_the_verify_range(mod, p):
    oracle = decomposition(mod, p)
    assert oracle == recur_multiplicity(mod, p)[p] == fan_recursion_solve(mod, p)
    assert oracle == iterate_single_step(mod, p)


@given(st.integers(0, P_TOP))
@settings(max_examples=4, deadline=None)
def test_published_tables_equal_m_extended_at_random_powers(p):
    for i in range(4):
        for j in range(4):
            assert cf.vector_table(i, j, p) == m_extended("vector", p, cf.vector_table_weight(i, j, p))
    for a, b in cf.SPINOR_TABLE_KEYS:
        assert cf.spinor_table(a, b, p) == m_extended("spinor", p, cf.spinor_table_weight(a, b, p))


_HALO = st.sampled_from((-2, 0, 2))
_NEAR = st.tuples(st.integers(0, 10**6), _HALO, _HALO, st.sampled_from(WEYL_GROUP))


@given(st.sampled_from(tuple(CLOSED_FORMS)), st.lists(_NEAR, min_size=1, max_size=16))
@settings(max_examples=6, deadline=None)
def test_chamber_reads_equal_the_validated_closed_forms(kind, near):
    # The truth of the fan is gamma(x) = -R^(p-1)(-x), that of the other kinds
    # Pi(x), each read here by ChamberChain.at. As in ChamberChain.window,
    # the window is the images w(c + h) - shift * rho of the keys c of the
    # chain's chamber, h in {-2, 0, 2}^2, so each drawn point is a window
    # point.
    if kind == "fan":
        chain, n, sign, shift = _FAN, P_FAN - 1, -1, 1 - P_FAN
    else:
        chain, n, sign, shift = _PROJECTED[kind], P_FAN, 1, P_FAN
    keys = sorted(chain.chamber(n))
    points = []
    for i, h1, h2, w in near:
        c1, c2 = keys[i % len(keys)]
        x1, x2 = w.act(c1 + h1, c2 + h2)
        points.append((x1 - shift * RHO.d1, x2 - shift * RHO.d2))
    reads = [sign * chain.at(n, sign * x1, sign * x2) for x1, x2 in points]
    assert CLOSED_FORMS[kind].validated(P_FAN, points) == reads


@given(st.integers(1, 6), st.integers(0, 4))
@settings(max_examples=2, deadline=None)
def test_fit_predictions_at_the_largest_pmax_equal_m_extended(s, t):
    pmax = LIMITS["fit"][2]
    argv = ["fit", "--s", str(s), "--t", str(t), "--pmax", str(pmax), "--format", "json"]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(argv) == 0
    predictions = json.loads(out.getvalue())["predictions"]
    assert [row["p"] for row in predictions] == [pmax + 5, pmax + 6, pmax + 7]
    for row in predictions:
        p = row["p"]
        assert int(row["fit"]) == m_extended("vector", p, cf.diagonal_weight(s, t, p))
