"""Route disagreements looked for at random points up to the sizes the CLI serves.

decompose and multiplicity answer up to p = 100, and verify compares the four
routes up to pmax 22. These tests sample the range between with a few
hypothesis examples at large p, so that together they stay within 3 s on a
2-core VM. The fixed p = 100 cases, the dimension identity and M on walls and
off the chamber, are inputs of their tests in test_engine.py.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from b2tensor import decomposition, recur_multiplicity
from b2tensor.cli import LIMITS
from b2tensor.engine import band_values, iterate_single_step, m_extended
from b2tensor.fans import fan_recursion_solve
from b2tensor.lattice import deficit
from conftest import near_top

P_TOP = LIMITS["decompose"][2]  # the largest power decompose and multiplicity serve
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
