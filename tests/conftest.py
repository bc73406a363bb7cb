"""Shared strategies (weights on the doubled lattice, dominant weights, powers)
and the Fraction reference of the weight text."""

from fractions import Fraction

from hypothesis import strategies as st

from b2tensor import WEYL_GROUP, Weight
from b2tensor.fans import _support_halo


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


def weyl_elements():
    return st.sampled_from(WEYL_GROUP)


def small_powers(top: int = 6):
    return st.integers(0, top)


def halo_weights(series):
    """The support of series plus a halo, as Weights."""
    return [Weight(d1, d2) for d1, d2 in _support_halo(series)]


def text_by_fractions(w: Weight) -> str:
    """Weight.text through Fraction: the reference for its doubled-integer path."""
    return f"{Fraction(w.d1, 2)},{Fraction(w.d2, 2)}"
