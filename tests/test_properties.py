"""Property tests: homogeneity, the rsk round trip and transpose symmetry."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from octarray import (  # noqa: E402
    Array,
    condense_down,
    condense_left,
    rsk,
    rsk_inverse,
    transpose,
)

PROPERTY = settings(max_examples=60, deadline=None, database=None)

masses = st.one_of(
    st.just(0),
    st.integers(0, 9),
    st.fractions(min_value=0, max_value=9, max_denominator=12),
)


@st.composite
def arrays(draw, max_side=6):
    n = draw(st.integers(1, max_side))
    m = draw(st.integers(1, max_side))
    rows = draw(st.lists(st.lists(masses, min_size=n, max_size=n),
                         min_size=m, max_size=m))
    return Array(rows)


factors = st.one_of(st.integers(1, 30), st.fractions(min_value=Fraction(1, 12),
                                                     max_value=12, max_denominator=12))


def scaled(a, c):
    return Array([[c * x for x in row] for row in a.rows])


@PROPERTY
@given(arrays(), factors)
def test_condense_down_is_positively_homogeneous(a, c):
    assert condense_down(scaled(a, c)) == scaled(condense_down(a), c)


@PROPERTY
@given(arrays(max_side=5), factors)
def test_rsk_is_positively_homogeneous(a, c):
    d, l = rsk(a)
    assert rsk(scaled(a, c)) == (scaled(d, c), scaled(l, c))


@PROPERTY
@given(arrays())
def test_rsk_round_trip(a):
    d, l = rsk(a)
    assert d == condense_down(a)
    assert l == condense_left(a)
    assert rsk_inverse(d, l) == a


@PROPERTY
@given(arrays())
def test_condense_left_is_condense_down_transposed(a):
    assert condense_left(a) == transpose(condense_down(transpose(a)))
