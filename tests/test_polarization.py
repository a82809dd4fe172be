"""Property tests: every propagated solid is polarized, and `propagate`
reports the flags the library predicates give."""

import contextlib
import io
import json
import sys

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from octarray import (  # noqa: E402
    PRISM_FRAME,
    TETRA_FRAME,
    Array,
    is_polarized,
    is_polarized_dc,
    prism_propagate,
    propagate_prism_faces,
    serialize,
    tetra_propagate,
)
from octarray.cli import main  # noqa: E402

PROPERTY = settings(max_examples=60, deadline=None, database=None)

# signed values too: the faces below need not come from an array
values = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
)
masses = st.one_of(
    st.integers(0, 9),
    st.fractions(min_value=0, max_value=9, max_denominator=12),
)


@st.composite
def arrays(draw, max_side=5):
    n = draw(st.integers(1, max_side))
    m = draw(st.integers(1, max_side))
    return Array(draw(st.lists(st.lists(masses, min_size=n, max_size=n),
                               min_size=m, max_size=m)))


def face_values(draw, points):
    """One value per point, so faces that share a point agree on it."""
    return {p: draw(values) for p in sorted(set(points))}


@PROPERTY
@given(arrays())
def test_prism_propagation_is_polarized(a):
    assert is_polarized(prism_propagate(a), PRISM_FRAME)


@PROPERTY
@given(st.data(), st.integers(1, 5), st.integers(1, 5))
def test_prism_propagation_of_arbitrary_faces_is_polarized(data, n, m):
    slope = [(x, y, y) for x in range(n + 1) for y in range(m + 1)]
    front = [(x, 0, z) for x in range(n + 1) for z in range(m + 1)]
    shadow = [(0, y, z) for z in range(m + 1) for y in range(z + 1)]
    v = face_values(data.draw, slope + front + shadow)
    F = propagate_prism_faces(
        n, m,
        slope=lambda x, y: v[(x, y, y)],
        front=lambda x, z: v[(x, 0, z)],
        shadow=lambda y, z: v[(0, y, z)],
    )
    assert is_polarized(F, PRISM_FRAME)


@PROPERTY
@given(st.data(), st.integers(1, 6))
def test_tetra_propagation_is_polarized(data, n):
    ground = [(x, y, 0) for x in range(n + 1) for y in range(n + 1 - x)]
    front = [(x, 0, z) for x in range(n + 1) for z in range(n + 1 - x)]
    v = face_values(data.draw, ground + front)
    T = tetra_propagate(lambda x, y: v[(x, y, 0)], lambda x, z: v[(x, 0, z)], n)
    assert is_polarized(T, TETRA_FRAME)


def propagate_cli(a):
    saved = sys.stdin
    sys.stdin = io.StringIO(json.dumps(serialize.encode_array(a)))
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            assert main(["propagate"]) == 0
    finally:
        sys.stdin = saved
    return json.loads(out.getvalue())


@PROPERTY
@given(arrays(max_side=4))
@example(Array([[0, 0], [0, 0]]))  # polarized concave
@example(Array([[0, 1]]))  # polarized, not concave in a flat
def test_propagate_flags_equal_the_predicates(a):
    F = prism_propagate(a)
    doc = propagate_cli(a)
    assert doc["polarized"] is is_polarized(F, PRISM_FRAME) is True
    assert doc["polarized_concave"] is is_polarized_dc(F, PRISM_FRAME)


@pytest.mark.parametrize("rows, concave", [([[0, 0], [0, 0]], True),
                                           ([[0, 1]], False)])
def test_propagate_flag_examples(rows, concave):
    assert is_polarized_dc(prism_propagate(Array(rows)), PRISM_FRAME) is concave
