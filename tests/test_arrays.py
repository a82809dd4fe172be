import random
import re
from fractions import Fraction

import pytest

from octarray import (
    Array,
    TriangleFunction,
    ValidationError,
    central_reverse,
    col_sums,
    concat,
    condense_down,
    condense_left,
    condense_right,
    condense_up,
    diag,
    integrate,
    is_d_tight,
    is_l_tight,
    is_r_tight,
    is_u_tight,
    mixed_derivative,
    row_sums,
    split,
    transpose,
)
from octarray.checks import random_array


def test_array_basic():
    a = Array([[2, 3, 1], [1, 1, 5]])
    assert (a.n, a.m) == (3, 2)
    assert a.mass(1, 1) == 2 and a.mass(3, 2) == 5
    assert a.total() == 13


def test_array_rejects_negative_and_ragged():
    with pytest.raises(ValidationError):
        Array([[1, -1]])
    with pytest.raises(ValidationError):
        Array([[1, 2], [3]])


def test_integrate_and_mixed_derivative_invert():
    a = Array([[2, Fraction(1, 2)], [0, 3]])
    assert mixed_derivative(integrate(a)) == a


def test_integrate_values():
    a = Array([[2, 3, 1], [1, 1, 5]])
    f = integrate(a)
    assert f.value(0, 0) == 0
    assert f.value(3, 1) == 6
    assert f.value(3, 2) == 13
    assert f.value(2, 2) == 7


def test_mixed_derivative_rejects_non_supermodular():
    f = integrate(Array([[1, 0], [0, 1]]))
    pts = {p: f.value(*p) for p in f.points()}
    pts[(1, 1)] = 2  # makes one mixed difference negative
    from octarray.arrays import CornerFunction

    rows = [[pts[(i, j)] for i in range(3)] for j in range(3)]
    with pytest.raises(ValidationError):
        mixed_derivative(CornerFunction(rows))


def test_concat_split():
    a = Array([[1, 2], [3, 4]])
    b = Array([[5], [6]])
    c = concat(a, b)
    assert c.rows == ((1, 2, 5), (3, 4, 6))
    assert split(c, 2) == (a, b)


def test_transpose_and_central_reverse():
    a = Array([[1, 2, 3], [4, 5, 6]])
    assert transpose(a).rows == ((1, 4), (2, 5), (3, 6))
    assert central_reverse(a).rows == ((6, 5, 4), (3, 2, 1))
    assert central_reverse(central_reverse(a)) == a


def test_diag_and_sums():
    d = diag((3, 2, 0))
    assert d.rows == ((3, 0, 0), (0, 2, 0), (0, 0, 0))
    assert row_sums(d) == (3, 2, 0)
    assert col_sums(d) == (3, 2, 0)


def test_tightness_predicates():
    a = Array([[5, 1, 2, 4], [0, 4, 0, 4], [0, 0, 0, 3]])
    assert is_d_tight(a)
    assert is_u_tight(central_reverse(a))
    assert is_l_tight(transpose(a))
    assert is_r_tight(transpose(central_reverse(a)))
    assert not is_d_tight(Array([[0, 1], [1, 0]]))


def _d_tight_by_sums(rows):
    """Tight downwards by the definition, one prefix sum at a time."""
    return all(sum(low[:i - 1]) >= sum(high[:i])
               for low, high in zip(rows, rows[1:])
               for i in range(1, len(low) + 1))


@pytest.mark.parametrize("max_denom", [1, 4], ids=["int", "quarters"])
def test_row_scans_agree_with_the_array_forms(max_denom):
    """The four predicates scan rows, columns and their reverses in place;
    they must agree with the definition on the transposed and reversed
    arrays, for random arrays and their condensations in each direction."""
    rng = random.Random(17)
    shapes = [(1, k) for k in range(1, 6)] + [(k, 1) for k in range(2, 6)]
    shapes += [(rng.randint(2, 5), rng.randint(2, 5)) for _ in range(40)]
    seen = set()
    for n, m in shapes:
        a = random_array(rng, n, m, 3, max_denom)
        for x in (a, condense_down(a), condense_left(a), condense_right(a),
                  condense_up(a)):
            want_d = _d_tight_by_sums(x.rows)
            assert is_d_tight(x) == want_d
            t, r = transpose(x), central_reverse(x)
            assert is_l_tight(x) == is_d_tight(t) == _d_tight_by_sums(t.rows)
            assert is_r_tight(x) == is_l_tight(r) == _d_tight_by_sums(transpose(r).rows)
            assert is_u_tight(x) == is_d_tight(r) == _d_tight_by_sums(r.rows)
            seen.add(want_d)
    assert seen == {True, False}


def test_d_tight_vanishes_above_diagonal():
    # columns strictly left of the row index must be empty
    a = Array([[1, 1], [1, 0]])
    assert not is_d_tight(a)


def test_sums_of_rational_arrays_are_ints_where_integral():
    a = Array([[Fraction(1, 2), Fraction(3, 2)], [Fraction(1, 2), Fraction(1, 2)]])
    assert list(map(type, row_sums(a))) == [int, int] and row_sums(a) == (2, 1)
    assert list(map(type, col_sums(a))) == [int, int] and col_sums(a) == (1, 2)
    assert type(a.total()) is int and a.total() == 3
    b = Array([[Fraction(1, 3), 1], [Fraction(2, 3), 0]])
    assert row_sums(b) == (Fraction(4, 3), Fraction(2, 3))
    assert list(map(type, col_sums(b))) == [int, int] and col_sums(b) == (1, 1)
    assert type(b.total()) is int and b.total() == 2


def test_a_grid_value_outside_the_grid_raises_naming_the_point():
    f = integrate(Array([[1, 2], [3, 4]]))
    assert (f.value(0, 2), f.value(2, 0), f.value(2, 2)) == (0, 0, 10)
    for i, j in [(-1, 0), (0, -1), (3, 0), (5, 0), (0, 3), (-1, -1)]:
        text = f"point ({i},{j}) outside 2x2 corner function"
        with pytest.raises(ValidationError, match=f"^{re.escape(text)}$"):
            f.value(i, j)
    h = TriangleFunction([[0], [1, 2]])
    assert (h.value(0, 1), h.value(1, 1)) == (1, 2)
    for u, v in [(1, 0), (-1, 1), (0, 2), (2, 1)]:
        text = f"point ({u},{v}) outside triangle of size 1"
        with pytest.raises(ValidationError, match=f"^{re.escape(text)}$"):
            h.value(u, v)
