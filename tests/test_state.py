"""Equal values have equal state.

Every grid the library computes reaches its class through one private
constructor (_scaled, shared by Array, CornerFunction and TriangleFunction)
that reads nothing again.  Each such result must equal, hash like and print
like the public constructor applied to its public rows or values: the state
is reduced to the least common denominator, so a rational result that
happens to be integral is the int-built grid, and integral values are ints.
"""

import random
from fractions import Fraction

import pytest

from octarray import (
    Array,
    CornerFunction,
    TriangleFunction,
    associate_functional,
    central_reverse,
    com_prime,
    concat,
    condense_down,
    condense_left,
    condense_right,
    condense_up,
    enumerate_hives,
    enumerate_standard_pairs,
    integrate,
    mixed_derivative,
    pair_to_hive,
    prism_propagate,
    prism_top,
    prism_wall,
    rsk,
    rsk_inverse,
    split,
    tetra_shadow_wall,
    tetra_slope_wall,
    transpose,
)
from octarray.bijections import tetra_of_couple
from octarray.checks import random_array, random_couple


def assert_as_built_in_public(x):
    """x equals, hashes like and prints like its public rebuild."""
    if isinstance(x, Array):
        y = Array(x.rows)
        assert (x.D, x.ints) == (y.D, y.ints)
    else:
        y = type(x)(x.values)
    assert x == y and hash(x) == hash(y) and repr(x) == repr(y), x


def array_routes(a: Array) -> list:
    """Every array route through Array._scaled, on the array a."""
    d, l = rsk(a)
    out = [condense_down(a), condense_left(a), condense_right(a), condense_up(a),
           d, l, rsk_inverse(d, l), mixed_derivative(integrate(a)), concat(a, d),
           transpose(a), central_reverse(a)]
    if a.n > 1:
        out += split(a, a.n // 2)
    return out


@pytest.mark.parametrize("max_denom", [1, 2, 12], ids=["int", "halves", "twelfths"])
def test_every_route_gives_the_public_state(max_denom):
    rng = random.Random(31 + max_denom)
    for _ in range(40):
        a = random_array(rng, rng.randint(1, 5), rng.randint(1, 5), 3, max_denom)
        F = prism_propagate(a)
        for x in array_routes(a) + [integrate(a), prism_top(F), prism_wall(F)]:
            assert_as_built_in_public(x)
    for _ in range(15):
        p1, p2 = random_couple(rng, rng.randint(1, 4), 3, max_denom)
        f, g = pair_to_hive(p1), pair_to_hive(p2)
        # the walls of a solid from rational faces, whose or_step sums
        # are Fractions even where integral, read those values as ints
        T = tetra_of_couple(f.values, g.values, f.n)
        for x in (f, g, com_prime(f), *associate_functional(f, g),
                  tetra_shadow_wall(T), tetra_slope_wall(T)):
            assert_as_built_in_public(x)


def test_the_search_leaves_give_the_public_state():
    lam, mu, nu = (3, 2, 1, 0), (2, 2, 1, 0), (5, 3, 2, 1)
    for h in enumerate_hives(lam, mu, nu):
        assert_as_built_in_public(h)
    for p in enumerate_standard_pairs(lam, mu, nu):
        assert_as_built_in_public(p.b)


def test_an_integral_result_over_a_denominator_is_the_int_array():
    half = Fraction(1, 2)
    a = Array([[half], [half]])
    assert (a.D, a.ints) == (2, ((1,), (1,)))
    down = condense_down(a)  # the upper half drops onto the lower one
    assert (down.D, down.ints, down.rows) == (1, ((1,), (0,)), ((1,), (0,)))
    assert down == Array([[1], [0]]) and hash(down) == hash(Array([[1], [0]]))
    left, right = split(Array([[half, 1], [Fraction(3, 2), 2]]), 1)
    assert (right.D, right) == (1, Array([[1], [2]]))
    assert hash(right) == hash(Array([[1], [2]])) and left.D == 2
    assert mixed_derivative(CornerFunction([[0, 0], [0, half]])).D == 2
    assert type(Array([[half, half]]).total()) is int


def test_state_is_reduced_whatever_the_denominator_given():
    for D in (1, 2, 6, 30):
        a = Array._scaled(D, [[3 * D, 0], [D, 2 * D]])
        assert (a.D, a.ints) == (1, ((3, 0), (1, 2))) and a == Array([[3, 0], [1, 2]])
    a = Array._scaled(12, [[6, 4], [0, 3]])
    assert (a.D, a.ints) == (12, ((6, 4), (0, 3)))
    a = Array._scaled(24, [[12, 8], [0, 6]])
    assert (a.D, a.ints) == (12, ((6, 4), (0, 3)))
    assert a.rows == ((Fraction(1, 2), Fraction(1, 3)), (0, Fraction(1, 4)))


def test_triangles_and_corner_functions_keep_what_they_are_given():
    h = TriangleFunction._scaled(2, [[0], [2, 4]])
    assert (h.D, h.ints, h.values) == (1, ((0,), (1, 2)), ((0,), (1, 2)))
    assert h == TriangleFunction([[0], [1, 2]])
    f = CornerFunction._scaled(6, [[0, 0], [0, 3]])
    assert (f.D, f.ints, f.values) == (2, ((0, 0), (0, 1)), ((0, 0), (0, Fraction(1, 2))))
    assert hash(f) == hash(CornerFunction([[0, 0], [0, Fraction(1, 2)]]))
