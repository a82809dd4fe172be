import pytest

from octarray import (
    AntiStandardPair,
    Array,
    StandardPair,
    TriangleFunction,
    ValidationError,
    diag,
    hive_to_pair,
    increments,
    integrate,
    is_discrete_concave,
    is_hs_concave,
    is_supermodular,
    is_vs_concave,
    pair_to_hive,
    rhombus_violations,
    transpose,
    triangle_from_points,
)
from octarray import serialize
from octarray.condense import condense_down, condense_left


def test_triangle_function_basics(f4_triangle):
    f = f4_triangle
    assert f.n == 3
    assert f.value(0, 0) == 0
    assert f.value(1, 2) == 9
    assert f.value(3, 3) == 15
    with pytest.raises(ValidationError):
        f.value(2, 1)


def test_triangle_from_points_round_trip(f4_triangle):
    assert triangle_from_points(3, f4_triangle.points()) == f4_triangle


def test_increments(f4, f4_triangle):
    lam, mu, nu = increments(f4_triangle)
    e = f4["expected"]["increments"]
    assert [list(lam), list(mu), list(nu)] == [e["lam"], e["mu"], e["nu"]]


def test_increments_are_ints_where_integral():
    from fractions import Fraction as F

    t = TriangleFunction([[0], [F(1, 2), F(3, 2)], [F(3, 2), F(5, 2), F(7, 2)]])
    lam, mu, nu = increments(t)
    assert (lam, mu, nu) == ((F(1, 2), 1), (1, 1), (F(3, 2), 2))
    assert [type(x) for x in lam + mu + nu] == [F, int, int, int, F, int]


def test_fixture_hive_is_concave(f4_triangle):
    assert is_discrete_concave(f4_triangle)
    assert not rhombus_violations(f4_triangle.points())


def test_concavity_classes_on_corner_functions(f1_array, f2_array):
    # a down-tight array integrates to a function without (i)/(ii) violations
    assert is_vs_concave(integrate(f1_array))
    # a left-tight array integrates to a function without (i)/(iii) violations
    assert is_hs_concave(integrate(condense_left(f2_array)))
    # a generic integral is supermodular but not necessarily concave
    f = integrate(f2_array)
    assert is_supermodular(f)
    assert not is_vs_concave(f)


def test_rhombus_violation_reporting():
    pts = {(0, 0): 0, (0, 1): 0, (1, 1): 1, (0, 2): 0, (1, 2): 0, (2, 2): 0}
    v = rhombus_violations(pts, kinds=("i",))
    assert v  # f(0,1)+f(1,2) < f(1,1)+f(0,2)
    zero = {(u, v): 0 for v in range(3) for u in range(v + 1)}
    # f(0,0)+f(1,2) > f(0,1)+f(1,1): only the rhombus along the vertical strip
    assert rhombus_violations({**zero, (1, 2): 1}) == [("ii", (0, 0))]
    # f(0,1)+f(2,2) > f(1,1)+f(1,2): only the rhombus along the horizontal strip
    assert rhombus_violations({**zero, (2, 2): 1}) == [("iii", (0, 1))]


def test_standard_pair_validation(f3_pair):
    with pytest.raises(ValidationError):
        StandardPair(Array([[0, 1], [0, 0]]), Array([[0, 0], [0, 0]]))
    # anti-standard fixture: first component right-tight, concat down-tight
    assert isinstance(f3_pair, AntiStandardPair)
    lam, mu, nu = f3_pair.type()
    assert lam == (3, 2, 0)


def test_pair_and_hive_are_inverse(f4, f4_triangle):
    p = hive_to_pair(f4_triangle)
    assert p.a == diag((3, 2, 0))
    assert p.b == serialize.decode(f4["expected"]["pair_b"])
    assert pair_to_hive(p) == f4_triangle


def test_pair_to_hive_values():
    p = StandardPair(diag((2, 1)), Array([[1, 0], [1, 1]]))
    h = pair_to_hive(p)
    # h(u, v) = mass of the concatenation in columns <= n+u, rows <= v
    assert h.value(0, 0) == 0
    assert h.value(0, 1) == 2
    assert h.value(1, 1) == 3
    assert h.value(0, 2) == 3
    assert h.value(1, 2) == 5
    assert h.value(2, 2) == 6


def test_hive_to_pair_on_random_hives():
    import random

    from octarray.checks import random_standard_pair

    rng = random.Random(11)
    for _ in range(25):
        p = random_standard_pair(rng, rng.randint(1, 4))
        assert hive_to_pair(pair_to_hive(p)) == p


def test_hive_of_standard_pair_is_concave():
    import random

    from octarray.checks import random_standard_pair

    rng = random.Random(13)
    for _ in range(25):
        assert is_discrete_concave(pair_to_hive(random_standard_pair(rng, 3)))


def test_both_pair_kinds_on_the_same_components():
    zero = Array([[0, 0], [0, 0]])
    s, t = StandardPair(zero, zero), AntiStandardPair(zero, zero)
    assert s != t
    assert repr(s).startswith("StandardPair(")
    assert repr(t).startswith("AntiStandardPair(")


def test_pair_kinds_name_the_side_of_the_first_component():
    zero = Array([[0, 0], [0, 0]])
    right_only = Array([[0, 0], [0, 1]])  # condensed right, not left
    left_only = Array([[0, 0], [1, 0]])  # condensed left, not right
    with pytest.raises(ValidationError, match="first component is not condensed left"):
        StandardPair(right_only, zero)
    with pytest.raises(ValidationError, match="first component is not condensed right"):
        AntiStandardPair(left_only, zero)


def test_pairs_of_both_kinds_survive_serialization(f3_pair):
    for p in (f3_pair, StandardPair(diag((2, 1)), Array([[1, 0], [1, 1]]))):
        assert serialize.decode(serialize.encode_pair(p)) == p
