import random
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest

from octarray import (
    Array,
    ValidationError,
    central_reverse,
    com_prime,
    condense_down,
    condense_left,
    condense_pair,
    condense_right,
    condense_up,
    is_d_tight,
    is_l_tight,
    row_sums,
    rsk,
    rsk_inverse,
    schutzenberger,
    shape,
    transpose,
)
from octarray import condense as condense_module
from octarray import serialize
from octarray.checks import (condense_down_ascending, condense_down_random, random_array,
                             random_hive)


def random_rational_array(rng, n, m, sparse=False, max_denom=12):
    """Masses k/q with q <= max_denom; sparse arrays are about 60% zeros."""
    return Array([
        [0 if sparse and rng.random() < 0.6
         else Fraction(rng.randint(0, 9), rng.randint(1, max_denom))
         for _ in range(n)]
        for _ in range(m)
    ])


def scaled(a, c):
    return Array([[c * x for x in row] for row in a.rows])


def sweep_until_still(a):
    """Reference schedule: sweep every adjacent pair until nothing moves."""
    rows = [tuple(r) for r in a.rows]
    moved = True
    while moved:
        moved = False
        for j in range(len(rows) - 1):
            u, v = condense_pair(rows[j], rows[j + 1])
            if (u, v) != (rows[j], rows[j + 1]):
                rows[j], rows[j + 1] = u, v
                moved = True
    return Array(rows)


def test_condense_pair_worked_step():
    u2, v2 = condense_pair((2, 3, 1), (1, 1, 5))
    assert u2 == (3, 3, 2)
    assert v2 == (0, 1, 4)


def test_condense_pair_preserves_column_sums():
    u, v = (2, 3, 1), (1, 1, 5)
    u2, v2 = condense_pair(u, v)
    for i in range(3):
        assert u[i] + v[i] == u2[i] + v2[i]


def test_condense_pair_fixpoint_on_tight_rows():
    assert condense_pair((5, 1, 2), (0, 4, 0)) == ((5, 1, 2), (0, 4, 0))


def test_condense_down_fixture(f2, f2_array):
    assert condense_down(f2_array) == serialize.decode(f2["expected"]["down"])


def test_condense_down_is_idempotent(f1_array, f2_array):
    assert condense_down(f1_array) == f1_array
    d = condense_down(f2_array)
    assert condense_down(d) == d
    assert is_d_tight(d)


def test_shape_fixtures(f1, f1_array, f2, f2_array):
    assert list(shape(f1_array)) == f1["expected"]["shape"]
    assert list(shape(condense_down(f2_array))) == f2["expected"]["shape"]


def test_shape_condenses_first():
    assert shape(Array([[0, 1], [1, 0]])) == (2, 0)


def test_directional_condensations_are_conjugates(f2_array):
    a = f2_array
    assert condense_up(a) == central_reverse(condense_down(central_reverse(a)))
    assert condense_left(a) == transpose(condense_down(transpose(a)))
    assert condense_right(a) == central_reverse(condense_left(central_reverse(a)))
    assert is_l_tight(condense_left(a))


def test_condense_preserves_margins(f2_array):
    a = f2_array
    assert row_sums(condense_left(a)) == row_sums(a)
    assert condense_down(a).total() == a.total()


def test_condense_handles_fractions():
    a = Array([[0, Fraction(1, 2)], [Fraction(3, 2), 0]])
    d = condense_down(a)
    assert is_d_tight(d)
    assert d.total() == 2


def test_random_schedule_reaches_same_fixpoint(f2_array):
    rng = random.Random(7)
    want = condense_down(f2_array)
    for _ in range(5):
        assert condense_down_random(f2_array, rng) == want


def test_schutzenberger_is_an_involution_on_d_tight(f1_array, f2_array):
    for a in [f1_array, condense_down(f2_array)]:
        s = schutzenberger(a)
        assert is_d_tight(s)
        assert schutzenberger(s) == a


@pytest.mark.parametrize("sparse", [False, True])
def test_condense_down_equals_sweeping_reference_on_rationals(sparse):
    rng = random.Random(101 + sparse)
    for _ in range(60):
        a = random_rational_array(rng, rng.randint(1, 8), rng.randint(1, 8), sparse)
        assert condense_down(a) == sweep_until_still(a)


def test_condense_down_is_positively_homogeneous():
    rng = random.Random(103)
    for _ in range(40):
        a = random_rational_array(rng, rng.randint(1, 6), rng.randint(1, 6),
                                  rng.random() < 0.5)
        for c in (2, 7, 12, Fraction(5, 3)):
            assert condense_down(scaled(a, c)) == scaled(condense_down(a), c)


def test_each_condensation_fills_one_prism_on_the_short_side(monkeypatch):
    """No condense_pair call: with k = min(n, m) and N = max(n, m), each
    direction takes one or_row step per free point of the k-layer prism
    over a or a^T, 1 <= y < z <= k, y < x <= N."""
    from octarray import octahedron

    pair_calls, steps = [], []
    real_pair, real_row = condense_module.condense_pair, octahedron.or_row

    def counting_pair(u, v):
        pair_calls.append(1)
        return real_pair(u, v)

    def counting_row(t, s, u, w, start):
        steps.append(len(t) - start)
        real_row(t, s, u, w, start)

    monkeypatch.setattr(condense_module, "condense_pair", counting_pair)
    monkeypatch.setattr(octahedron, "or_row", counting_row)
    rng = random.Random(104)
    for m in range(1, 13):
        for n, sparse in ((6, False), (6, True), (m, False), (13 - m, True)):
            a = random_rational_array(rng, n, m, sparse)
            k, N = min(n, m), max(n, m)
            for condense in (condense_down, condense_left, condense_right, condense_up):
                steps.clear()
                condense(a)
                assert sum(steps) == sum(N - y for z in range(2, k + 1)
                                         for y in range(1, z)), (n, m, condense)
    assert pair_calls == []


def test_condense_pair_on_empty_rows():
    assert condense_pair([], []) == ((), ())


def _boundary_arrays(rng):
    """Integer, quarter-denominator and sparse arrays with m > n, m < n,
    1 x k and k x 1: the shapes where a forced prefix or a vanished row
    reaches the edge of the array."""
    sizes = [(1, 1), (1, 7), (7, 1), (3, 9), (9, 3), (5, 5), (2, 12), (12, 2)]
    sizes += [(rng.randint(1, 10), rng.randint(1, 10)) for _ in range(12)]
    for n, m in sizes:
        yield random_array(rng, n, m, 9)
        yield random_array(rng, n, m, 5, 4)
        yield random_rational_array(rng, n, m, sparse=True, max_denom=4)


def left_ref(a):
    return transpose(condense_down_ascending(transpose(a)))


def right_ref(a):
    return transpose(central_reverse(condense_down_ascending(transpose(central_reverse(a)))))


def up_ref(a):
    return central_reverse(condense_down_ascending(central_reverse(a)))


# each direction with its reference: the ascending pair sweeps, turned
SWEEPS = ((condense_down, condense_down_ascending), (condense_left, left_ref),
          (condense_right, right_ref), (condense_up, up_ref))


def test_each_direction_equals_the_ascending_schedule():
    rng = random.Random(119)
    for a in _boundary_arrays(rng):
        for condense, ref in SWEEPS:
            assert condense(a) == ref(a), (condense.__name__, a)


@pytest.mark.parametrize("n, m", [(2, 3), (3, 2)])
def test_every_small_array_condenses_as_the_sweeps_do(n, m):
    """Every array of the box with total <= 4, and the same arrays with
    each mass k read as k/4, in all four directions: the prism is filled
    over a when m <= n and over a^T when m > n."""
    for masses in product(range(5), repeat=n * m):
        if sum(masses) > 4:
            continue
        for q in (1, 4):
            a = Array([[Fraction(x, q) for x in masses[j * n:(j + 1) * n]]
                       for j in range(m)])
            for condense, ref in SWEEPS:
                assert condense(a) == ref(a), (condense.__name__, a)


def test_condense_down_and_rsk_keep_one_layer_below():
    """The fills stream their layers: on an 80 x 80 array the tracemalloc
    peak of condense_down, rsk and rsk_inverse stays under 2 MB, where a
    fill that keeps all 81 layers holds about 8 MB (11 MB for the backward
    fill); so does that of com_prime on a hive of size 40 under 1 MB, where
    its 41 layers hold about 2 MB."""
    a = random_array(random.Random(120), 80, 80, 9)
    d, l = rsk(a)
    hive = random_hive(random.Random(121), 40)
    for fn, args, bound in ((condense_down, (a,), 2_000_000), (rsk, (a,), 2_000_000),
                            (rsk_inverse, (d, l), 2_000_000),
                            (com_prime, (hive,), 1_000_000)):
        tracemalloc.start()
        try:
            fn(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (fn.__name__, peak)
