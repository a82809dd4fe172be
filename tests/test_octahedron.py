import random
from fractions import Fraction
from itertools import product
from math import comb

import pytest

from octarray import (
    PRISM_FRAME,
    TETRA_FRAME,
    Array,
    CornerFunction,
    ValidationError,
    condense_down,
    condense_left,
    integrate,
    is_d_tight,
    is_discrete_concave,
    is_l_tight,
    is_polarized,
    is_polarized_dc,
    pair_to_hive,
    prism_propagate,
    prism_top,
    prism_wall,
    propagate_prism_faces,
    rsk,
    rsk_inverse,
    tetra_propagate,
    tetra_shadow_wall,
    tetra_slope_wall,
    transpose,
)
from octarray.checks import condense_down_ascending, random_array, random_couple
from octarray.octahedron import array_layers, or_step
from octarray.scalars import normalize


def test_or_step():
    assert or_step(1, 2, 3, 4, 5) == max(2 + 3, 4 + 5) - 1


def test_prism_fixture_top_and_wall(f2, f2_array):
    F = prism_propagate(f2_array)
    top = prism_top(F)
    assert [list(r) for r in top.values] == [[0] * 4] + f2["expected"]["top_rows"]
    w = prism_wall(F)
    for j, k, v in f2["expected"]["wall_points"]:
        assert w.value(j, k) == v


def test_prism_fixture_spot_and_filled_values(f2, f2_array):
    F = prism_propagate(f2_array)
    for x, y, z, v in f2["expected"]["spot_values"]:
        assert F.value(x, y, z) == v
    for x, y, z, v in f2["expected"]["filled_points"]:
        assert F.value(x, y, z) == v


def test_prism_zero_faces_and_slope_input(f2_array):
    F = prism_propagate(f2_array)
    f = integrate(f2_array)
    for (x, y, z), v in F.values.items():
        if x == 0 or y == 0:
            assert v == 0
        if y == z:
            assert v == f.value(x, y)


def test_prism_is_polarized(f2_array):
    assert is_polarized(prism_propagate(f2_array), PRISM_FRAME)


def test_top_and_wall_are_the_condensations(f2_array):
    d, l = rsk(f2_array)
    assert d == condense_down(f2_array)
    assert l == condense_left(f2_array)


def test_rsk_round_trip(f2_array):
    d, l = rsk(f2_array)
    assert rsk_inverse(d, l) == f2_array


def test_rsk_inverse_rejects_untight_inputs():
    ok = Array([[2, 0], [0, 1]])
    bad = Array([[0, 1], [1, 0]])
    with pytest.raises(ValidationError):
        rsk_inverse(bad, Array([[1, 0], [1, 1]]))
    with pytest.raises(ValidationError):
        rsk_inverse(ok, bad)


def test_rsk_inverse_rejects_mismatched_shapes():
    d, l = rsk(Array([[1, 2], [0, 1]]))
    with pytest.raises(ValidationError):
        rsk_inverse(d, Array([[5, 0], [0, 0]]))


@pytest.mark.parametrize("d, l", [
    # d tight downwards, shape (1, 1); l tight leftwards, shape (2,)
    ([[1, 0], [0, 1]], [[2, 0], [0, 0]]),
    # the mirror: d's edge mass runs above l's
    ([[2, 0], [0, 0]], [[1, 0], [0, 1]]),
], ids=["d-below-l", "d-above-l"])
def test_rsk_inverse_rejects_shapes_that_differ_on_the_shared_edge(d, l):
    d, l = Array(d), Array(l)
    with pytest.raises(ValidationError, match="shared edge"):
        rsk_inverse(d, l)


def test_separable_addition_passes_through_propagation(f2_array):
    """Adding phi(x) + psi(z) to the input faces adds it to every value."""
    a = f2_array
    n, m = a.n, a.m
    f = integrate(a)
    phi = [0, 2, 5, 6]
    psi = [0, 1, 1, 4]

    base = prism_propagate(a)
    G = propagate_prism_faces(
        n,
        m,
        lambda x, y: f.value(x, y) + phi[x] + psi[y],
        lambda x, z: phi[x] + psi[z],
        lambda y, z: phi[0] + psi[z],
    )
    for (x, y, z), v in G.values.items():
        assert v == base.value(x, y, z) + phi[x] + psi[z]


def test_propagate_faces_rejects_inconsistent_faces():
    with pytest.raises(ValidationError):
        propagate_prism_faces(
            1, 1, lambda x, y: 5 * x * y, lambda x, z: 0, lambda y, z: 1
        )


def test_prism_propagation_with_fractions():
    a = Array([[Fraction(1, 2), 1], [1, Fraction(3, 4)]])
    F = prism_propagate(a)
    d, l = rsk(a)
    assert rsk_inverse(d, l) == a
    assert F.value(2, 2, 2) == a.total()


def test_propagate_faces_names_the_disagreement():
    # shadow overwrites front on x = 0 without a check; slope must match it
    with pytest.raises(ValidationError, match=r"disagree at \(0, 2, 2\)"):
        propagate_prism_faces(
            2, 3, lambda x, y: int((x, y) == (0, 2)), lambda x, z: 0,
            lambda y, z: 0,
        )
    G = propagate_prism_faces(2, 2, lambda x, y: 0, lambda x, z: 7 * (x == 0),
                              lambda y, z: 0)
    assert G.value(0, 0, 2) == 0


def test_rsk_on_rationals_round_trips_and_gives_the_condensations():
    rng = random.Random(211)
    for _ in range(40):
        a = random_array(rng, rng.randint(1, 6), rng.randint(1, 6), 9, 12)
        d, l = rsk(a)
        assert d == condense_down_ascending(a)
        assert l == transpose(condense_down_ascending(transpose(a)))
        assert rsk_inverse(d, l) == a


def test_rsk_is_positively_homogeneous():
    rng = random.Random(212)
    for _ in range(30):
        a = random_array(rng, rng.randint(1, 5), rng.randint(1, 5), 9, 12)
        d, l = rsk(a)
        for c in (3, 12, Fraction(4, 7)):
            ca = Array([[c * x for x in row] for row in a.rows])
            assert rsk(ca) == tuple(
                Array([[c * x for x in row] for row in b.rows]) for b in (d, l)
            )


def free_points(n, m):
    """The points 1 <= y < z <= m, y < x <= n that array_layers fills by
    or_row; the rest of the interior, x <= y, is forced by tightness."""
    return sum(n - y for z in range(2, m + 1) for y in range(1, min(z, n + 1)))


def test_array_layers_equal_the_full_fill_from_the_faces():
    """Every layer over an array, with its forced triangle copied, equals
    the fill that takes or_step at every interior point: integer,
    quarter-denominator and sparse arrays, m > n, m < n, 1 x k and k x 1."""
    rng = random.Random(219)
    sizes = [(1, 1), (1, 7), (7, 1), (3, 9), (9, 3), (2, 12), (12, 2)]
    sizes += [(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(10)]
    for n, m in sizes:
        sparse = Array([[rng.randint(1, 9) if rng.random() < 0.3 else 0
                         for _ in range(n)] for _ in range(m)])
        for a in (random_array(rng, n, m, 9), random_array(rng, n, m, 5, 4), sparse):
            f = integrate(a)
            G = propagate_prism_faces(n, m, f.value, lambda x, z: 0, lambda y, z: 0)
            L = list(array_layers(a.rows))
            assert [[len(row) for row in layer] for layer in L] == [
                [n + 1] * (z + 1) for z in range(m + 1)]
            for z, layer in enumerate(L):
                for y, row in enumerate(layer):
                    assert row == [G.value(x, y, z) for x in range(n + 1)], (a, y, z)


def test_rsk_steps_on_free_points_and_inverse_on_every_interior_point(monkeypatch):
    """rsk and rsk_inverse fill the prism over a or its transpose, whichever
    has fewer rows: with k = min(n, m), rsk takes one step per free point of
    the k-layer prism and rsk_inverse max(n, m) k(k - 1)/2, one per point
    of its interior."""
    from octarray import octahedron

    calls = []
    real = octahedron.or_row

    def counting(t, s, u, w, start):
        calls.append(len(t) - start)
        real(t, s, u, w, start)

    monkeypatch.setattr(octahedron, "or_row", counting)
    rng = random.Random(213)
    for n, m, forward, backward in [(4, 5, 20, 30), (5, 4, 20, 30), (3, 3, 5, 9),
                                    (1, 6, 0, 0), (6, 1, 0, 0)]:
        a = random_array(rng, n, m, 9, 12)
        k, wide = min(n, m), max(n, m)
        calls.clear()
        d, l = rsk(a)
        # (4, 5): layers z = 2..4 of the prism over a^T take 4, 4 + 3, 4 + 3 + 2
        assert sum(calls) == free_points(wide, k) == forward, (n, m)
        calls.clear()
        assert rsk_inverse(d, l) == a
        assert sum(calls) == wide * k * (k - 1) // 2 == backward, (n, m)


def test_rsk_of_the_transpose_is_the_transposed_pair_swapped():
    """RSK symmetry, which lets rsk run on the short side: rsk(a^T) =
    (l^T, d^T), on tall, wide and square arrays, 1 x k and k x 1, integer
    and with denominators up to 4; both round trips recover the array."""
    rng = random.Random(28)
    sizes = [(1, 1), (1, 6), (6, 1), (2, 7), (7, 2), (4, 4), (3, 5), (5, 3)]
    sizes += [(rng.randint(1, 7), rng.randint(1, 7)) for _ in range(12)]
    for n, m in sizes:
        for a in (random_array(rng, n, m, 9), random_array(rng, n, m, 5, 4)):
            d, l = rsk(a)
            assert (d, l) == (condense_down(a), condense_left(a)), a
            assert rsk(transpose(a)) == (transpose(l), transpose(d)), a
            assert rsk_inverse(d, l) == a
            assert rsk_inverse(transpose(l), transpose(d)) == transpose(a)


def _box(n, m, total):
    """Every integer array of n columns and m rows with mass at most total."""
    for cells in product(range(total + 1), repeat=n * m):
        if sum(cells) <= total:
            yield Array([cells[j * n:(j + 1) * n] for j in range(m)])


@pytest.mark.parametrize("n, m", [(2, 3), (3, 2)])
def test_rsk_inverse_on_every_tight_pair_of_a_box(n, m):
    """Every (down-tight d, left-tight l) of the box with total <= 4 either
    fails the shared-edge check or inverts to an array a with rsk(a) = (d,
    l); the shadow-face and negative-mass checks never fire, and the pairs
    accepted are as many as the arrays (RSK is a bijection)."""
    arrays = list(_box(n, m, 4))
    downs = [a for a in arrays if is_d_tight(a)]
    lefts = [a for a in arrays if is_l_tight(a)]
    accepted = set()
    for d in downs:
        for l in lefts:
            try:
                a = rsk_inverse(d, l)
            except ValidationError as exc:
                assert str(exc) == "condensations disagree on the shared edge", (d, l)
                continue
            assert rsk(a) == (d, l)
            accepted.add(a)
    assert len(accepted) == len(arrays)


def _min_row(t, s, u, w, start):
    """or_row with the wrong diagonal sum: the min instead of the max."""
    for i in range(start, len(t)):
        t[i] = min(t[i - 1] + s[i], u[i] + w[i - 1]) - s[i - 1]


def test_a_fault_of_the_fill_is_an_internal_error_of_rsk(monkeypatch):
    """The ceiling and the wall integrate condensations of every array, so a
    negative mixed difference on either is a fault of the fill: an
    AssertionError, never the ValidationError that blames the input."""
    from octarray import octahedron

    monkeypatch.setattr(octahedron, "or_row", _min_row)
    with pytest.raises(AssertionError, match="the ceiling or the wall"):
        rsk(Array([[1, 0], [0, 0]]))
    rng = random.Random(41)
    faults = 0
    for _ in range(150):
        try:
            rsk(random_array(rng, rng.randint(1, 4), rng.randint(1, 4), 3))
        except AssertionError:
            faults += 1
    assert faults > 10


def test_tetra_propagation_matches_ground_and_frontwall():
    rng = random.Random(5)
    n = 3
    fp, gp = random_couple(rng, n)
    f, g = pair_to_hive(fp), pair_to_hive(gp)
    ground = lambda x, y: g.value(y, n - x)
    frontwall = lambda x, z: f.value(n - x - z, n - x)
    T = tetra_propagate(ground, frontwall, n)
    for (x, y, z) in T.values:
        if z == 0:
            assert T.value(x, y, z) == ground(x, y)
        if y == 0:
            assert T.value(x, y, z) == frontwall(x, z)


def test_tetra_walls_are_concave_triangles():
    rng = random.Random(6)
    n = 3
    fp, gp = random_couple(rng, n)
    f, g = pair_to_hive(fp), pair_to_hive(gp)
    T = tetra_propagate(
        lambda x, y: g.value(y, n - x),
        lambda x, z: f.value(n - x - z, n - x),
        n,
    )
    assert is_polarized_dc(T, TETRA_FRAME)
    assert is_discrete_concave(tetra_shadow_wall(T))
    assert is_discrete_concave(tetra_slope_wall(T))


def generic_fill(pts, ground, frontwall):
    """Reference: the former engine for arbitrary domains, on a domain in
    which every filled point has both side pairs (asserted)."""
    F = {(x, y, z): normalize(frontwall(x, z) if y == 0 else ground(x, y))
         for (x, y, z) in pts if y == 0 or z == 0}
    for a, b, c in sorted((p for p in pts if p[1] and p[2]),
                          key=lambda p: (p[1] + p[2], p[1], p[0])):
        sides = [(a, b, c - 1), (a + 1, b - 1, c), (a, b - 1, c), (a + 1, b, c - 1)]
        assert all(q in pts for q in sides)
        F[a, b, c] = or_step(F[a + 1, b - 1, c - 1], *(F[q] for q in sides))
    return F


def random_tetra_faces(rng, n):
    """Ground and front wall on x + y + z <= n: a couple of hives scaled by
    a positive rational (concave), or free values (not concave)."""
    if n and rng.random() < 0.5:
        f, g = (pair_to_hive(p) for p in random_couple(rng, n))
        c = rng.choice([1, 2, Fraction(1, 3), Fraction(5, 4)])
        return ((lambda x, y: c * g.value(y, n - x)),
                (lambda x, z: c * f.value(n - x - z, n - x)))
    v = {(x, y): rng.choice([rng.randint(-9, 9), Fraction(rng.randint(-9, 9), 2),
                             Fraction(rng.randint(-9, 9), rng.randint(1, 6))])
         for x in range(n + 1) for y in range(-n, n + 1 - x)}
    # the front wall is stored at negative y, sharing the edge y = z = 0
    return (lambda x, y: v[(x, y)]), (lambda x, z: v[(x, -z)])


def test_tetra_fill_equals_the_generic_engine_in_one_or_step_per_point(monkeypatch):
    from octarray import octahedron

    calls = []
    real = octahedron.or_row

    def counting(t, s, u, w, start):
        calls.append(len(t) - start)
        real(t, s, u, w, start)

    monkeypatch.setattr(octahedron, "or_row", counting)
    rng = random.Random(214)
    for _ in range(150):
        n = rng.randint(0, 7)
        ground, frontwall = random_tetra_faces(rng, n)
        calls.clear()
        T = tetra_propagate(ground, frontwall, n)
        assert sum(calls) == comb(n + 1, 3)
        pts = {(x, y, z) for x in range(n + 1) for y in range(n + 1 - x)
               for z in range(n + 1 - x - y)}
        want = generic_fill(pts, ground, frontwall)
        assert T.values == want
        assert all(type(T.values[p]) is type(v) for p, v in want.items())


def test_the_tetrahedron_is_the_part_x_le_y_of_the_prism():
    """tetra_propagate(g, w, n) at (a, b, c) is the prism of size (n, n) at
    (b, a + b, a + b + c) when the prism's faces carry g and w where x <= y
    and free values elsewhere: nothing outside x <= y reaches the image.  Its
    shadow wall is the plane x = y of the prism and its slope wall the
    ceiling."""
    rng = random.Random(29)
    for n, q in product(range(7), (1, 6)):
        def val():
            return rng.randint(-9, 9) if q == 1 else Fraction(rng.randint(-30, 30),
                                                               rng.randint(1, q))

        g = {(x, y): val() for x in range(n + 1) for y in range(n + 1 - x)}
        w = {(x, z): g[x, 0] if z == 0 else val()
             for x in range(n + 1) for z in range(n + 1 - x)}
        free = {(x, z): val() for x in range(1, n + 1) for z in range(n + 1)}
        # the slope below x = y and the front off x = 0 are free; they share
        # the edge y = z = 0
        P = propagate_prism_faces(
            n, n,
            slope=lambda x, y: g[y - x, x] if x <= y else free[x, y],
            front=lambda x, z: free[x, z] if x else w[0, z],
            shadow=lambda y, z: w[y, z - y])
        T = tetra_propagate(lambda x, y: g[x, y], lambda x, z: w[x, z], n)
        assert len(T.values) == comb(n + 3, 3)
        for (a, b, c), v in T.values.items():
            assert v == P.value(b, a + b, a + b + c)
        assert tetra_shadow_wall(T).values == tuple(
            tuple(P.value(u, u, v) for u in range(v + 1)) for v in range(n + 1))
        assert tetra_slope_wall(T).values == tuple(
            tuple(P.value(u, n - v + u, n) for u in range(v + 1)) for v in range(n + 1))


def test_tetra_disagreement_names_the_smallest_x():
    for n in range(4):
        with pytest.raises(ValidationError, match=r"disagree at x=0$"):
            tetra_propagate(lambda x, y: 0, lambda x, z: 1, n)
    with pytest.raises(ValidationError, match=r"disagree at x=2$"):
        tetra_propagate(lambda x, y: 0, lambda x, z: int(x >= 2), 3)


def test_is_polarized_dc_fails_on_non_concave_input():
    # a slope face that is not concave cannot give a polarized concave fill
    a = Array([[0, 3], [2, 0]])
    F = prism_propagate(a)
    assert is_polarized(F, PRISM_FRAME)
    assert not is_polarized_dc(F, PRISM_FRAME)


def test_tetra_is_polarized_dc_fails_on_non_concave_ground():
    T = tetra_propagate(lambda x, y: (x * y) % 3, lambda x, z: 0, 3)
    assert is_polarized(T, TETRA_FRAME)
    assert not is_polarized_dc(T, TETRA_FRAME)


@pytest.mark.parametrize("frame", [PRISM_FRAME, TETRA_FRAME], ids=["prism", "tetra"])
def test_flats_are_triangulated_by_the_other_flat_families(frame):
    """Each flat (da, db) has normal da x db; its edge directions da, db and
    da + db are its intersections with the other three flats, so each one
    is orthogonal to exactly two of the four normals."""

    def cross(a, b):
        return (a[1] * b[2] - a[2] * b[1],
                a[2] * b[0] - a[0] * b[2],
                a[0] * b[1] - a[1] * b[0])

    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    assert len(frame.flats) == 4
    normals = [cross(da, db) for da, db in frame.flats]
    for i, u in enumerate(normals):
        for v in normals[i + 1:]:
            assert cross(u, v) != (0, 0, 0)
    for da, db in frame.flats:
        dc = tuple(a + b for a, b in zip(da, db))
        for d in (da, db, dc):
            assert sum(dot(d, nrm) == 0 for nrm in normals) == 2


def test_propagate_faces_normalizes_face_values():
    G = propagate_prism_faces(1, 1, lambda x, y: Fraction(4, 2) * x * y,
                              lambda x, z: Fraction(0, 3), lambda y, z: 0)
    assert G.value(1, 1, 1) == 2
    assert {type(v) for v in G.values.values()} == {int}


@pytest.mark.parametrize("face", ["slope", "front", "shadow"])
@pytest.mark.parametrize("bad", [0.0, False])
def test_propagate_faces_rejects_inexact_face_values(face, bad):
    faces = {"slope": lambda x, y: 0, "front": lambda x, z: 0, "shadow": lambda y, z: 0}
    faces[face] = lambda i, j: bad
    with pytest.raises(ValidationError, match=f"inexact scalar not allowed: {bad}"):
        propagate_prism_faces(1, 1, faces["slope"], faces["front"], faces["shadow"])


def test_is_polarized_is_false_on_a_perturbed_propagated_prism():
    F = prism_propagate(Array([[1, 2], [3, 1]]))
    assert is_polarized(F, PRISM_FRAME)
    values = dict(F.values)
    values[1, 1, 2] += 1  # a filled point: the top of one primitive octahedron
    assert not is_polarized(type(F)(values=values, n=F.n, m=F.m), PRISM_FRAME)


def test_is_polarized_is_false_on_a_perturbed_propagated_tetrahedron():
    fp, gp = random_couple(random.Random(7), 3)
    f, g = pair_to_hive(fp), pair_to_hive(gp)
    T = tetra_propagate(lambda x, y: g.value(y, 3 - x),
                        lambda x, z: f.value(3 - x - z, 3 - x), 3)
    assert is_polarized(T, TETRA_FRAME)
    values = dict(T.values)
    values[0, 1, 1] += Fraction(1, 2)  # a filled point, y and z >= 1
    assert not is_polarized(type(T)(values=values, n=T.n), TETRA_FRAME)


def test_walls_read_the_values_of_any_faces_and_check_nothing():
    # a ceiling that does not vanish on the axes is no corner function that
    # CornerFunction accepts; prism_top and prism_wall read it all the same
    P = propagate_prism_faces(1, 1, slope=lambda x, y: 1, front=lambda x, z: 1,
                              shadow=lambda y, z: 1)
    assert prism_top(P).values == ((1, 1), (1, 1))
    assert prism_wall(P).values == ((1,), (1, 1))
    with pytest.raises(ValidationError, match="must vanish on the axes"):
        CornerFunction(prism_top(P).values)
    F = Fraction
    g = lambda x, y, z: F(x * x + 2 * y + z, 2) + 1
    P = propagate_prism_faces(2, 2, slope=lambda x, y: g(x, y, y),
                              front=lambda x, z: g(x, 0, z), shadow=lambda y, z: g(0, y, z))
    top, wall = prism_top(P), prism_wall(P)
    assert top.values == ((2, F(5, 2), 4), (3, F(7, 2), 5), (4, F(9, 2), 6))
    assert wall.values == ((3,), (F(7, 2), F(9, 2)), (4, 5, 6))
    # a sum of Fractions that is integral is read as an int
    assert {type(v) for v in top.values[0][::2] + wall.values[2]} == {int}
    assert repr(top) == ("CornerFunction(values=((2, Fraction(5, 2), 4), "
                         "(3, Fraction(7, 2), 5), (4, Fraction(9, 2), 6)))")
