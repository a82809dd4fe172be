"""Octahedron-recurrence propagation in three dimensions.

Two settings are implemented.

The prism {0 <= x <= n, 0 <= y <= z <= m} propagates along (1, 0, 1): given
the double integral of an array on the slope face y = z and zeros on the
faces x = 0 and y = 0, the recurrence

    F(x,y,z) = max(F(x-1,y,z) + F(x,y,z-1),
                   F(x,y+1,z) + F(x-1,y-1,z-1)) - F(x-1,y,z-1)

fills everything else.  The ceiling z = m then carries the integral of the
down-condensation and the wall x = n the integral of the left-condensation,
which gives a second, independent route to both condensations.  Only this
module fills prism layers L[z][y][x] = F(x, y, z): array_layers over the
rows of an array, propagate_prism_faces over outside faces; layer_wall reads
walls.

The tetrahedron {x, y, z >= 0, x + y + z <= n} propagates along (-1, 1, 1)
from its ground z = 0 and front wall y = 0, one level s = y + z at a time:

    F(a,b,c) = max(F(a,b,c-1) + F(a+1,b-1,c),
                   F(a,b-1,c) + F(a+1,b,c-1)) - F(a+1,b-1,c-1).

Both recurrences are instances of one octahedron rule: on every primitive
octahedron the sum over the main diagonal equals the larger of the sums over
the other two diagonals; every fill applies it, as or_step, once per point.

A propagated solid is polarized by construction: the primitive octahedra
that fit in the prism are exactly those whose top (x, y, z) has x >= 1 and
1 <= y <= z - 1, the points the recurrence fills; in the tetrahedron, those
whose top has y, z >= 1, again the filled points, with both side pairs
inside.  is_polarized checks the property on arbitrary solids.
"""

from .arrays import Array, CornerFunction, _integral, _mixed_differences, _tight_rows
from .errors import ValidationError
from .hives import TriangleFunction, extended_differences, rhombi
from .scalars import Scalar, normalize, scale_rows, unscale_rows
from .values import Value


def or_step(f0: Scalar, fa: Scalar, fa2: Scalar, fb: Scalar, fb2: Scalar) -> Scalar:
    """One octahedron step: max of the two side-diagonal sums minus f0."""
    p = fa + fa2
    q = fb + fb2
    return (q if q > p else p) - f0  # max(p, q) without the builtin's call cost


# -- frames -------------------------------------------------------------------


class OctahedronFrame(Value):
    """A primitive octahedron up to translation: the main diagonal vector,
    the two side-diagonal vertex pairs (each pair summing to the main
    vector), and the four modular flat families.

    Each flat is given by edge directions (da, db): the flat is spanned by
    them, and da, db and da + db are its intersections with the other three
    flat families, which triangulate it.
    """

    _fields = ("main", "pairs", "flats")


PRISM_FRAME = OctahedronFrame(
    main=(1, 0, 1),
    pairs=((((1, 0, 0)), (0, 0, 1)), ((1, 1, 1), (0, -1, 0))),
    flats=(
        ((0, -1, 0), (0, 0, -1)),
        ((0, 1, 0), (1, 0, 0)),
        ((0, 0, 1), (-1, -1, -1)),
        ((-1, 0, 0), (1, 1, 1)),
    ),
)

TETRA_FRAME = OctahedronFrame(
    main=(-1, 1, 1),
    pairs=(((-1, 1, 0), (0, 0, 1)), ((-1, 0, 1), (0, 1, 0))),
    flats=(
        ((0, 0, 1), (0, -1, 0)),
        ((0, 0, -1), (1, 0, 0)),
        ((0, 1, 0), (-1, 0, 0)),
        ((0, 1, -1), (-1, 0, 1)),
    ),
)


# -- solids -------------------------------------------------------------------


class Solid(Value):
    """A function on a finite set of lattice points in 3-space."""

    _fields = ("values",)  # a dict, so a solid is not hashable

    def value(self, x: int, y: int, z: int) -> Scalar:
        return self.values[(x, y, z)]


def is_polarized(f: Solid, frame: OctahedronFrame) -> bool:
    """True iff every primitive octahedron of the frame that fits inside the
    domain satisfies: main-diagonal sum = max of the side-diagonal sums.
    Every propagated solid is polarized by construction (module docstring)."""
    pts = f.values
    offsets = (frame.main,) + frame.pairs[0] + frame.pairs[1]
    for p in pts:
        corners = [(p[0] + d[0], p[1] + d[1], p[2] + d[2]) for d in offsets]
        if all(c in pts for c in corners):
            top, fa, fa2, fb, fb2 = (pts[c] for c in corners)
            if top != or_step(pts[p], fa, fa2, fb, fb2):
                return False
    return True


def is_flat_concave(f: Solid, frame: OctahedronFrame) -> bool:
    """Rhombus-concave inside every modular flat.

    Each flat (da, db) of the frame is triangulated by da, db and da + db,
    the directions of its intersections with the other three flat families;
    the rhombus engine of hives.py checks every pair of adjacent primitive
    triangles in it (shared edge >= opposite vertices).
    """
    return not any(v for da, db in frame.flats for v in rhombi(f.values, da, db))


def is_polarized_dc(f: Solid, frame: OctahedronFrame) -> bool:
    """Polarized, and rhombus-concave inside every modular flat.  On a
    propagated solid this is is_flat_concave alone."""
    return is_polarized(f, frame) and is_flat_concave(f, frame)


# -- the prism ----------------------------------------------------------------


class PrismFunction(Solid):
    _fields = ("values", "n", "m")


def _zero_layers(n: int, m: int) -> list:
    """Layers L[z][y][x] of the prism {0 <= x <= n, 0 <= y <= z <= m}, all zero."""
    return [[[0] * (n + 1) for _ in range(z + 1)] for z in range(m + 1)]


def _prism_layers(L: list) -> list:
    """The prism recurrence, filled layer by layer: L[z][y][x] = F(x, y, z).

    The faces of L -- the slope y = z, the front y = 0 and the shadow
    x = 0 -- are already set; every other point is filled in place.
    """
    step = or_step
    for z in range(1, len(L)):
        below, here = L[z - 1], L[z]
        for y in range(z - 1, 0, -1):
            b, b_low, h, h_up = below[y], below[y - 1], here[y], here[y + 1]
            for x in range(1, len(h)):
                h[x] = step(b[x - 1], h[x - 1], b[x], h_up[x], b_low[x - 1])
    return L


def array_layers(rows) -> list:
    """Layers L[z][y][x] = F(x, y, z) of the prism over the array with these
    rows: its double integral on the slope face, zeros on the front and the
    shadow, which meet the slope where the integral vanishes, on the axes."""
    L = _zero_layers(len(rows[0]), len(rows))
    for y, row in enumerate(_integral(rows)):
        L[y][y] = row
    return _prism_layers(L)


def layer_wall(L: list, x: int) -> list:
    """The wall at x of the layers L: rows [F(x, y, z) for y <= z], z = 0..m."""
    return [[row[x] for row in layer] for layer in L]


def _prism_function(L: list) -> PrismFunction:
    """The solid of the layers L, one point per value."""
    F = {
        (x, y, z): v
        for z, layer in enumerate(L)
        for y, row in enumerate(layer)
        for x, v in enumerate(row)
    }
    return PrismFunction(values=F, n=len(L[0][0]) - 1, m=len(L) - 1)


def propagate_prism_faces(n: int, m: int, slope, front, shadow) -> PrismFunction:
    """Propagate arbitrary face data through the prism.

    slope(x, y) gives F on the face y = z, front(x, z) gives F on y = 0 and
    shadow(y, z) gives F on x = 0, each value normalized; shadow overwrites
    front on their edge, and slope must agree with both, checked in (y, x).
    """
    L = _zero_layers(n, m)
    for z in range(m + 1):
        L[z][0] = [normalize(front(x, z)) for x in range(n + 1)]
    for z in range(m + 1):
        for y in range(z + 1):
            L[z][y][0] = normalize(shadow(y, z))
    for y in range(m + 1):
        row = L[y][y]
        for x in range(n + 1):
            v = normalize(slope(x, y))
            if (x == 0 or y == 0) and row[x] != v:
                raise ValidationError(f"face data disagree at {(x, y, y)}")
            row[x] = v
    return _prism_function(_prism_layers(L))


def prism_propagate(a: Array) -> PrismFunction:
    """Propagate the double integral of an array from the slope face."""
    return _prism_function(array_layers(a.rows))


def prism_top(F: PrismFunction) -> CornerFunction:
    """Restriction to the ceiling z = m."""
    return CornerFunction(
        [[F.value(x, y, F.m) for x in range(F.n + 1)] for y in range(F.m + 1)]
    )


def prism_wall(F: PrismFunction) -> TriangleFunction:
    """Restriction to the wall x = n, as a triangle in (y, z)."""
    return TriangleFunction(
        [[F.value(F.n, y, z) for y in range(z + 1)] for z in range(F.m + 1)]
    )


def rsk_rows(rows, D: int):
    """rsk on rows of ints: the rows of (down, left), in the same scale.

    The ceiling of the prism integrates the down-condensation and the wall
    integrates the left-condensation; an error quotes a value divided by D.
    """
    L = array_layers(rows)
    n = len(rows[0])
    d = _mixed_differences(L[-1], D)
    l = extended_differences(layer_wall(L, n), n)
    if min(map(min, l)) < 0:
        raise AssertionError("the wall has a negative mixed difference")
    return d, l


def rsk(a: Array):
    """Both condensations of a in one propagation: returns (down, left).

    Rational masses are scaled to ints once; propagation and the
    differences of ceiling and wall run in ints, and only the masses of the
    two condensations are divided back.
    """
    D, rows = scale_rows(a.rows)
    d, l = rsk_rows(rows, D)
    return Array(unscale_rows(d, D)), Array(unscale_rows(l, D))


def rsk_inverse_rows(d, l, D: int) -> list:
    """rsk_inverse on the rows of d and l, ints in one scale: the rows of
    the array, in the same scale; an error quotes a value divided by D.

    d must be tight downwards, l tight leftwards, of equal sizes and with
    the matching corner integrals on the shared edge.  They are propagated
    backwards along (-1, 0, -1) from the ceiling and the wall, layer by
    layer; the recovered shadow face x = 0 must vanish, and the slope face
    must integrate a non-negative array.
    """
    m, n = len(d), len(d[0])
    if n != len(l[0]) or m != len(l):
        raise ValidationError("condensation sizes differ")
    if not _tight_rows(d):
        raise ValidationError("first argument is not tight downwards")
    if not _tight_rows(zip(*l)):
        raise ValidationError("second argument is not tight leftwards")
    fd = _integral(d)
    fl = _integral(l)
    # shared edge of ceiling and wall: mass in rows <= j of d must equal
    # mass in columns <= j of l for every j
    for j in range(m + 1):
        if fd[j][n] != fl[m][min(j, n)]:
            raise ValidationError("condensations disagree on the shared edge")

    # L[z][y][x] = F(x, y, z): zero layers (both integrals vanish on the
    # front y = 0) under the ceiling z = m and the wall x = n, which agree
    # on the shared edge by the check above; then each layer z - 1 from z
    L = _zero_layers(n, m)
    L[m] = fd
    for k in range(m + 1):
        for j in range(k + 1):
            L[k][j][n] = fl[k][min(j, n)]
    step = or_step
    for z in range(m, 0, -1):
        here, below = L[z], L[z - 1]
        for y in range(1, z):
            h, h_up, b, b_low = here[y], here[y + 1], below[y], below[y - 1]
            for x in range(n, 0, -1):
                b[x - 1] = step(h[x], h[x - 1], b[x], h_up[x], b_low[x - 1])
    if any(v != 0 for row in layer_wall(L, 0) for v in row):
        raise ValidationError(
            "recovered shadow face is non-zero; the condensations are "
            "not a matching pair"
        )
    slope = [L[y][y] for y in range(m + 1)]
    return _mixed_differences(slope, D)


def rsk_inverse(d: Array, l: Array) -> Array:
    """Recover the unique array with the given condensations.

    Both are scaled to ints first, with one D (tightness is invariant under
    positive scaling), and only the masses found are divided back.
    """
    D, rows = scale_rows(d.rows + l.rows)
    return Array(unscale_rows(rsk_inverse_rows(rows[:d.m], rows[d.m:], D), D))


# -- the tetrahedron ----------------------------------------------------------


class TetraFunction(Solid):
    _fields = ("values", "n")


def tetra_propagate(ground, frontwall, n: int) -> TetraFunction:
    """Propagate through the tetrahedron x + y + z <= n from its ground
    (z = 0, a function of (x, y)) and front wall (y = 0, of (x, z)), which
    must agree on y = z = 0 (checked in increasing x).  Each level s = y + z
    = 2..n then takes one or_step per point with y, z >= 1, on operands at
    the levels s - 1 and s - 2."""
    F = {(x, y, 0): normalize(ground(x, y))
         for x in range(n + 1) for y in range(n + 1 - x)}
    for x in range(n + 1):
        if normalize(frontwall(x, 0)) != F[x, 0, 0]:
            raise ValidationError(f"ground and front wall disagree at x={x}")
        for z in range(1, n + 1 - x):
            F[x, 0, z] = normalize(frontwall(x, z))
    step = or_step
    for s in range(2, n + 1):
        for b in range(1, s):
            c = s - b
            for a in range(n + 1 - s):
                F[a, b, c] = step(F[a + 1, b - 1, c - 1],
                                  F[a, b, c - 1], F[a + 1, b - 1, c],
                                  F[a, b - 1, c], F[a + 1, b, c - 1])
    return TetraFunction(values=F, n=n)


def tetra_shadow_wall(F: TetraFunction) -> TriangleFunction:
    """Restriction to x = 0, as a triangle: value(u, v) = F(0, u, v - u)."""
    return TriangleFunction(
        [[F.value(0, u, v - u) for u in range(v + 1)] for v in range(F.n + 1)]
    )


def tetra_slope_wall(F: TetraFunction) -> TriangleFunction:
    """Restriction to x + y + z = n: value(u, v) = F(n - v, u, v - u)."""
    return TriangleFunction(
        [[F.value(F.n - v, u, v - u) for u in range(v + 1)] for v in range(F.n + 1)]
    )
