"""Octahedron-recurrence propagation in three dimensions.

Two settings are implemented.

The prism {0 <= x <= n, 0 <= y <= z <= m} propagates along (1, 0, 1): given
the double integral of an array on the slope face y = z and zeros on the
faces x = 0 and y = 0, the recurrence

    F(x,y,z) = max(F(x-1,y,z) + F(x,y,z-1),
                   F(x,y+1,z) + F(x-1,y-1,z-1)) - F(x-1,y,z-1)

fills everything else.  The ceiling z = m then carries the integral of the
down-condensation and the wall x = n the integral of the left-condensation,
which gives a second, independent route to both condensations.

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

from dataclasses import dataclass

from .arrays import (
    Array,
    CornerFunction,
    _mixed_differences,
    integrate,
    is_d_tight,
    is_l_tight,
)
from .errors import ValidationError
from .hives import TriangleFunction, extended_differences, rhombi
from .scalars import Scalar, normalize, scale_rows, unscale_rows


def or_step(f0: Scalar, fa: Scalar, fa2: Scalar, fb: Scalar, fb2: Scalar) -> Scalar:
    """One octahedron step: max of the two side-diagonal sums minus f0."""
    p = fa + fa2
    q = fb + fb2
    return (q if q > p else p) - f0  # max(p, q) without the builtin's call cost


# -- frames -------------------------------------------------------------------


@dataclass(frozen=True)
class OctahedronFrame:
    """A primitive octahedron up to translation: the main diagonal vector,
    the two side-diagonal vertex pairs (each pair summing to the main
    vector), and the four modular flat families.

    Each flat is given by edge directions (da, db): the flat is spanned by
    them, and da, db and da + db are its intersections with the other three
    flat families, which triangulate it.
    """

    main: tuple
    pairs: tuple
    flats: tuple


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


@dataclass(frozen=True)
class Solid:
    """A function on a finite set of lattice points in 3-space."""

    values: dict

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


@dataclass(frozen=True)
class PrismFunction(Solid):
    n: int = 0
    m: int = 0


def _prism_layers(n: int, m: int, slope, front, shadow) -> list:
    """The prism recurrence, filled layer by layer: L[z][y][x] = F(x, y, z).

    slope(x, y), front(x, z) and shadow(y, z) give the faces y = z, y = 0
    and x = 0.  Shadow overwrites front on their shared edge; slope must
    agree with both, checked in order of (y, x).
    """
    L = [[[None] * (n + 1) for _ in range(z + 1)] for z in range(m + 1)]
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
    step = or_step
    for z in range(1, m + 1):
        below, here = L[z - 1], L[z]
        for y in range(z - 1, 0, -1):
            b, b_low, h, h_up = below[y], below[y - 1], here[y], here[y + 1]
            for x in range(1, n + 1):
                h[x] = step(b[x - 1], h[x - 1], b[x], h_up[x], b_low[x - 1])
    return L


def propagate_prism_faces(n: int, m: int, slope, front, shadow) -> PrismFunction:
    """Propagate arbitrary face data through the prism.

    slope(x, y) gives F on the face y = z, front(x, z) gives F on y = 0 and
    shadow(y, z) gives F on x = 0; the three must agree on shared edges.
    """
    L = _prism_layers(n, m, slope, front, shadow)
    F = {
        (x, y, z): v
        for z, layer in enumerate(L)
        for y, row in enumerate(layer)
        for x, v in enumerate(row)
    }
    return PrismFunction(values=F, n=n, m=m)


def _zero(i, j):
    return 0


def prism_propagate(a: Array) -> PrismFunction:
    """Propagate the double integral of an array from the slope face."""
    f = integrate(a)
    return propagate_prism_faces(
        a.n,
        a.m,
        slope=f.value,
        front=_zero,
        shadow=_zero,
    )


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


def rsk(a: Array):
    """Both condensations of a in one propagation: returns (down, left).

    The ceiling of the prism integrates the down-condensation and the wall
    integrates the left-condensation.  Rational masses are scaled to ints
    once; propagation and the differences of ceiling and wall run in ints,
    and only the masses of the two condensations are divided back.
    """
    n, m = a.n, a.m
    D, rows = scale_rows(a.rows)
    f = integrate(Array(rows)).values
    L = _prism_layers(n, m, lambda x, y: f[y][x], _zero, _zero)
    d = Array(unscale_rows(_mixed_differences(L[m], D), D))
    wall = TriangleFunction([[L[z][y][n] for y in range(z + 1)] for z in range(m + 1)])
    l = Array(unscale_rows(extended_differences(wall, n), D))
    return d, l


def rsk_inverse(d: Array, l: Array) -> Array:
    """Recover the unique array with the given condensations.

    d must be tight downwards, l tight leftwards, with equal shapes and the
    matching corner integrals on the shared edge.  Both are scaled to ints
    first (tightness is invariant under positive scaling), then propagated
    backwards along (-1, 0, -1) from the ceiling and the wall, layer by
    layer; the recovered shadow face x = 0 must vanish, and the slope face
    must integrate a non-negative array -- both are checked on the ints, and
    only the masses found are divided back.
    """
    if d.n != l.n or d.m != l.m:
        raise ValidationError("condensation sizes differ")
    n, m = d.n, d.m
    D, rows = scale_rows(d.rows + l.rows)
    d, l = Array(rows[:m]), Array(rows[m:])
    if not is_d_tight(d):
        raise ValidationError("first argument is not tight downwards")
    if not is_l_tight(l):
        raise ValidationError("second argument is not tight leftwards")
    fd = integrate(d).values
    fl = integrate(l).values
    # shared edge of ceiling and wall: mass in rows <= j of d must equal
    # mass in columns <= j of l for every j
    for j in range(m + 1):
        if fd[j][n] != fl[m][min(j, n)]:
            raise ValidationError("condensations disagree on the shared edge")

    # L[z][y][x] = F(x, y, z): the ceiling z = m, the wall x = n (where they
    # meet, on the shared edge, they agree by the check above) and the zero
    # front y = 0, then each layer z - 1 from layer z
    L = [[[None] * (n + 1) for _ in range(z + 1)] for z in range(m + 1)]
    L[m] = [list(row) for row in fd]
    for k in range(m + 1):
        for j in range(k + 1):
            L[k][j][n] = fl[k][min(j, n)]
    for layer in L:
        layer[0] = [0] * (n + 1)
    step = or_step
    for z in range(m, 0, -1):
        here, below = L[z], L[z - 1]
        for y in range(1, z):
            h, h_up, b, b_low = here[y], here[y + 1], below[y], below[y - 1]
            for x in range(n, 0, -1):
                b[x - 1] = step(h[x], h[x - 1], b[x], h_up[x], b_low[x - 1])
    if any(row[0] != 0 for layer in L for row in layer):
        raise ValidationError(
            "recovered shadow face is non-zero; the condensations are "
            "not a matching pair"
        )
    slope = [L[y][y] for y in range(m + 1)]
    return Array(unscale_rows(_mixed_differences(slope, D), D))


# -- the tetrahedron ----------------------------------------------------------


@dataclass(frozen=True)
class TetraFunction(Solid):
    n: int = 0


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


__all__ = [
    "or_step",
    "OctahedronFrame",
    "PRISM_FRAME",
    "TETRA_FRAME",
    "Solid",
    "is_polarized",
    "is_flat_concave",
    "is_polarized_dc",
    "PrismFunction",
    "propagate_prism_faces",
    "prism_propagate",
    "prism_top",
    "prism_wall",
    "rsk",
    "rsk_inverse",
    "TetraFunction",
    "tetra_propagate",
    "tetra_shadow_wall",
    "tetra_slope_wall",
]
