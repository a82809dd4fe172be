"""Octahedron-recurrence propagation in three dimensions.

Two settings are implemented.

The prism {0 <= x <= n, 0 <= y <= z <= m} propagates along (1, 0, 1): given
the double integral of an array on the slope face y = z and zeros on the
faces x = 0 and y = 0, the recurrence

    F(x,y,z) = max(F(x-1,y,z) + F(x,y,z-1),
                   F(x,y+1,z) + F(x-1,y-1,z-1)) - F(x-1,y,z-1)

fills everything else.  The ceiling z = m then carries the integral of the
down-condensation and the wall x = n the integral of the left-condensation,
which is how condense computes both.  Only this module fills prism layers
L[z][y][x] = F(x, y, z): array_layers over the rows of an array,
propagate_prism_faces over outside faces, tetra_propagate over a
tetrahedron.  Over an Array the layers are filled in its ints and divided
back only where a value is read.  The restrictions to a ceiling or a wall
read their rows with scalars.scale_rows and check nothing: a solid filled
from rational faces sums Fractions, which stay Fractions where the sum is
integral.

Both fills stream: each makes a layer just before it fills it and keeps
only its neighbour.  array_layers yields each layer once it is filled and
keeps the one below; rsk_inverse keeps the one above and the slope.  Who
needs every layer takes a list of them: prism_function makes a solid of
the layers, its points in sorted (x, y, z) order, and cli.cmd_propagate
also reads the ceiling L[-1].  The others read faces off the stream: rsk
the ceiling and the wall x = n, condense and bijections.com_prime the
ceiling (array_ceiling), condense and bijections.hk_wall_h a wall
(layer_wall).  So both fills hold O(n m), where the prism over the short
side holds O(n k^2), k = min(n, m).

Over an array, layer z integrates the down-condensation of the first z
rows, and row i of a down-tight array has no mass left of column i (the
array form of a semistandard tableau whose row i holds no letter below i;
Knuth 1970).  So the triangle x < y of each layer is forced,
F(x, y, z) = F(x, z, z): the fill over an array makes each row a copy of
the slope and computes only the points with x >= y.

RSK is symmetric: transposing an array swaps its two condensations (Knuth
1970).  So rsk and rsk_inverse fill the prism over a or a^T, whichever has
fewer rows (min(n, m) + 1 layers), ceiling and wall exchanged for a^T; the
fills that hand out the prism (prism_propagate, com_prime) keep a's side.

The tetrahedron {x, y, z >= 0, x + y + z <= n} propagates along (-1, 1, 1)
from its ground z = 0 and front wall y = 0.  The unimodular map
(x, y, z) -> (y, x + y, x + y + z) carries it, and its primitive octahedra,
onto the part 0 <= x <= y <= z <= n of the prism with m = n: the ground to
the slope, the front wall to the shadow x = 0, the shadow wall x = 0 to the
plane x = y and the slope wall x + y + z = n to the ceiling.  Every operand
of a point with x <= y has x <= y, so _prism_layers fills exactly its image.

Every fill applies the one octahedron rule, as or_row, once per row it
computes: on every primitive octahedron the sum over the main diagonal
equals the larger of the sums over the other two diagonals.  There is one
fill per direction: _prism_layers forward (over an array, all but the
forced triangle) and rsk_inverse backward, on layers turned in x, whose
row y holds F(n - i, y, z) at i, so that its rows also run up in i; or_step
is the one-point case, for is_polarized.

A propagated solid is polarized by construction: the primitive octahedra
that fit in the prism are exactly those whose top (x, y, z) has x >= 1 and
1 <= y <= z - 1, the points the recurrence fills (over an array the forced
triangle holds the values it would compute); in the tetrahedron, those
whose top has y, z >= 1, again the filled points, with both side pairs
inside.  is_polarized checks the property on arbitrary solids.
"""

from math import lcm

from .arrays import (Array, CornerFunction, _differences, _integral, _mixed_differences,
                     _over, _tight_rows)
from .errors import ValidationError
from .hives import TriangleFunction, extended_differences, rhombi
from .scalars import Scalar, check_size, normalize, scale_rows, unscale_rows
from .values import Value


def or_row(t: list, s, u, w, start: int) -> None:
    """The octahedron rule along a row, in place: for i = start..len(t) - 1,
    t[i] = max(t[i-1] + s[i], u[i] + w[i-1]) - s[i-1], the first sum kept on
    a tie; 1 <= start <= len(t)."""
    v = t[start - 1]
    for i in range(start, len(t)):
        p = v + s[i]
        q = u[i] + w[i - 1]
        v = t[i] = (q if q > p else p) - s[i - 1]  # max(p, q) without the builtin's call cost


def or_step(f0: Scalar, fa: Scalar, fa2: Scalar, fb: Scalar, fb2: Scalar) -> Scalar:
    """One octahedron step, the one-point case of or_row: max of the two
    side-diagonal sums fa + fa2 and fb + fb2, minus f0."""
    t = [fa, None]
    or_row(t, (f0, fa2), (None, fb), (fb2, None), 1)
    return t[1]


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


def _prism_layers(layers, over_array: bool = False):
    """The prism recurrence, filled layer by layer: yields each layer
    L[z][y][x] = F(x, y, z) of the iterable of preset layers once it is
    filled, and keeps only the layer below.

    The faces of each layer -- the slope y = z, the front y = 0 and the
    shadow x = 0 -- are already set; every other point is filled in place,
    up to the end of its row (tetra_propagate's row y holds y + 1 values),
    by one or_row per row: F(., y, z) from F(., y, z - 1), F(., y + 1, z)
    and F(., y - 1, z - 1).  With over_array, the iterable holds the rows
    f(., z) of an array's integral instead, and layer z is made here from
    its slope f(., z): the front f(., 0) = 0, copies of the slope, whose
    triangle x < y is forced (module docstring), and the slope; or_row fills
    only the points with x >= y.
    """
    below = None
    for z, here in enumerate(layers):
        if over_array:  # f(., 0) = 0: layer 0 is the one row of both faces
            here = [here[:] if y else [0] * len(here) for y in range(z)] + [here]
        for y in range(z - 1, 0, -1):
            h = here[y]
            or_row(h, below[y], here[y + 1], below[y - 1], min(y, len(h)) if over_array else 1)
        yield here
        below = here


def array_layers(rows):
    """The layers L[z][y][x] = F(x, y, z) of the prism over the array with
    these rows, yielded as they are filled: its double integral on the
    slope face, zeros on the front and the shadow, which meet the slope
    where the integral vanishes, on the axes.  Each layer is made from its
    integral row just before it is filled."""
    return _prism_layers(_integral(rows), over_array=True)


def array_ceiling(rows) -> list:
    """The ceiling z = m of the prism over the array with these rows, which
    integrates its down-condensation; the fill keeps one layer below."""
    for top in array_layers(rows):
        pass
    return top


def layer_wall(L, x: int) -> list:
    """The wall at x of the layers L, a list or the iterator of a fill: rows
    [F(x, y, z) for y <= z], z = 0..m."""
    return [[row[x] for row in layer] for layer in L]


def prism_function(L: list) -> PrismFunction:
    """The solid of the layers L, one point per value, in sorted (x, y, z)
    order."""
    n, m = len(L[0][0]) - 1, len(L) - 1
    F = {(x, y, z): L[z][y][x]
         for x in range(n + 1) for y in range(m + 1) for z in range(y, m + 1)}
    return PrismFunction(values=F, n=n, m=m)


def propagate_prism_faces(n: int, m: int, slope, front, shadow) -> PrismFunction:
    """Propagate arbitrary face data through the prism.

    slope(x, y) gives F on the face y = z, front(x, z) gives F on y = 0 and
    shadow(y, z) gives F on x = 0, each value normalized; shadow overwrites
    front on their edge, and slope must agree with both, checked in (y, x).
    """
    n, m = check_size(n, "n"), check_size(m, "m")
    L = [[[normalize(front(x, z)) for x in range(n + 1)]]
         + [[0] * (n + 1) for _ in range(z)] for z in range(m + 1)]
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
    return prism_function(list(_prism_layers(L)))


def prism_propagate(a: Array) -> PrismFunction:
    """Propagate the double integral of an array from the slope face: the
    layers are filled in a's ints and divided back by its D."""
    return prism_function([unscale_rows(layer, a.D) for layer in array_layers(a.ints)])


def prism_top(F: PrismFunction) -> CornerFunction:
    """Restriction to the ceiling z = m."""
    V, n, m = F.values, F.n, F.m
    return CornerFunction._scaled(*scale_rows(
        [V[x, y, m] for x in range(n + 1)] for y in range(m + 1)))


def prism_wall(F: PrismFunction) -> TriangleFunction:
    """Restriction to the wall x = n, as a triangle in (y, z)."""
    V, n = F.values, F.n
    return TriangleFunction._scaled(*scale_rows(
        [V[n, y, z] for y in range(z + 1)] for z in range(F.m + 1)))


def rsk(a: Array):
    """Both condensations of a in one propagation, on its ints: returns
    (down, left).

    The ceiling of the prism integrates the down-condensation and the wall
    integrates the left-condensation.  Their mixed differences are masses
    for every array, so a negative one is a fault of the fill, not of a.
    If a has more rows than columns, the prism over a^T is filled, and its
    wall and ceiling give (down, left) transposed (module docstring).
    """
    flip = a.m > a.n
    wall = []
    for top in array_layers(list(zip(*a.ints)) if flip else a.ints):
        wall.append([row[-1] for row in top])
    d = _differences(top)
    l = extended_differences(wall, max(a.n, a.m))
    if min(map(min, d)) < 0 or min(map(min, l)) < 0:
        raise AssertionError("the ceiling or the wall has a negative mixed difference")
    if flip:
        d, l = zip(*l), zip(*d)
    return Array._scaled(a.D, d), Array._scaled(a.D, l)


def rsk_inverse(d: Array, l: Array) -> Array:
    """Recover the unique array with the given condensations, on their ints
    over the lcm of their two D (tightness is invariant under positive
    scaling); an error quotes a value divided by that D.

    d must be tight downwards, l tight leftwards, of equal sizes and with
    the matching corner integrals on the shared edge.  They are propagated
    backwards along (-1, 0, -1) from the ceiling and the wall, layer by
    layer, on layers turned in x (module docstring), keeping only the layer
    above the one filled and the slope.  The recovered shadow face x = 0
    must vanish, checked on each layer once it is filled, so a non-matching
    pair fails at its first bad layer; and the slope face must integrate a
    non-negative array.  Every check reads d and l as given; if they have
    more rows than columns, the fill then runs in the prism of their
    transposes, and its slope is transposed back.
    """
    D = lcm(d.D, l.D)
    d, l = _over(d, D), _over(l, D)
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
    flip = m > n
    if flip:  # integration commutes with transposition
        fd, fl, m, n = list(zip(*fl)), list(zip(*fd)), n, m

    # The layers turned in x, here[y][i] = F(n - i, y, z): the ceiling z = m
    # reversed, whose column 0 is the wall x = n by the check above, and
    # under it, each made just before it is filled, rows of the wall value
    # (m <= n, so fl[z][y]) and zeros, as both integrals vanish on the front
    # y = 0.  The rule is symmetric in the two ends of the main diagonal, so
    # one or_row per row fills layer z - 1 from z; the shadow x = 0 is column
    # n, zero on the ceiling (f(0, .) = 0) and checked on each layer below,
    # whose slope row is kept, turned.
    zeros = [0] * n
    here = [row[::-1] for row in fd]
    turned = [here[m]]
    for z in range(m, 0, -1):
        below = [[v] + zeros for v in fl[z - 1][:z]]
        for y in range(1, z):
            or_row(below[y], here[y], below[y - 1], here[y + 1], 1)
        if any(row[n] for row in below):
            raise ValidationError("recovered shadow face is non-zero; the condensations "
                                  "are not a matching pair")
        turned.append(below[-1])
        here = below
    slope = [row[::-1] for row in reversed(turned)]
    return Array._scaled(D, _mixed_differences(list(zip(*slope)) if flip else slope, D))


# -- the tetrahedron ----------------------------------------------------------


class TetraFunction(Solid):
    _fields = ("values", "n")


def tetra_propagate(ground, frontwall, n: int) -> TetraFunction:
    """Propagate through the tetrahedron x + y + z <= n from its ground
    (z = 0, a function of (x, y)) and front wall (y = 0, of (x, z)), which
    must agree on y = z = 0 (checked in increasing x), by _prism_layers on
    its image (module docstring): layers in which row y holds y + 1 values,
    the ground on the slope and the front wall on the shadow."""
    check_size(n, "n")
    L = [[[0] * (y + 1) for y in range(z + 1)] for z in range(n + 1)]
    for x in range(n + 1):
        for y in range(n + 1 - x):
            L[x + y][x + y][y] = normalize(ground(x, y))
    for x in range(n + 1):
        if normalize(frontwall(x, 0)) != L[x][x][0]:
            raise ValidationError(f"ground and front wall disagree at x={x}")
        for z in range(1, n + 1 - x):
            L[x + z][x][0] = normalize(frontwall(x, z))
    F = {(y - x, x, z - y): v for z, layer in enumerate(_prism_layers(L))
         for y, row in enumerate(layer) for x, v in enumerate(row)}
    return TetraFunction(values=F, n=n)


def tetra_shadow_wall(F: TetraFunction) -> TriangleFunction:
    """Restriction to x = 0, as a triangle: value(u, v) = F(0, u, v - u)."""
    V = F.values
    return TriangleFunction._scaled(*scale_rows(
        [V[0, u, v - u] for u in range(v + 1)] for v in range(F.n + 1)))


def tetra_slope_wall(F: TetraFunction) -> TriangleFunction:
    """Restriction to x + y + z = n: value(u, v) = F(n - v, u, v - u)."""
    V, n = F.values, F.n
    return TriangleFunction._scaled(*scale_rows(
        [V[n - v, u, v - u] for u in range(v + 1)] for v in range(n + 1)))
