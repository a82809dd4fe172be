"""Triangular grids, rhombus inequalities and the pair/hive correspondence.

A TriangleFunction lives on the points (u, v) with 0 <= u <= v <= n.  Its
boundary increments are read along the left side (u = 0), the top side
(v = n) and the diagonal (u = v).

Rhombus inequalities are checked by one engine, ``rhombi``, on any point
set triangulated by edge directions da, db and da + db: each pair of
adjacent primitive triangles gives one inequality, "sum over the shared edge
>= sum over the opposite vertices".  On the plane, with directions (1,0),
(0,1) and (1,1), the three resulting patterns are

    (i)   f(i,j)   + f(i+1,j+1) >= f(i+1,j) + f(i,j+1)
    (ii)  f(i,j+1) + f(i+1,j+1) >= f(i,j)   + f(i+1,j+2)
    (iii) f(i+1,j) + f(i+1,j+1) >= f(i,j)   + f(i+2,j+1)

Type (i) alone is supermodularity; (i)+(ii) is concavity along vertical
strips, (i)+(iii) along horizontal strips, and all three together is
discrete concavity.  octahedron.py runs the same engine inside the modular
flats of a solid.
"""

from collections import namedtuple

from .arrays import (
    Array,
    _tight_rows,
    concat,
    diag,
    integrate,
    is_l_tight,
    is_r_tight,
)
from .condense import shape
from .errors import ValidationError
from .scalars import Scalar, checked_row, normalize
from .values import Value


class TriangleFunction(Value):
    """Values h(u, v) on 0 <= u <= v <= n, stored as rows indexed by v."""

    _fields = ("values",)  # values[v][u], len(values[v]) == v + 1

    def __init__(self, values):
        values = tuple(checked_row(row, normalize) for row in values)
        if not values or len(values[0]) != 1:
            raise ValidationError("triangle rows must start with a single apex value")
        for v, row in enumerate(values):
            if len(row) != v + 1:
                raise ValidationError(f"triangle row {v} has {len(row)} entries")
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return len(self.values) - 1

    def value(self, u: int, v: int) -> Scalar:
        if not (0 <= u <= v <= self.n):
            raise ValidationError(f"point ({u},{v}) outside triangle of size {self.n}")
        return self.values[v][u]

    def points(self) -> dict:
        return {
            (u, v): self.values[v][u]
            for v in range(self.n + 1)
            for u in range(v + 1)
        }


def triangle_from_points(n: int, pts) -> TriangleFunction:
    return TriangleFunction(
        [[pts[(u, v)] for u in range(v + 1)] for v in range(n + 1)]
    )


# -- the rhombus rule ----------------------------------------------------------


def rhombi(pts: dict, da, db, kinds=("i", "ii", "iii")):
    """Lazily yield (kind, p) for each violated rhombus inequality of pts, a
    dict from lattice points (pairs or triples) to values, triangulated by
    the edge directions da, db and dc = da + db.

    Each kind is a rhombus at p spanned by two edges e1, e2; the sum over
    the diagonal its two triangles share is on the left:

        (i)   e1, e2 = da, db: f(p) + f(p+dc) >= f(p+da) + f(p+db)
        (ii)  e1, e2 = db, dc: f(p+db) + f(p+dc) >= f(p) + f(p+db+dc)
        (iii) e1, e2 = da, dc: f(p+da) + f(p+dc) >= f(p) + f(p+da+dc)

    Rhombi with a corner outside pts are skipped.
    """
    dc = tuple(a + b for a, b in zip(da, db))
    edges = {"i": (da, db), "ii": (db, dc), "iii": (da, dc)}
    rules = []
    for kind in kinds:
        e1, e2 = edges[kind]
        rules.append((kind, e1, e2, tuple(a + b for a, b in zip(e1, e2))))
    if len(dc) == 2:
        shift = lambda p, d: (p[0] + d[0], p[1] + d[1])
    else:
        shift = lambda p, d: (p[0] + d[0], p[1] + d[1], p[2] + d[2])
    get = pts.get
    for p, f0 in pts.items():
        for kind, e1, e2, e3 in rules:
            f1 = get(shift(p, e1))
            if f1 is None:
                continue
            f2 = get(shift(p, e2))
            if f2 is None:
                continue
            f3 = get(shift(p, e3))
            if f3 is None:
                continue
            if (f0 + f3 < f1 + f2) if kind == "i" else (f1 + f2 < f0 + f3):
                yield kind, p


def _plane_rhombi(f, kinds):
    """rhombi of a function on the plane, with edges (1,0), (0,1), (1,1)."""
    pts = f if isinstance(f, dict) else f.points()
    return rhombi(pts, (1, 0), (0, 1), kinds)


def rhombus_violations(f, kinds=("i", "ii", "iii")):
    """All violated rhombus inequalities in the point set of f.

    Returns a list of (kind, (i, j)) naming the base point of each violated
    rhombus.  f may be a CornerFunction, a TriangleFunction or a dict.
    """
    return list(_plane_rhombi(f, kinds))


def is_supermodular(f) -> bool:
    return not any(_plane_rhombi(f, ("i",)))


def is_vs_concave(f) -> bool:
    return not any(_plane_rhombi(f, ("i", "ii")))


def is_hs_concave(f) -> bool:
    return not any(_plane_rhombi(f, ("i", "iii")))


def is_discrete_concave(f) -> bool:
    return not any(_plane_rhombi(f, ("i", "ii", "iii")))


# -- boundary increments ------------------------------------------------------


HiveType = namedtuple("HiveType", "lam mu nu")


def increments(h: TriangleFunction) -> HiveType:
    """Boundary increments (left side, top side, diagonal) of a triangle;
    an integral increment is an int."""
    n = h.n
    lam = (h.value(0, v) - h.value(0, v - 1) for v in range(1, n + 1))
    mu = (h.value(u, n) - h.value(u - 1, n) for u in range(1, n + 1))
    nu = (h.value(k, k) - h.value(k - 1, k - 1) for k in range(1, n + 1))
    return HiveType(*(checked_row(seq, normalize) for seq in (lam, mu, nu)))


# -- standard and anti-standard pairs -----------------------------------------


class _Pair(Value):
    """A pair of equal-sized square arrays: the first condensed to ``side``,
    the second condensed left, their concatenation tight downwards.  The
    subclasses differ only in ``side``; ``kind`` names them in JSON.  The
    constructor checks all three, for decoded and outside data alike; only
    the associator and the pair search build pairs unchecked (``_built``)."""

    _fields = ("a", "b")

    def __init__(self, a: Array, b: Array):
        if a.n != a.m or b.n != b.m or a.n != b.n:
            raise ValidationError(
                f"pair components must be square and equal-sized, "
                f"got {a.n}x{a.m} and {b.n}x{b.m}"
            )
        if not (is_l_tight if self.side == "left" else is_r_tight)(a):
            raise ValidationError(f"first component is not condensed {self.side}")
        if not is_l_tight(b):
            raise ValidationError("second component is not condensed left")
        if not _tight_rows(ra + rb for ra, rb in zip(a.rows, b.rows)):
            raise ValidationError("concatenation is not tight downwards")
        self.__dict__.update(a=a, b=b)

    @classmethod
    def _built(cls, a: Array, b: Array):
        """A pair built without the checks: the associator is a bijection
        between compatible couples of standard pairs (Henriques-Kamnitzer,
        math/0408114), and enumerate_standard_pairs keeps only candidates
        that have just passed the same checks."""
        p = object.__new__(cls)
        p.__dict__.update(a=a, b=b)
        return p

    @property
    def n(self) -> int:
        return self.a.n

    def concat(self) -> Array:
        return concat(self.a, self.b)

    def type(self) -> HiveType:
        return HiveType(shape(self.a), shape(self.b), shape(self.concat()))


class StandardPair(_Pair):
    """Both components condensed left.  The first component is then forced
    to be diagonal."""

    kind, side = "standard", "left"


class AntiStandardPair(_Pair):
    """First component condensed right, second condensed left."""

    kind, side = "antistandard", "right"


# -- the pair <-> hive correspondence -----------------------------------------


def pair_to_hive(p: StandardPair) -> TriangleFunction:
    """h(u, v) = integral of the concatenation over columns <= n+u, rows <= v."""
    f = integrate(p.concat())
    n = p.n
    return TriangleFunction(
        [[f.value(n + u, v) for u in range(v + 1)] for v in range(n + 1)]
    )


def extended_differences(values, n: int) -> list:
    """Mixed differences of a triangle function t, given by its rows
    values[v][u], after extending it below its diagonal, where it is
    constant along rows: rows k = 1..t.n of columns j = 1..n.

    This inverts the integral of an array with no mass in any box (j, k)
    with j > k, such as a left-condensed array or the second component of
    a standard pair.
    """
    ext = [row[:n + 1] + row[-1:] * (n + 1 - len(row)) for row in values]
    return [
        [h1 - h0 - l1 + l0 for l0, l1, h0, h1 in zip(low, low[1:], high, high[1:])]
        for low, high in zip(ext, ext[1:])
    ]


def hive_to_pair(h: TriangleFunction) -> StandardPair:
    """Inverse of pair_to_hive; raises if h is not a hive of a pair."""
    lam, _, _ = increments(h)
    rows = extended_differences(h.values, h.n)
    for v, row in enumerate(rows, 1):
        for u, x in enumerate(row, 1):
            if x < 0:
                raise ValidationError(
                    f"negative mixed difference {x} at ({u},{v}); not a pair hive"
                )
    return StandardPair(diag(lam), Array(rows))
