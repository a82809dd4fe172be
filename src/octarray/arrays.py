"""Rectangular arrays of non-negative masses and their corner integrals.

An Array has n columns and m rows; rows are stored bottom to top, so
``rows[0]`` is the lowest row.  ``a.mass(i, j)`` uses the 1-based box
coordinates the rest of the package works in: column i in 1..n, row j in
1..m.

A CornerFunction is the double integral of an array: f(i, j) is the total
mass in columns 1..i and rows 1..j, so f vanishes on the axes and its mixed
second differences recover the array.

An Array, a CornerFunction and a hives.TriangleFunction keep one state,
_Scaled: their values as ints over one denominator, ``D`` and ``ints``,
with D the least common denominator of the values, so equal grids have
equal state.  ``Array.rows`` and the functions' ``values`` are read off it
on first use: ints, and Fractions only where a value is not integral.
Integration, condensation, propagation and the rearrangements below commute
with positive scaling, so they run on the ints and hand their result over D
to _scaled, which reduces it by the gcd of D and every value and reads
nothing again.  Only the public constructors read values: scale_rows, then
the class's _check.
"""

from functools import cached_property
from itertools import accumulate
from math import gcd, lcm
from operator import add, sub

from .errors import ValidationError
from .scalars import Scalar, scale_rows, scaled_to_json, unscale_rows
from .values import Value


class _Scaled(Value):
    """Rows of exact values as ints over their least common denominator D."""

    _fields = ("D", "ints")

    def __init__(self, rows):
        D, ints = scale_rows(rows)
        self._check(D, ints)
        self.__dict__.update(D=D, ints=ints)

    @classmethod
    def _scaled(cls, D: int, rows):
        """The grid of rows of ints over D that the library computed, reduced
        by the gcd of D and every value and not checked."""
        rows = tuple(map(tuple, rows))
        g = D
        for row in rows:  # the gcd of D and every value, which is soon 1
            if g == 1:
                break
            g = gcd(g, *row)
        if g != 1:
            D, rows = D // g, tuple(tuple([v // g for v in row]) for row in rows)
        return cls._built(D, rows)

    def _unscaled(self) -> tuple:
        """The values, divided back from the state on first use."""
        return unscale_rows(self.ints, self.D)


class Array(_Scaled):
    rows = cached_property(_Scaled._unscaled)

    @staticmethod
    def _check(D: int, rows) -> None:
        """Raise unless rows of ints scaled by D are an array: at least one
        row and column, not ragged, and no negative mass; the first negative
        mass in row-major order is quoted as v / D."""
        if not rows or not rows[0]:
            raise ValidationError("array must have at least one row and column")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise ValidationError("ragged array")
        if min(map(min, rows)) < 0:
            v = next(v for row in rows for v in row if v < 0)
            raise ValidationError(f"negative mass {scaled_to_json(v, D)}")

    @property
    def n(self) -> int:
        return len(self.ints[0])

    @property
    def m(self) -> int:
        return len(self.ints)

    def mass(self, i: int, j: int) -> Scalar:
        if not (1 <= i <= self.n and 1 <= j <= self.m):
            raise ValidationError(f"box ({i},{j}) outside {self.n}x{self.m} array")
        return self.rows[j - 1][i - 1]

    def total(self) -> Scalar:
        return unscale_rows([(sum(map(sum, self.ints)),)], self.D)[0][0]

    def __repr__(self):
        return f"Array({list(list(r) for r in self.rows)!r})"


class Grid(_Scaled):
    """A function given by rows of exact values, values[j][i] at the point
    (i, j)."""

    values = cached_property(_Scaled._unscaled)

    @property
    def n(self) -> int:
        """The last row holds the values at i = 0..n."""
        return len(self.ints[-1]) - 1

    def points(self) -> dict:
        return {(i, j): x for j, row in enumerate(self.values) for i, x in enumerate(row)}

    def value(self, i: int, j: int) -> Scalar:
        if not (0 <= j < len(self.ints) and 0 <= i < len(self.ints[j])):
            raise ValidationError(f"point ({i},{j}) outside {self._domain}")
        return self.values[j][i]

    def __repr__(self):
        return f"{type(self).__qualname__}(values={self.values!r})"


class CornerFunction(Grid):
    """Values f(i, j) for 0 <= i <= n, 0 <= j <= m, zero on the axes."""

    _domain = property(lambda self: f"{self.n}x{self.m} corner function")

    @staticmethod
    def _check(D: int, ints) -> None:
        if len(ints) < 2 or len(ints[0]) < 2:
            raise ValidationError("corner function needs at least a 1x1 grid")
        width = len(ints[0])
        if any(len(row) != width for row in ints):
            raise ValidationError("ragged corner function")
        if any(ints[0]) or any(row[0] for row in ints):
            raise ValidationError("corner function must vanish on the axes")

    @property
    def m(self) -> int:
        return len(self.ints) - 1


def _integral(rows) -> list:
    """The rows f(., j), j = 0..m, of the double integral of rows of masses."""
    row = [0] * (len(rows[0]) + 1)
    values = [row]
    for r in rows:
        row = list(map(add, row, accumulate(r, initial=0)))
        values.append(row)
    return values


def integrate(a: Array) -> CornerFunction:
    """Double integral: f(i, j) = sum of masses in columns <= i, rows <= j."""
    return CornerFunction._scaled(a.D, _integral(a.ints))


def _differences(vals) -> list:
    """Mixed differences of the rows vals[j][i], unchecked: the differences
    along each row of the differences between consecutive rows."""
    out = []
    for low, high in zip(vals, vals[1:]):
        d = list(map(sub, high, low))
        out.append(list(map(sub, d[1:], d)))
    return out


def _nonnegative(rows, D: int, where: str) -> list:
    """The rows of mixed differences scaled by D, rows[j - 1][i - 1] at the
    box (i, j); raises at the first negative one in (j, i) order, quoting its
    value divided by D and the box as where.format(i, j)."""
    for j, row in enumerate(rows, 1):
        if min(row) < 0:
            i, v = next((i, v) for i, v in enumerate(row, 1) if v < 0)
            raise ValidationError(f"negative mixed difference {scaled_to_json(v, D)} "
                                  f"at {where.format(i, j)}")
    return rows


def _mixed_differences(vals, D: int) -> list:
    """Mixed differences of the rows vals[j][i], scaled by D and checked."""
    rows = _differences(vals)
    return _nonnegative(rows, D, "box ({},{}); the function is not supermodular")


def mixed_derivative(f: CornerFunction) -> Array:
    """Inverse of integrate; raises if some mixed difference is negative."""
    return Array._scaled(f.D, _mixed_differences(f.ints, f.D))


def _over(a: _Scaled, D: int) -> tuple:
    """The values of a as ints over D, a multiple of a.D."""
    k = D // a.D
    return a.ints if k == 1 else tuple(tuple([x * k for x in row]) for row in a.ints)


def concat(a: Array, b: Array) -> Array:
    """Place b to the right of a; both must have the same number of rows."""
    if a.m != b.m:
        raise ValidationError(f"row count mismatch: {a.m} vs {b.m}")
    D = lcm(a.D, b.D)
    return Array._scaled(D, [ra + rb for ra, rb in zip(_over(a, D), _over(b, D))])


def split(a: Array, i: int):
    """Split after column i into a left and a right array."""
    if not (1 <= i < a.n):
        raise ValidationError(f"cannot split {a.n} columns at {i}")
    left = Array._scaled(a.D, [row[:i] for row in a.ints])
    right = Array._scaled(a.D, [row[i:] for row in a.ints])
    return left, right


def transpose(a: Array) -> Array:
    """Reflect in the main diagonal: box (i, j) goes to box (j, i)."""
    return Array._scaled(a.D, zip(*a.ints))


def central_reverse(a: Array) -> Array:
    """Rotate by 180 degrees: box (i, j) goes to (n - i + 1, m - j + 1)."""
    return Array._scaled(a.D, _reversed(a.ints))


def diag(p) -> Array:
    """Diagonal array of a partition: mass p[k] in box (k+1, k+1)."""
    p = tuple(p)
    if not p:
        raise ValidationError("empty partition")
    return Array([[x if i == j else 0 for i in range(len(p))] for j, x in enumerate(p)])


def row_sums(a: Array) -> tuple:
    return unscale_rows([tuple(map(sum, a.ints))], a.D)[0]


def col_sums(a: Array) -> tuple:
    return unscale_rows([tuple(map(sum, zip(*a.ints)))], a.D)[0]


def _reversed(rows) -> list:
    """The rows turned by 180 degrees: their order and each row reversed."""
    return [row[::-1] for row in rows[::-1]]


def _tight_rows(rows) -> bool:
    """True iff every pair of consecutive rows (low, high) satisfies the
    partial-sum condition: mass of low in columns < i dominates mass of
    high in columns <= i.  Stops at the first failure."""
    rows = iter(rows)
    low = next(rows)
    for high in rows:
        acc_low = acc_high = 0
        for x, y in zip(low, high):
            acc_high += y
            if acc_low < acc_high:
                return False
            acc_low += x
        low = high
    return True


def is_d_tight(a: Array) -> bool:
    """The row scan on the rows of a, bottom to top; tightness does not
    change under positive scaling, so it scans the ints."""
    return _tight_rows(a.ints)


def is_l_tight(a: Array) -> bool:
    """is_d_tight of the transpose, scanned on the columns of a."""
    return _tight_rows(zip(*a.ints))


def is_r_tight(a: Array) -> bool:
    """is_l_tight of the central reverse."""
    return _tight_rows(zip(*_reversed(a.ints)))


def is_u_tight(a: Array) -> bool:
    """is_d_tight of the central reverse."""
    return _tight_rows(_reversed(a.ints))
