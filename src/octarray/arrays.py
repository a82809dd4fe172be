"""Rectangular arrays of non-negative masses and their corner integrals.

An Array has n columns and m rows; rows are stored bottom to top, so
``rows[0]`` is the lowest row.  ``a.mass(i, j)`` uses the 1-based box
coordinates the rest of the package works in: column i in 1..n, row j in
1..m.

A CornerFunction is the double integral of an array: f(i, j) is the total
mass in columns 1..i and rows 1..j, so f vanishes on the axes and its mixed
second differences recover the array.
"""

from itertools import accumulate, chain

from .errors import ValidationError
from .scalars import Scalar, checked_row, normalize, scale_rows, scaled_to_json, unscale_rows
from .values import Value


class Array(Value):
    _fields = ("rows",)

    def __init__(self, rows):
        rows = tuple(map(tuple, rows))
        ints = set(map(type, chain.from_iterable(rows))) <= {int}
        if not ints:
            rows = tuple(checked_row(row, normalize) for row in rows)
        if not rows or not rows[0]:
            raise ValidationError("array must have at least one row and column")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise ValidationError("ragged array")
        # a normalized scalar has the sign of its numerator: no Fraction compares
        low = min(map(min, rows)) if ints else min(x.numerator for r in rows for x in r)
        if low < 0:
            raise ValidationError(f"negative mass {next(x for r in rows for x in r if x < 0)}")
        object.__setattr__(self, "rows", rows)

    @property
    def n(self) -> int:
        return len(self.rows[0])

    @property
    def m(self) -> int:
        return len(self.rows)

    def mass(self, i: int, j: int) -> Scalar:
        if not (1 <= i <= self.n and 1 <= j <= self.m):
            raise ValidationError(f"box ({i},{j}) outside {self.n}x{self.m} array")
        return self.rows[j - 1][i - 1]

    def total(self) -> Scalar:
        return _sums([tuple(chain.from_iterable(self.rows))])[0]

    def __repr__(self):
        return f"Array({list(list(r) for r in self.rows)!r})"


class CornerFunction(Value):
    """Values f(i, j) for 0 <= i <= n, 0 <= j <= m, zero on the axes."""

    _fields = ("values",)  # values[j][i]

    def __init__(self, values):
        values = tuple(checked_row(row, normalize) for row in values)
        if len(values) < 2 or len(values[0]) < 2:
            raise ValidationError("corner function needs at least a 1x1 grid")
        width = len(values[0])
        if any(len(row) != width for row in values):
            raise ValidationError("ragged corner function")
        if any(x != 0 for x in values[0]) or any(row[0] != 0 for row in values):
            raise ValidationError("corner function must vanish on the axes")
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return len(self.values[0]) - 1

    @property
    def m(self) -> int:
        return len(self.values) - 1

    def value(self, i: int, j: int) -> Scalar:
        return self.values[j][i]

    def points(self) -> dict:
        return {
            (i, j): self.values[j][i]
            for j in range(self.m + 1)
            for i in range(self.n + 1)
        }


def _integral(rows) -> list:
    """The rows f(., j), j = 0..m, of the double integral of rows of masses."""
    row = [0] * (len(rows[0]) + 1)
    values = [row]
    for r in rows:
        row = [low + acc for low, acc in zip(row, accumulate(r, initial=0))]
        values.append(row)
    return values


def integrate(a: Array) -> CornerFunction:
    """Double integral: f(i, j) = sum of masses in columns <= i, rows <= j."""
    return CornerFunction(_integral(a.rows))


def _mixed_differences(vals, D: int = 1) -> list:
    """Mixed differences of the rows vals[j][i], scaled by D; raises at the
    first negative box in (j, i) order, quoting its value divided by D."""
    rows = [
        [h1 - h0 - l1 + l0 for l0, l1, h0, h1 in zip(low, low[1:], high, high[1:])]
        for low, high in zip(vals, vals[1:])
    ]
    for j, row in enumerate(rows, 1):
        if min(row) < 0:
            i, v = next((i, v) for i, v in enumerate(row, 1) if v < 0)
            raise ValidationError(
                f"negative mixed difference {v if D == 1 else scaled_to_json(v, D)} at "
                f"box ({i},{j}); the function is not supermodular"
            )
    return rows


def mixed_derivative(f: CornerFunction) -> Array:
    """Inverse of integrate; raises if some mixed difference is negative."""
    return Array(_mixed_differences(f.values))


def concat(a: Array, b: Array) -> Array:
    """Place b to the right of a; both must have the same number of rows."""
    if a.m != b.m:
        raise ValidationError(f"row count mismatch: {a.m} vs {b.m}")
    return Array(tuple(ra + rb for ra, rb in zip(a.rows, b.rows)))


def split(a: Array, i: int):
    """Split after column i into a left and a right array."""
    if not (1 <= i < a.n):
        raise ValidationError(f"cannot split {a.n} columns at {i}")
    left = Array(tuple(row[:i] for row in a.rows))
    right = Array(tuple(row[i:] for row in a.rows))
    return left, right


def transpose(a: Array) -> Array:
    """Reflect in the main diagonal: box (i, j) goes to box (j, i)."""
    return Array(tuple(zip(*a.rows)))


def central_reverse(a: Array) -> Array:
    """Rotate by 180 degrees: box (i, j) goes to (n - i + 1, m - j + 1)."""
    return Array(tuple(row[::-1] for row in a.rows[::-1]))


def diag(p) -> Array:
    """Diagonal array of a partition: mass p[k] in box (k+1, k+1)."""
    p = tuple(normalize(x) for x in p)
    n = len(p)
    if n == 0:
        raise ValidationError("empty partition")
    return Array(
        tuple(tuple(p[j] if i == j else 0 for i in range(n)) for j in range(n))
    )


def _sums(rows) -> tuple:
    """Sums of rows of scalars, added in scale_rows ints and divided back
    once, so an integral sum is an int."""
    D, rows = scale_rows(rows)
    return tuple(unscale_rows([list(map(sum, rows))], D)[0])


def row_sums(a: Array) -> tuple:
    return _sums(a.rows)


def col_sums(a: Array) -> tuple:
    return _sums(list(zip(*a.rows)))


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
    """The row scan on the rows of a, bottom to top."""
    return _tight_rows(a.rows)


def is_l_tight(a: Array) -> bool:
    """is_d_tight of the transpose, scanned on the columns of a."""
    return _tight_rows(zip(*a.rows))


def is_r_tight(a: Array) -> bool:
    """is_l_tight of the central reverse."""
    return _tight_rows(zip(*(row[::-1] for row in a.rows[::-1])))


def is_u_tight(a: Array) -> bool:
    """is_d_tight of the central reverse."""
    return _tight_rows(row[::-1] for row in a.rows[::-1])
