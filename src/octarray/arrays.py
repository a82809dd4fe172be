"""Rectangular arrays of non-negative masses and their corner integrals.

An Array has n columns and m rows; rows are stored bottom to top, so
``rows[0]`` is the lowest row.  ``a.mass(i, j)`` uses the 1-based box
coordinates the rest of the package works in: column i in 1..n, row j in
1..m.

A CornerFunction is the double integral of an array: f(i, j) is the total
mass in columns 1..i and rows 1..j, so f vanishes on the axes and its mixed
second differences recover the array.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain

from .errors import ValidationError
from .scalars import Scalar, checked_row, normalize


@dataclass(frozen=True)
class Array:
    rows: tuple

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
        return sum(x for row in self.rows for x in row)

    def __repr__(self):
        return f"Array({list(list(r) for r in self.rows)!r})"


@dataclass(frozen=True)
class CornerFunction:
    """Values f(i, j) for 0 <= i <= n, 0 <= j <= m, zero on the axes."""

    values: tuple  # values[j][i]

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


def integrate(a: Array) -> CornerFunction:
    """Double integral: f(i, j) = sum of masses in columns <= i, rows <= j."""
    row = [0] * (a.n + 1)
    values = [row]
    for r in a.rows:
        row = [low + acc for low, acc in zip(row, accumulate(r, initial=0))]
        values.append(row)
    return CornerFunction(values)


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
                f"negative mixed difference {v if D == 1 else Fraction(v, D)} at "
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


def row_sums(a: Array) -> tuple:
    return tuple(sum(row) for row in a.rows)


def col_sums(a: Array) -> tuple:
    return tuple(sum(col) for col in zip(*a.rows))


def is_d_tight(a: Array) -> bool:
    """True iff every row pair (j, j+1) satisfies the partial-sum condition:
    mass of row j in columns < i dominates mass of row j+1 in columns <= i."""
    for j in range(a.m - 1):
        low, high = a.rows[j], a.rows[j + 1]
        acc_low = 0
        acc_high = 0
        for i in range(1, a.n + 1):
            acc_high += high[i - 1]
            if acc_low < acc_high:
                return False
            acc_low += low[i - 1]
    return True


def is_l_tight(a: Array) -> bool:
    return is_d_tight(transpose(a))


def is_r_tight(a: Array) -> bool:
    return is_l_tight(central_reverse(a))


def is_u_tight(a: Array) -> bool:
    return is_d_tight(central_reverse(a))
