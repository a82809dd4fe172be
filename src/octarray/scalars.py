"""Exact scalar arithmetic and partition helpers.

Masses are non-negative rationals.  We keep integers as plain ints and only
fall back to Fraction when a value is genuinely fractional, so small examples
stay readable and fast.

Scalars are checked where they enter an object: by normalize in the Array,
CornerFunction and TriangleFunction constructors and by parse_scalar in
serialize.decode, one row at a time through checked_row.  A row of exact
ints (in Array, a whole array of them) passes in one C-level type test; any
other row is checked per value.
parse_scalar is the one grammar of exact numbers: an int, or a string
"[-]p" or "[-]p/q" in ASCII digits.  normalize reduces a Fraction and hands
every other value to parse_scalar, so the library constructors raise the
CLI's texts for a bad value, and the CLI's integer arguments are read by
parse_scalar too.  Fractions are made only when a "p/q" string is decoded
and when a kernel divides its int output back (unscale_rows); the kernels'
tightness checks and differences run on ints.
"""

import re
from fractions import Fraction
from itertools import accumulate, chain
from math import lcm

from .errors import ValidationError

Scalar = int | Fraction


def checked_row(row, check) -> tuple:
    """The row as a tuple, with check applied per value unless all are exact ints."""
    row = tuple(row)
    return row if set(map(type, row)) <= {int} else tuple(map(check, row))


def normalize(x) -> Scalar:
    """Coerce x to an int or a Fraction in lowest terms: a Fraction is
    reduced here, any other value is read by parse_scalar."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    return parse_scalar(x)


_SCALAR_STRING = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def parse_scalar(x) -> Scalar:
    """Parse a JSON-level scalar: an int, or a string "[-]p" or "[-]p/q" in
    ASCII digits.  Decimal and exponent strings are rejected: "1e5000" would
    be a 5,001-digit integer."""
    if isinstance(x, bool) or isinstance(x, float):
        raise ValidationError(f"inexact scalar not allowed: {x!r}")
    if isinstance(x, int):
        return x
    if isinstance(x, str):
        try:
            if match := _SCALAR_STRING.fullmatch(x):
                p, q = match.groups()
                return int(p) if q is None else normalize(Fraction(int(p), int(q)))
        except (ValueError, ZeroDivisionError):  # past the digit limit, or q = 0
            pass
        raise ValidationError(f"bad scalar string {x!r}")
    raise ValidationError(f"bad scalar {x!r}")


def scalar_to_json(x: Scalar):
    if type(x) is int:
        return x
    x = normalize(x)
    return x if isinstance(x, int) else f"{x.numerator}/{x.denominator}"


def scale_rows(rows):
    """Scale rows of exact scalars to integers: (D, scaled rows).

    D is the lcm of the denominators (1 on integer input) and each scaled
    row is a tuple of ints, D times the original.  The piecewise-linear maps
    of condensation and propagation commute with this scaling, so they can
    run in ints and divide back once with unscale_rows.
    """
    if set(map(type, chain.from_iterable(rows))) <= {int}:
        return 1, [tuple(row) for row in rows]
    D = lcm(*(x.denominator for row in rows for x in row))
    return D, [tuple(x.numerator * (D // x.denominator) for x in row) for row in rows]


def unscale_rows(rows, D: int):
    """Divide rows scaled by scale_rows back by D; integral values are ints."""
    if D == 1:
        return rows
    return [[v // D if v % D == 0 else Fraction(v, D) for v in row] for row in rows]


def is_integral(x: Scalar) -> bool:
    return isinstance(x, int) or x.denominator == 1


# -- partitions (weakly decreasing non-negative tuples) ----------------------


def check_partition(p, name: str = "partition") -> tuple:
    seq = tuple(normalize(x) for x in p)
    if any(x < y for x, y in zip(seq, seq[1:])) or (seq and seq[-1] < 0):
        raise ValidationError(f"{name} is not weakly decreasing non-negative: {seq}")
    return seq


def partial_sums(seq) -> tuple:
    """(0, s1, s1+s2, ...) -- partial sums with a leading zero."""
    return tuple(accumulate(seq, initial=0))


def trim(p) -> tuple:
    """Drop trailing zeros, for comparing shapes of different widths."""
    seq = list(p)
    while seq and seq[-1] == 0:
        seq.pop()
    return tuple(seq)
