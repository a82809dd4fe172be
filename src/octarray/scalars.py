"""Exact scalar arithmetic and partition helpers.

Masses are non-negative rationals.  We keep integers as plain ints and only
fall back to Fraction when a value is genuinely fractional, so small examples
stay readable and fast.

read_scalar is the one reader of exact values: an int, a Fraction, or a
string "[-]p" or "[-]p/q" in ASCII digits, read to its terms (p, q) in
lowest terms.  parse_scalar (also bound as normalize) makes an int or a
Fraction of them, so the library and the CLI raise the same text for a bad
value, and the CLI's integer arguments are read by it too.  An error quotes
at most a few dozen characters of a bad value.

A rational grid is an integer grid over one common denominator D, the lcm
of the reduced denominators of its values, since integration, condensation
and propagation commute with positive scaling.  scale_rows is the one row
reader: it takes rows of exact ints whole, after one C-level type test, and
reads any other rows per value.  Every grid (an Array, a CornerFunction or
a TriangleFunction) reads its rows through it once and keeps the scaled
ints; a value is divided back only where it is read: unscale_rows makes
ints and Fractions, and scaled_to_json writes v / D as JSON with no
Fraction at all.
"""

import re
import sys
from fractions import Fraction
from itertools import accumulate, chain
from math import gcd, lcm

from .errors import ValidationError

Scalar = int | Fraction


_SCALAR_STRING = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def read_scalar(x) -> tuple:
    """The terms (p, q) of an exact scalar, q > 0 and in lowest terms: an
    int, a Fraction, or a string "[-]p" or "[-]p/q" in ASCII digits.
    Decimal and exponent strings are rejected: "1e5000" would be a
    5,001-digit integer."""
    if type(x) is int:
        return x, 1
    if isinstance(x, bool) or isinstance(x, float):
        raise ValidationError(f"inexact scalar not allowed: {x!r}")
    if isinstance(x, int):  # an int subclass, read as its plain int
        return int(x), 1
    if isinstance(x, str):
        try:
            if match := _SCALAR_STRING.fullmatch(x):
                p, q = match.groups()
                p, q = int(p), int(q or 1)
                if q:
                    g = gcd(p, q)
                    return p // g, q // g
        except ValueError:  # past the digit limit
            pass
        raise ValidationError(f"bad scalar string {_quoted(x)}")
    if isinstance(x, Fraction):  # after str: a string pays no ABC instance check
        return x.numerator, x.denominator
    raise ValidationError(f"bad scalar {_quoted(x)}")


def _quoted(x) -> str:
    """repr(x) with long strings, numbers and lists cut and deep nesting
    elided (reprlib), so an error quotes a few dozen characters at most."""
    import reprlib  # on the error path only: valid input pays no import

    return reprlib.repr(x)


def parse_scalar(x) -> Scalar:
    """An exact scalar as an int, or a Fraction if it is not integral."""
    p, q = read_scalar(x)
    return p if q == 1 else Fraction(p, q)


normalize = parse_scalar


def too_many_digits() -> ValidationError:
    """The error for an output integer past the int-to-str digit limit."""
    return ValidationError(
        f"an output integer has more than {sys.get_int_max_str_digits()} digits")


def scaled_to_json(v: int, D: int):
    """v / D in lowest terms as JSON: an int, or the string "p/q"."""
    g = gcd(v, D)
    if g == D:
        return v // D
    try:
        return f"{v // g}/{D // g}"
    except ValueError:  # a term past the interpreter's int-to-str digit limit
        raise too_many_digits() from None


def scalar_to_json(x: Scalar):
    if type(x) is int:
        return x
    return scaled_to_json(*read_scalar(x))


def scale_rows(rows):
    """Scale rows of exact scalars to integers: (D, scaled rows).

    Rows of exact ints only are taken whole, after one type test over all
    of them, with D = 1.  Otherwise every value is read by read_scalar, in
    row-major order, D is the lcm of the reduced denominators q and each
    value p / q becomes p * (D // q).  The scaled rows are a tuple of tuples
    of ints.  The piecewise-linear maps of condensation and propagation
    commute with this scaling, so they can run in ints and divide back once
    with unscale_rows.
    """
    rows = tuple(map(tuple, rows))
    if set(map(type, chain.from_iterable(rows))) <= {int}:
        return 1, rows
    terms = [tuple(map(read_scalar, row)) for row in rows]
    D = lcm(*{q for row in terms for _, q in row})
    return D, tuple(tuple(p * (D // q) for p, q in row) for row in terms)


def unscale_rows(rows, D: int):
    """Divide rows scaled by scale_rows back by D, into a tuple of tuples
    unless D = 1; integral values are ints."""
    if D == 1:
        return rows
    return tuple(tuple([v // D if v % D == 0 else Fraction(v, D) for v in row])
                 for row in rows)


def check_size(n, name: str) -> int:
    """n as a size: an exact int >= 0, as a declared size must be, or
    ValidationError naming it."""
    if type(n) is not int or n < 0:
        raise ValidationError(f"{name} must be an int >= 0, got {_quoted(n)}")
    return n


# -- integer partitions (weakly decreasing non-negative int tuples) ---------


def check_partition(p, name: str = "partition") -> tuple:
    """p as an integer partition: a tuple of exact ints, weakly decreasing
    and non-negative, or ValidationError naming it."""
    seq = tuple(normalize(x) for x in p)
    if any(x < y for x, y in zip(seq, seq[1:])) or (seq and seq[-1] < 0):
        k = next(k for k, x in enumerate(seq) if x < 0 or k and x > seq[k - 1])
        at = f" at part {k}: {_quoted(seq[k])}" if k >= 6 else ""  # past the quote's cut
        raise ValidationError(f"{name} is not weakly decreasing non-negative: "
                              f"{_quoted(seq)}{at}")
    if any(type(x) is not int for x in seq):
        raise ValidationError(f"{name} must be an integer partition")
    return seq


def pad_partitions(*parts) -> tuple:
    """Check integer partitions and pad them with zeros to a common length,
    at least 1."""
    parts = [check_partition(p, f"argument {k}") for k, p in enumerate(parts)]
    n = max(max(len(p) for p in parts), 1)
    return tuple(p + (0,) * (n - len(p)) for p in parts)


def partial_sums(seq) -> tuple:
    """(0, s1, s1+s2, ...) -- partial sums with a leading zero."""
    return tuple(accumulate(seq, initial=0))


def trim(p) -> tuple:
    """Drop trailing zeros, for comparing shapes of different widths."""
    seq = list(p)
    while seq and seq[-1] == 0:
        seq.pop()
    return tuple(seq)
