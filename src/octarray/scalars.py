"""Exact scalar arithmetic and partition helpers.

Masses are non-negative rationals.  We keep integers as plain ints and only
fall back to Fraction when a value is genuinely fractional, so small examples
stay readable and fast.

read_scalar is the one grammar of exact numbers: an int, or a string "[-]p"
or "[-]p/q" in ASCII digits, read to its terms (p, q) in lowest terms.
parse_scalar makes an int or a Fraction of them; normalize reduces a Fraction
and hands every other value to parse_scalar, so the library constructors
raise the CLI's texts for a bad value, and the CLI's integer arguments are
read by parse_scalar too.  Scalars are checked where they enter an object:
by normalize in the Array, CornerFunction and TriangleFunction constructors,
one row at a time through checked_row, and by read_scalar when
serialize.decode_scaled reads a JSON array.  A row of exact ints passes in
one C-level type test; any other row is checked per value.

A rational array is an integer array over one common denominator D, the lcm
of the reduced denominators of its values (scale_rows), since condensation
and propagation commute with positive scaling.  The array commands of the
CLI read JSON straight into that form, run the int kernels and write each
value v / D with scaled_to_json, so they make no Fraction at all; the
library kernels divide back with unscale_rows.
"""

import re
import sys
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm

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


def read_scalar(x) -> tuple:
    """The terms (p, q) of a JSON-level scalar, q > 0 and in lowest terms:
    an int, or a string "[-]p" or "[-]p/q" in ASCII digits.  Decimal and
    exponent strings are rejected: "1e5000" would be a 5,001-digit integer."""
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
        raise ValidationError(f"bad scalar string {x!r}")
    raise ValidationError(f"bad scalar {x!r}")


def parse_scalar(x) -> Scalar:
    """A JSON-level scalar as an int, or a Fraction if it is not integral."""
    p, q = read_scalar(x)
    return p if q == 1 else Fraction(p, q)


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
    x = normalize(x)
    return x if isinstance(x, int) else scaled_to_json(x.numerator, x.denominator)


def _terms(x) -> tuple:
    """(numerator, denominator) of an exact scalar; the denominator is read
    first, so a value without one fails on it, as the lcm of the denominators
    did."""
    q = x.denominator
    return x.numerator, q


def scale_rows(rows, read=_terms):
    """Scale rows of exact scalars to integers: (D, scaled rows).

    read gives the terms (p, q) of a value, q > 0 and in lowest terms; by
    default its numerator and denominator.  Rows are read in order, and a
    row of exact ints is taken whole, with q = 1.  D is the lcm of the q
    (1 on integer input) and each scaled row is a tuple of ints, D times the
    original.  The piecewise-linear maps of condensation and propagation
    commute with this scaling, so they can run in ints and divide back once
    with unscale_rows.
    """
    rows = [tuple(row) for row in rows]
    terms = [None if set(map(type, row)) <= {int} else tuple(map(read, row))
             for row in rows]
    D = lcm(*{q for row in terms if row for _, q in row})
    return D, [row if D == 1 and t is None
               else tuple(x * D for x in row) if t is None
               else tuple(p * (D // q) for p, q in t)
               for row, t in zip(rows, terms)]


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
