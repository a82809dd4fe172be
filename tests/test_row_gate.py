"""The scalar row gate against test-local copies of the per-value loops it
replaced.

Array, CornerFunction, TriangleFunction and serialize.decode take exact ints
after one type test (over the whole array for Array, per row for the
others) and read every other value one by one.  Each test draws rows that
mix ints (negatives too) with bools, integral and proper Fractions, "p/q"
strings, "1/0", floats, None and an int subclass, and asserts the same
values, the same type per value, and the same exception type and text as
the per-value loops.  With hypothesis installed the
generator is drawn by hypothesis; without it, a seeded loop runs the same
test body.
"""

import random
from fractions import Fraction
from math import lcm

from octarray import serialize
from octarray.arrays import Array, CornerFunction
from octarray.errors import ValidationError
from octarray.hives import TriangleFunction
from octarray.scalars import (
    normalize,
    parse_scalar,
    read_scalar,
    scalar_to_json,
    scale_rows,
    unscale_rows,
)

CASES = 300

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # seeded loops instead
    def random_cases(test):
        def run():
            for seed in range(CASES):
                test(random.Random(seed))

        run.__name__ = test.__name__
        return run
else:
    def random_cases(test):
        return settings(max_examples=CASES, deadline=None, database=None)(
            given(st.randoms(use_true_random=False))(test))


class Mass(int):
    """An int subclass: never taken for a plain int by the gate."""


ODD = [True, False, Fraction(4, 1), Fraction(1, 3), Fraction(-2, 3), "3/4",
       "8/2", "p/q", "1/0", 2.0, 0.5, None, Mass(3), Mass(-1)]


def row(rng, width):
    """A row of ints; some rows hold negatives, and some one odd value."""
    low = -2 if rng.random() < 0.2 else 0
    out = [rng.randint(low, 9) for _ in range(width)]
    if out and rng.random() < 0.4:
        out[rng.randrange(width)] = rng.choice(ODD)
    return out


def grid(rng, shape):
    n, m = rng.randint(0, 4), rng.randint(0, 4)
    if shape == "triangle":
        rows = [row(rng, v + 1) for v in range(m + 1)]
    else:
        rows = [row(rng, n) for _ in range(m)]
    if shape == "corner":  # mostly zero on the axes, so that most pass
        for j, r in enumerate(rows):
            for i in range(len(r)):
                if (i == 0 or j == 0) and rng.random() < 0.9:
                    r[i] = 0
    return rows


def outcome(fn, *args):
    try:
        got = fn(*args)
    except Exception as exc:  # noqa: BLE001 -- the exception is the result
        return "raised", type(exc), str(exc)
    return "returned", got, typed(got)


def typed(value):
    """The types inside nested tuples and lists, for comparing with ==."""
    if isinstance(value, (tuple, list)):
        return [typed(x) for x in value]
    return type(value)


def rows_of(rows, as_iter):
    """Fresh row iterables: the lists themselves, or one-shot iterators."""
    return [iter(r) if as_iter else list(r) for r in rows]


# -- the per-value loops the gate replaced -------------------------------------


def array_by_values(rows):
    rows = tuple(tuple(normalize(x) for x in row) for row in rows)
    if not rows or not rows[0]:
        raise ValidationError("array must have at least one row and column")
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise ValidationError("ragged array")
    for row in rows:
        for x in row:
            if x < 0:
                raise ValidationError(f"negative mass {x}")
    return rows


def corner_by_values(values):
    values = tuple(tuple(normalize(x) for x in row) for row in values)
    if len(values) < 2 or len(values[0]) < 2:
        raise ValidationError("corner function needs at least a 1x1 grid")
    width = len(values[0])
    if any(len(row) != width for row in values):
        raise ValidationError("ragged corner function")
    if any(x != 0 for x in values[0]) or any(row[0] != 0 for row in values):
        raise ValidationError("corner function must vanish on the axes")
    return values


def triangle_by_values(values):
    values = tuple(tuple(normalize(x) for x in row) for row in values)
    if not values or len(values[0]) != 1:
        raise ValidationError("triangle rows must start with a single apex value")
    for v, row in enumerate(values):
        if len(row) != v + 1:
            raise ValidationError(f"triangle row {v} has {len(row)} entries")
    return values


def parsed_by_values(rows):
    return [[parse_scalar(x) for x in row] for row in rows]


def scalar_to_json_by_value(x):
    x = normalize(x)
    return x if isinstance(x, int) else f"{x.numerator}/{x.denominator}"


def scale_rows_by_values(rows):
    terms = [[read_scalar(x) for x in row] for row in rows]
    D = lcm(*(q for row in terms for _, q in row))
    return D, tuple(tuple(p * (D // q) for p, q in row) for row in terms)


# -- the tests --------------------------------------------------------------------


@random_cases
def test_constructors_match_the_per_value_loops(rng):
    for shape, cls, attr, by_values in (
        ("array", Array, "rows", array_by_values),
        ("corner", CornerFunction, "values", corner_by_values),
        ("triangle", TriangleFunction, "values", triangle_by_values),
    ):
        rows = grid(rng, shape)
        as_iter = rng.random() < 0.2
        got = outcome(lambda r: getattr(cls(r), attr), rows_of(rows, as_iter))
        want = outcome(by_values, rows_of(rows, as_iter))
        assert got == want, (shape, rows)


@random_cases
def test_decode_matches_the_per_value_loops(rng):
    for shape, by_values, attr in (("array", array_by_values, "rows"),
                                   ("triangle", triangle_by_values, "values")):
        rows = grid(rng, shape)
        got = outcome(lambda: getattr(serialize.decode(
            {"type": shape, "rows": rows}), attr))
        want = outcome(lambda: by_values(parsed_by_values(rows)))
        assert got == want, (shape, rows)


@random_cases
def test_scalar_to_json_and_scaling_match_the_per_value_loops(rng):
    rows = grid(rng, "array")
    for x in (x for r in rows for x in r):
        assert outcome(scalar_to_json, x) == outcome(scalar_to_json_by_value, x), x
    assert outcome(scale_rows, rows) == outcome(scale_rows_by_values, rows), rows
    # on checked rows, dividing back gives the rows, with integral values as
    # ints (the per-value path divided to Fractions and normalized them)
    try:
        rows = Array(rows).rows
    except (ValidationError, ValueError, ZeroDivisionError):
        return
    D, scaled = scale_rows(rows)
    back = [list(r) for r in unscale_rows(scaled, D)]
    want = [[normalize(Fraction(v, D)) for v in r] for r in scaled]
    assert (back, typed(back)) == (want, typed(want))
    assert back == [list(r) for r in rows]


def test_negative_mass_names_the_first_in_row_major_order():
    for rows, first in (([[0, 1], [2, -3]], -3),
                        ([[4, -1, -2], [-5, 0, 0]], -1),
                        ([[Fraction(1, 2), Fraction(-1, 3)], [-1, 0]], Fraction(-1, 3))):
        try:
            Array(rows)
        except ValidationError as exc:
            assert str(exc) == f"negative mass {first}"
        else:
            raise AssertionError(f"{rows} was accepted")

