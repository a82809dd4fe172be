"""The kernels against test-local reference definitions.

Each test draws its cases from a random.Random.  With hypothesis installed
the generator is drawn by hypothesis; without it, a seeded loop runs the
same test body.
"""

import random
from fractions import Fraction

import pytest

from octarray.arrays import Array, CornerFunction, integrate, mixed_derivative
from octarray.condense import condense_pair
from octarray.errors import ValidationError
from octarray.hives import TriangleFunction, extended_differences
from octarray.octahedron import or_row, or_step

CASES = 80

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


def scalar(rng, low=-9, high=9):
    """An int, a Fraction in lowest terms, or an integral Fraction left
    unnormalized (so that int and Fraction results can be told apart)."""
    kind = rng.randrange(3)
    if kind == 0:
        return rng.randint(low, high)
    if kind == 1:
        return Fraction(rng.randint(4 * low, 4 * high), rng.randint(1, 4))
    return Fraction(rng.randint(low, high))


def mass(rng, rational):
    return Fraction(rng.randint(0, 36), rng.randint(1, 4)) if rational else rng.randint(0, 9)


# -- or_step ------------------------------------------------------------------


@random_cases
def test_or_step_is_max_of_side_sums_minus_f0(rng):
    f0, fa, fa2, fb = (scalar(rng) for _ in range(4))
    # a tie between the two side sums in about half the cases
    fb2 = fa + fa2 - fb if rng.random() < 0.5 else scalar(rng)
    if rng.random() < 0.5:
        fb2 = Fraction(fb2) if isinstance(fb2, int) else fb2
    want = max(fa + fa2, fb + fb2) - f0
    got = or_step(f0, fa, fa2, fb, fb2)
    assert got == want
    assert type(got) is type(want)


def test_or_step_keeps_the_first_sum_on_ties():
    # int sum first, equal Fraction sum second: max keeps the int
    assert type(or_step(0, 1, 2, Fraction(1), Fraction(2))) is int
    assert type(or_step(0, Fraction(1), Fraction(2), 1, 2)) is Fraction


@random_cases
def test_or_row_is_the_point_rule_along_the_row(rng):
    """Every value or_row writes is max of its two side sums minus s[i - 1],
    read after the values before it are written, on ints and denominators
    up to 6; a tie in about a third of the points, its second sum an
    integral Fraction, keeps the first sum."""
    def value():
        return (rng.randint(-9, 9) if rng.random() < 0.5
                else Fraction(rng.randint(-30, 30), rng.randint(1, 6)))

    k = rng.randint(1, 9)
    start = rng.randint(1, k)
    t, s, u, w = ([value() for _ in range(k)] for _ in range(4))
    want = list(t)
    for i in range(start, k):
        if rng.random() < 1 / 3:
            w[i - 1] = Fraction(want[i - 1] + s[i] - u[i])
        want[i] = max(want[i - 1] + s[i], u[i] + w[i - 1]) - s[i - 1]
    or_row(t, s, u, w, start)
    assert t == want
    assert [type(x) for x in t] == [type(x) for x in want]


def test_or_row_keeps_the_first_sum_on_ties():
    t = [1, None]
    or_row(t, (0, 2), (None, Fraction(1)), (Fraction(2), None), 1)
    assert t == [1, 3] and type(t[1]) is int
    t = [Fraction(1), None]
    or_row(t, (0, Fraction(2)), (None, 1), (2, None), 1)
    assert t == [1, 3] and type(t[1]) is Fraction


# -- condense_pair ------------------------------------------------------------


def condense_pair_reference(u, v):
    """u'(1) + ... + u'(i) = U(i) + max_{k <= i} beta_k, beta_k = V(k) - U(k-1)."""
    n = len(u)
    U = [sum(u[:i]) for i in range(n + 1)]
    V = [sum(v[:i]) for i in range(n + 1)]
    F = [0] + [U[i] + max(V[k] - U[k - 1] for k in range(1, i + 1))
               for i in range(1, n + 1)]
    u_new = tuple(F[i] - F[i - 1] for i in range(1, n + 1))
    return u_new, tuple(x + y - z for x, y, z in zip(u, v, u_new))


@random_cases
def test_condense_pair_matches_the_reference(rng):
    rational = rng.random() < 0.5
    n = rng.choice([1, 1, 2, 3, 5, 8, 13])
    u = tuple(mass(rng, rational) for _ in range(n))
    v = tuple(mass(rng, rational) for _ in range(n))
    got = condense_pair(u, v)
    assert got == condense_pair_reference(u, v)
    if not rational:
        assert all(type(x) is int for row in got for x in row)


def test_condense_pair_checks_lengths_and_masses():
    with pytest.raises(ValidationError, match="rows of different length"):
        condense_pair((1, 2), (1,))
    # a negative input mass cannot be condensed into non-negative rows
    with pytest.raises(AssertionError, match="negative mass"):
        condense_pair((0,), (-1,))


# -- integrate and mixed_derivative -------------------------------------------


def mixed_derivative_reference(f):
    """Mixed differences in (j, i) order; the first negative one raises."""
    rows = []
    for j in range(1, f.m + 1):
        row = []
        for i in range(1, f.n + 1):
            v = f.value(i, j) - f.value(i - 1, j) - f.value(i, j - 1) + f.value(i - 1, j - 1)
            if v < 0:
                raise ValidationError(
                    f"negative mixed difference {v} at box ({i},{j}); "
                    "the function is not supermodular"
                )
            row.append(v)
        rows.append(row)
    return Array(rows)


def random_array(rng):
    rational = rng.random() < 0.5
    n, m = rng.randint(1, 6), rng.randint(1, 6)
    return Array([[mass(rng, rational) for _ in range(n)] for _ in range(m)])


@random_cases
def test_mixed_derivative_inverts_integrate(rng):
    a = random_array(rng)
    assert mixed_derivative(integrate(a)) == a


@random_cases
def test_mixed_derivative_reports_the_first_negative_box(rng):
    a = random_array(rng)
    values = [list(row) for row in integrate(a).values]
    for _ in range(rng.randint(1, 3)):
        i, j = rng.randint(1, a.n), rng.randint(1, a.m)
        values[j][i] += scalar(rng)
    f = CornerFunction(values)
    try:
        want = mixed_derivative_reference(f)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as got:
            mixed_derivative(f)
        assert str(got.value) == str(exc)
    else:
        assert mixed_derivative(f) == want


# -- extended_differences -----------------------------------------------------


def extended_differences_reference(t, n):
    vals = t.values

    def ext(j, k):
        return vals[k][min(j, k)]

    return [
        [ext(j, k) - ext(j - 1, k) - ext(j, k - 1) + ext(j - 1, k - 1)
         for j in range(1, n + 1)]
        for k in range(1, t.n + 1)
    ]


@random_cases
def test_extended_differences_matches_the_closure_definition(rng):
    size = rng.randint(0, 6)
    t = TriangleFunction([[scalar(rng) for _ in range(v + 1)] for v in range(size + 1)])
    for n in {max(size - 2, 0), max(size - 1, 0), size, size + 1, size + 3}:
        assert extended_differences(t.values, n) == extended_differences_reference(t, n)
