"""rsk, rsk_inverse and condense_down on rational arrays against test-local
Fraction references.

The kernels scale rational masses to ints once, take tightness checks and
mixed differences on the ints, and divide back only the masses they return.
The references here run the same maps with Fractions: the ceiling and wall
divided back, then CornerFunction and mixed_derivative; both tightness scans
on the Fraction arrays; condensation by repeated sweeps of condense_pair.
Values, the type of every value and error texts must agree, and a guard test
shows the kernels add and subtract no Fractions at all.
"""

import random
from fractions import Fraction

import pytest

from octarray.arrays import (
    Array,
    CornerFunction,
    _mixed_differences,
    integrate,
    is_d_tight,
    is_l_tight,
    mixed_derivative,
)
from octarray.condense import condense_down, condense_pair
from octarray.errors import ValidationError
from octarray.hives import TriangleFunction, extended_differences
from octarray.octahedron import or_step, prism_propagate, rsk, rsk_inverse
from octarray.scalars import scale_rows, unscale_rows

CASES = 320


def rational_array(rng, max_side=8, max_denom=12):
    """An n x m array, 1 <= n, m <= max_side, of masses k/q with q <= max_denom;
    about a third of the arrays are sparse (most boxes empty)."""
    n, m = rng.randint(1, max_side), rng.randint(1, max_side)
    fill = rng.choice([0.2, 1.0, 1.0])
    return Array([[Fraction(rng.randint(0, 3 * max_denom), rng.randint(1, max_denom))
                   if rng.random() < fill else 0 for _ in range(n)] for _ in range(m)])


def outcome(fn, *args):
    """('returned', rows, types of the rows' values) or ('raised', type, text)."""
    try:
        rows = fn(*args).rows
    except Exception as exc:  # noqa: BLE001 -- the exception is the result
        return "raised", type(exc), str(exc)
    return "returned", rows, [[type(x) for x in row] for row in rows]


# -- the Fraction references -----------------------------------------------------


def rsk_reference(a):
    """Ceiling and wall divided back to Fractions before their differences."""
    n, m = a.n, a.m
    D, rows = scale_rows(a.rows)
    F = prism_propagate(Array(rows)).values
    ceiling = unscale_rows([[F[x, y, m] for x in range(n + 1)] for y in range(m + 1)], D)
    wall = unscale_rows([[F[n, y, z] for y in range(z + 1)] for z in range(m + 1)], D)
    d = mixed_derivative(CornerFunction(ceiling))
    l = Array(extended_differences(TriangleFunction(wall).values, n))
    return d, l


def rsk_inverse_reference(d, l):
    """Both tightness scans on the Fraction arrays, the backward propagation
    in ints, the slope divided back before its differences."""
    if d.n != l.n or d.m != l.m:
        raise ValidationError("condensation sizes differ")
    if not is_d_tight(d):
        raise ValidationError("first argument is not tight downwards")
    if not is_l_tight(l):
        raise ValidationError("second argument is not tight leftwards")
    n, m = d.n, d.m
    D, rows = scale_rows(d.rows + l.rows)
    fd = integrate(Array(rows[:m])).values
    fl = integrate(Array(rows[m:])).values
    for j in range(m + 1):
        if fd[j][n] != fl[m][min(j, n)]:
            raise ValidationError("condensations disagree on the shared edge")
    F = {(x, y, m): fd[y][x] for y in range(m + 1) for x in range(n + 1)}
    for z in range(m + 1):
        for y in range(z + 1):
            F[n, y, z] = fl[z][min(y, n)]
        for x in range(n + 1):
            F[x, 0, z] = 0
    for z in range(m, 0, -1):
        for y in range(1, z):
            for x in range(n, 0, -1):
                F[x - 1, y, z - 1] = or_step(F[x, y, z], F[x - 1, y, z], F[x, y, z - 1],
                                             F[x, y + 1, z], F[x - 1, y - 1, z - 1])
    if any(F[0, y, z] != 0 for z in range(m + 1) for y in range(z + 1)):
        raise ValidationError(
            "recovered shadow face is non-zero; the condensations are "
            "not a matching pair"
        )
    slope = [[F[x, y, y] for x in range(n + 1)] for y in range(m + 1)]
    return mixed_derivative(CornerFunction(unscale_rows(slope, D)))


def condense_down_reference(a):
    """Sweeps of condense_pair over the Fraction rows, bottom to top, until tight."""
    rows = [tuple(r) for r in a.rows]
    for _ in range(len(rows) ** 2 + 1):
        if is_d_tight(Array(rows)):
            return Array(rows)
        for j in range(len(rows) - 1):
            rows[j], rows[j + 1] = condense_pair(rows[j], rows[j + 1])
    raise AssertionError("sweeps did not reach a tight array")


# -- identity ------------------------------------------------------------------------


def perturbed(rng, a):
    """a with a mass 1/q moved from a non-empty box to another box."""
    rows = [list(r) for r in a.rows]
    boxes = [(j, i) for j, r in enumerate(rows) for i, x in enumerate(r)]
    full = [(j, i) for j, i in boxes if rows[j][i] > 0]
    if not full or len(boxes) < 2:
        return a
    src = rng.choice(full)
    dst = rng.choice([b for b in boxes if b != src])
    step = min(rows[src[0]][src[1]], Fraction(1, rng.randint(1, 12)))
    rows[src[0]][src[1]] -= step
    rows[dst[0]][dst[1]] += step
    return Array(rows)


def test_rsk_rsk_inverse_and_condense_down_match_the_fraction_references():
    rng = random.Random(12)
    errors = set()
    for _ in range(CASES):
        a = rational_array(rng)
        assert outcome(condense_down, a) == outcome(condense_down_reference, a), a
        d, l = rsk(a)
        want_d, want_l = rsk_reference(a)
        assert outcome(lambda: d) == outcome(lambda: want_d), a
        assert outcome(lambda: l) == outcome(lambda: want_l), a
        assert outcome(rsk_inverse, d, l) == outcome(rsk_inverse_reference, d, l), a
        assert rsk_inverse(d, l) == a

        b = rational_array(rng)
        if (b.n, b.m) == (a.n, a.m):
            b = perturbed(rng, b)
        bd, bl = rsk(b)
        for pair in ((d, bl), (bd, l), (l, d), (perturbed(rng, d), l),
                     (d, perturbed(rng, l)), (perturbed(rng, d), perturbed(rng, l))):
            got = outcome(rsk_inverse, *pair)
            assert got == outcome(rsk_inverse_reference, *pair), pair
            if got[0] == "raised":
                errors.add(got[2])
    # the checks the mismatched, swapped and perturbed pairs reach
    assert {"condensation sizes differ",
            "first argument is not tight downwards",
            "second argument is not tight leftwards",
            "condensations disagree on the shared edge"} <= errors, errors


def shaped_array(rng, n, m, max_denom):
    """An n x m array of masses k/q with q <= max_denom."""
    return Array([[Fraction(rng.randint(0, 3 * max_denom), rng.randint(1, max_denom))
                   for _ in range(n)] for _ in range(m)])


def test_rsk_inverse_matches_the_per_point_reference_on_every_shape():
    """The backward fill, one row per call on layers turned in x and on the
    short side, against the reference's point-by-point fill of the whole
    prism: tall, wide and square arrays, 1 x k and k x 1, integer and
    rational, with the values, their types and the error texts of
    mismatched, swapped and perturbed pairs."""
    rng = random.Random(30)
    shapes = [(1, 1), (1, 6), (6, 1), (2, 7), (7, 2), (3, 5), (5, 3), (4, 4), (6, 6)]
    errors = set()
    for n, m in shapes:
        for max_denom in (1, 1, 4, 6):
            a, b = shaped_array(rng, n, m, max_denom), shaped_array(rng, n, m, max_denom)
            (d, l), (bd, bl) = rsk(a), rsk(b)
            other = rsk(shaped_array(rng, n + 1, m, max_denom))[1]
            for pair in ((d, l), (d, bl), (bd, l), (l, d), (d, other),
                         (perturbed(rng, d), l), (d, perturbed(rng, l))):
                got = outcome(rsk_inverse, *pair)
                assert got == outcome(rsk_inverse_reference, *pair), (n, m, pair)
                errors.add(got[2] if got[0] == "raised" else "returned")
            assert rsk_inverse(d, l) == a
    assert errors == {"returned", "condensation sizes differ",
                      "first argument is not tight downwards",
                      "second argument is not tight leftwards",
                      "condensations disagree on the shared edge"}, errors


def test_a_rational_negative_mixed_difference_is_quoted_unscaled():
    rng = random.Random(3)
    raised = 0
    for _ in range(CASES):
        a = rational_array(rng)
        values = [list(r) for r in integrate(a).values]
        j, i = rng.randint(1, a.m), rng.randint(1, a.n)
        values[j][i] -= Fraction(rng.randint(1, 40), rng.randint(1, 12))
        f = CornerFunction(values)
        D, scaled = scale_rows(f.values)
        got = outcome(lambda: Array(unscale_rows(_mixed_differences(scaled, D), D)))
        assert got == outcome(mixed_derivative, f), f
        raised += got[0] == "raised"
    assert raised > CASES // 2
    f = CornerFunction([[0, 0, 0], [0, Fraction(-1, 3), 0], [0, 0, 0]])
    message = "negative mixed difference -1/3 at box (1,1); the function is not supermodular"
    with pytest.raises(ValidationError) as exc:
        mixed_derivative(f)
    assert str(exc.value) == message
    with pytest.raises(ValidationError) as exc:
        _mixed_differences([[0, 0, 0], [0, -1, 0], [0, 0, 0]], 3)
    assert str(exc.value) == message


# -- no Fraction arithmetic in the kernels ----------------------------------------


def test_the_kernels_add_and_subtract_no_fractions(monkeypatch):
    rng = random.Random(7)
    cases = []
    for _ in range(60):
        a = rational_array(rng, max_side=6)
        cases.append((a, rsk(a), condense_down(a)))

    def refuse(*args):
        raise AssertionError("Fraction arithmetic in a scaled kernel")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__"):
        monkeypatch.setattr(Fraction, name, refuse)
    with pytest.raises(AssertionError):
        Fraction(1, 2) + 1
    for a, (d, l), down in cases:
        assert rsk(a) == (d, l)
        assert rsk_inverse(d, l) == a
        assert condense_down(a) == down
