"""The condensations against Schensted insertion (tests/tableau_oracles.py),
which shares no code or formula with them.

An array is the multiplicity form of words: row j holds the letter i
a(i, j) times.
- Inserting the rows top row first, each left to right, gives the tableau
  whose array is condense_down(a), the first half of rsk (Knuth 1970).
  Reading the rows bottom first instead disagrees on about two thirds of
  random arrays, so the reading order is part of the identity.
- Inserting the rows bottom row first, each reversed, and recording each
  box by the row of its letter, gives a recording tableau whose array is
  the transpose of condense_left(a), the second half of rsk.
- Evacuating the tableau of a down-tight array gives the tableau of
  schutzenberger(a), and the commutor through three evacuations gives
  commute_sp on standard pairs: Henriques-Kamnitzer's formula, computed with
  no condensation.
Rational arrays are checked through their state, the ints over D: the
condensations commute with positive scaling.
"""

import random
from fractions import Fraction
from math import lcm

from octarray import Array, commute_sp, condense_down, rsk, schutzenberger, transpose
from octarray.checks import random_array, random_standard_pair
from tableau_oracles import evacuation, insertion, three_evacuations


def _top_first(rows) -> list:
    """The words of the rows, top row first, each read left to right."""
    return [(j, [i for i, k in enumerate(row, 1) for _ in range(k)])
            for j, row in reversed(list(enumerate(rows, 1)))]


def _bottom_first_reversed(rows) -> list:
    """The words of the rows, bottom row first, each row reversed."""
    return [(j, [i for i, k in enumerate(row[::-1], 1) for _ in range(k)])
            for j, row in enumerate(rows, 1)]


def _array(T, n: int, m: int) -> tuple:
    """The m rows of n multiplicities of the tableau T, bottom row first."""
    out = [[0] * n for _ in range(m)]
    for row, letters in zip(out, T):
        for x in letters:
            row[x - 1] += 1
    return tuple(map(tuple, out))


def _schensted_rsk(rows, n: int, m: int) -> tuple:
    """The rows of (condense_down, transpose of condense_left) by insertion."""
    P, _ = insertion(_top_first(rows))
    _, Q = insertion(_bottom_first_reversed(rows))
    return _array(P, n, m), _array(Q, m, n)


def test_condense_down_and_rsk_are_schensted_insertion_on_integer_arrays():
    rng = random.Random(9)
    for _ in range(2000):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.randint(0, 3) for _ in range(n)] for _ in range(m)]
        a = Array(rows)
        down, left_t = _schensted_rsk(rows, n, m)
        d, l = rsk(a)
        assert (condense_down(a).rows, d.rows, transpose(l).rows) == (down, down, left_t), rows


def test_condense_down_and_rsk_are_schensted_insertion_on_rational_arrays():
    rng = random.Random(10)
    for _ in range(300):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        a = random_array(rng, n, m, 2, 4)
        down, left_t = _schensted_rsk(a.ints, n, m)
        over_D = lambda rows: Array([[Fraction(x, a.D) for x in row] for row in rows])
        d, l = rsk(a)
        assert (condense_down(a), d, transpose(l)) == (
            over_D(down), over_D(down), over_D(left_t)), a


def test_reading_the_rows_bottom_first_is_not_condense_down():
    rng = random.Random(11)
    differ = 0
    for _ in range(300):
        n, m = rng.randint(2, 6), rng.randint(2, 6)
        rows = [[rng.randint(0, 3) for _ in range(n)] for _ in range(m)]
        P, _ = insertion(_top_first(rows[::-1]))
        differ += _array(P, n, m) != condense_down(Array(rows)).rows
    assert differ > 100


def _letters(rows) -> list:
    """The letter rows of an array: row j lists letter i a(i, j) times."""
    return [[i for i, k in enumerate(row, 1) for _ in range(k)] for row in rows]


def _evacuated(ints, n: int) -> tuple:
    return _array(evacuation(_letters(ints), n), n, len(ints))


def test_schutzenberger_is_evacuation_on_integer_arrays():
    rng = random.Random(12)
    for _ in range(2000):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        a = condense_down(random_array(rng, n, m, 3))
        assert schutzenberger(a).rows == _evacuated(a.ints, n), a


def test_schutzenberger_is_evacuation_on_rational_arrays():
    rng = random.Random(13)
    for _ in range(200):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        a = condense_down(random_array(rng, n, m, 2, 4))
        over_D = Array([[Fraction(x, a.D) for x in row] for row in _evacuated(a.ints, n)])
        assert schutzenberger(a) == over_D, a


def _commuted(p) -> tuple:
    """The blocks of commute_sp(p) by three evacuations, as ints over the
    lcm D of the blocks' denominators, and D."""
    D, n = lcm(p.a.D, p.b.D), p.n
    A, B = ([[x * (D // block.D) for x in row] for row in block.ints] for block in (p.a, p.b))
    first, second = three_evacuations(_letters(A), _letters(B), n)
    return _array(first, n, n), _array(second, n, n), D


def test_commute_sp_is_three_evacuations_on_integer_pairs():
    rng = random.Random(14)
    for k in range(500):
        p = random_standard_pair(rng, 2 + k % 4)
        q = commute_sp(p)
        assert (q.a.rows, q.b.rows, 1) == _commuted(p), p


def test_commute_sp_is_three_evacuations_on_rational_pairs():
    rng = random.Random(15)
    for k in range(60):
        p = random_standard_pair(rng, 2 + k % 2, 2, 3)
        first, second, D = _commuted(p)
        over_D = lambda rows: Array([[Fraction(x, D) for x in row] for row in rows])
        q = commute_sp(p)
        assert (q.a, q.b) == (over_D(first), over_D(second)), p
