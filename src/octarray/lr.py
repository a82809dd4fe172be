"""Littlewood-Richardson numbers three ways: integer hives, integer standard
pairs, and a direct count of skew tableaux with Yamanouchi reading word.

The first two are tied together by the pair/hive correspondence and must
always agree; the tableau count is an independent oracle used by the tests.
This module only counts: the checks that the commuter and the associator
are bijections between such sets are suites in checks.
"""

from functools import cache

# is_l_tight and is_discrete_concave are unused here but bound for the
# benchmark's tracer, which counts lr's search candidates by them (ROADMAP item 1)
from .arrays import Array, _tight_rows, diag, is_l_tight
from .errors import ValidationError
from .hives import StandardPair, TriangleFunction, _rhombus_rules, is_discrete_concave
from .scalars import check_partition, pad_partitions, partial_sums


def _integer_type(lam, mu, nu):
    """Validate an LR type: three integer partitions of equal length."""
    lam = check_partition(lam, "lam")
    mu = check_partition(mu, "mu")
    nu = check_partition(nu, "nu")
    if len(lam) != len(nu) or len(mu) != len(nu):
        raise ValidationError("the three partitions must have equal length")
    return lam, mu, nu


@cache
def _hive_plan(n):
    """The hive search plan of size n, built once and holding no values:
    (size, sides, interior, lows, highs, fixed) over the flat slots, (u, v)
    at v(v+1)/2 + u.  sides[k] holds the slots of (0, k), (k, n) and (k, k);
    interior is the search order; lows[i] and highs[i] hold the triples
    (a, b, c) with a + b - c bounding slot i below and above; fixed holds
    the rhombi with no interior corner as (a, b, c, d), a + b >= c + d (only
    n = 2 has any).  Each rhombus of hives._rhombus_rules has coefficient
    +-1 in each corner, so it bounds the corner filled last: from below if
    that corner is on the larger side, from above if not.  So every
    interior point has a type (i) lower and a type (ii) upper bound, and
    every filling within the bounds is a hive.
    """
    at = {(u, v): v * (v + 1) // 2 + u for v in range(n + 1) for u in range(v + 1)}
    sides = tuple((at[0, k], at[k, n], at[k, k]) for k in range(n + 1))
    interior = tuple(at[u, v] for v in range(2, n) for u in range(1, v))
    inside = set(interior)
    lows, highs, fixed = [[] for _ in at], [[] for _ in at], []
    for _, e1, e2, e3, outer in _rhombus_rules((1, 0), (0, 1)):
        for u, v in at:
            q = [at.get((u + du, v + dv)) for du, dv in ((0, 0), e1, e2, e3)]
            if None in q:
                continue
            big, small = (q[::3], q[1:3]) if outer else (q[1:3], q[::3])
            filled = [i for i in q if i in inside]
            if not filled:
                fixed.append((*big, *small))
                continue
            last = max(filled)  # the corner the search fills last
            same, other = (big, small) if last in big else (small, big)
            rest = same[1] if same[0] == last else same[0]
            # last >= other[0] + other[1] - rest on the larger side, <= on the other
            (lows if same is big else highs)[last].append((*other, rest))
    lows, highs = tuple(map(tuple, lows)), tuple(map(tuple, highs))
    return len(at), sides, interior, lows, highs, tuple(fixed)


def _hives(lam, mu, nu):
    """(hives, entered) for a checked type: each integer hive with boundary
    increments (lam, mu, nu) as the flat tuple of its rows, the point (u, v)
    at v(v+1)/2 + u, and the number of times the search entered a point.

    The boundary is forced and the rhombi on it alone are checked first;
    interior points are then filled in the order of _hive_plan(n), lowest
    value first, with an explicit stack, so the hives come out sorted.
    """
    n = len(nu)
    if sum(lam) + sum(mu) != sum(nu):
        return [], 0
    size, sides, interior, lows, highs, fixed = _hive_plan(n)
    vals = [0] * size
    for (p, q, r), l, m, x in zip(sides, *map(partial_sums, (lam, mu, nu))):
        vals[p], vals[q], vals[r] = l, sum(lam) + m, x
    if any(vals[a] + vals[b] < vals[c] + vals[d] for a, b, c, d in fixed):
        return [], 0
    found, entered = [], 0
    tops = [None] * len(interior)  # the stack: upper bounds of points 0..k
    k = 0
    while k >= 0:
        if k == len(interior):  # a complete filling, and so a hive
            found.append(tuple(vals))
            k -= 1
            continue
        i = interior[k]
        if tops[k] is None:  # entering the point: its bounds, lowest value first
            entered += 1
            vals[i] = max([vals[a] + vals[b] - vals[c] for a, b, c in lows[i]])
            tops[k] = min([vals[a] + vals[b] - vals[c] for a, b, c in highs[i]])
        else:
            vals[i] += 1
        if vals[i] > tops[k]:  # point exhausted: back to the previous one
            tops[k] = None
            k -= 1
        else:
            k += 1
    return found, entered


def enumerate_hives(lam, mu, nu):
    """All integer hives with boundary increments (lam, mu, nu), as
    TriangleFunctions in lexicographic order of their rows.  Every rhombus
    inequality bounds the search (_hives), so it completes no filling that
    is not a hive, and none is checked again."""
    lam, mu, nu = _integer_type(lam, mu, nu)
    starts = [v * (v + 1) // 2 for v in range(len(nu) + 1)]
    return [TriangleFunction._built(1, tuple(h[s:s + v + 1] for v, s in enumerate(starts)))
            for h in _hives(lam, mu, nu)[0]]


def _standard_pairs(lam, mu, nu):
    """(a, bs): the first component of every standard pair of a checked type
    (lam, mu, nu), the diagonal of lam, and the list of second components.

    These range over the integer arrays with column sums mu, row sums
    nu - lam and support on or above the diagonal, filtered by the two
    tightness conditions.  The cells are filled row by row, smallest value
    first, with an explicit stack.  Both conditions on rows up to j are
    checked as row j closes, so every filling completed is a pair: the row
    scan of concat(a, b) on rows j - 1 and j, and that of b's columns at
    row j, which for c < j reads sum_{r<=j} b[r][c+1] <= sum_{r<j} b[r][c]
    off the column masses placed so far (mu - col_left).
    """
    n = len(nu)
    a = diag(lam)
    rsums = [nu[j] - lam[j] for j in range(n)]
    if any(r < 0 for r in rsums) or sum(mu) != sum(rsums):
        return a, []
    results = []
    arows = [list(row) for row in a.ints]
    rows = [[0] * n for _ in range(n)]
    col_left = list(mu)
    # row j (0-based, bottom to top) has mass in columns i <= j only; its
    # diagonal cell closes the row and takes whatever the row has left
    cells = [(j, i) for j in range(n) for i in range(j + 1)]
    vals = [-1] * len(cells)  # the stack: values of cells 0..k, -1 = untried
    row_left = rsums[0]  # mass the current row has still to place
    k = 0
    while k >= 0:
        j, i = cells[k]
        x = vals[k]
        if x >= 0:  # take back the value last tried in this cell
            col_left[i] += x
            row_left += x
        if i < j:
            x += 1
            if i == j - 1 and x < row_left - col_left[j]:
                x = row_left - col_left[j]  # what the diagonal cell takes must fit
            ok = x <= row_left and x <= col_left[i]
        else:
            ok = x < 0 and row_left <= col_left[i]
            x = row_left
        if not ok:  # cell exhausted: back to the previous one
            vals[k] = -1
            if i == 0 and j:
                row_left = 0  # the row below was closed by its diagonal
            k -= 1
            continue
        vals[k] = rows[j][i] = x
        col_left[i] -= x
        row_left -= x
        if i < j:
            k += 1
        elif j and not (
                _tight_rows((arows[j - 1] + rows[j - 1], arows[j] + rows[j]))
                and all(mu[c + 1] - col_left[c + 1] <= mu[c] - col_left[c] - rows[j][c]
                        for c in range(j))):
            continue  # no completion is a pair: the diagonal cell is exhausted
        elif k + 1 < len(cells):
            k += 1
            row_left = rsums[j + 1]
        else:  # every row placed its mass, so every column has its mass too
            results.append(Array._scaled(1, rows))
    return a, results


def enumerate_standard_pairs(lam, mu, nu):
    """All integer standard pairs of type (lam, mu, nu), in the order
    _standard_pairs finds their second components."""
    a, bs = _standard_pairs(*_integer_type(lam, mu, nu))
    return [StandardPair._built(a, b) for b in bs]


def lr_coefficient(lam, mu, nu) -> int:
    """The number of integer hives of the given type, cross-checked against
    the number of integer standard pairs; the type is checked once, and
    neither hives nor pairs are built as values."""
    lam, mu, nu = pad_partitions(lam, mu, nu)
    hives = len(_hives(lam, mu, nu)[0])
    pairs = len(_standard_pairs(lam, mu, nu)[1])
    if hives != pairs:
        raise AssertionError(
            f"hive count {hives} != pair count {pairs} for {(lam, mu, nu)}")
    return hives


def lr_oracle(lam, mu, nu) -> int:
    """Independent count: skew semistandard fillings of nu minus lam with
    weight mu whose reading word is Yamanouchi.  Backtracking over boxes
    with an explicit stack, no hives or arrays involved."""
    lam, mu, nu = pad_partitions(lam, mu, nu)
    n = len(nu)
    if any(lam[j] > nu[j] for j in range(n)):
        return 0
    if sum(lam) + sum(mu) != sum(nu):
        return 0

    # boxes listed in reading order: rows bottom to top, right to left,
    # so the Yamanouchi condition can be enforced incrementally.
    boxes = [(c, j) for j in range(n) for c in range(nu[j], lam[j], -1)]
    if not boxes:
        return 1
    grid = {}  # the stack: the letters of boxes 0..k
    left = list(mu)
    counts = [0] * (n + 1)
    total = 0
    k = 0
    while k >= 0:
        c, j = boxes[k]
        x = grid.get((c, j))
        if x:  # take back the letter last tried in this box
            left[x - 1] += 1
            counts[x] -= 1
        else:  # start above the letter below, if there is a box below
            x = grid.get((c, j - 1), 0)
        hi = grid.get((c + 1, j), n)
        x += 1
        while x <= hi and not (left[x - 1] and (x == 1 or counts[x] < counts[x - 1])):
            x += 1
        if x > hi:  # box exhausted: back to the previous one
            grid.pop((c, j), None)
            k -= 1
            continue
        grid[(c, j)] = x
        left[x - 1] -= 1
        counts[x] += 1
        if k + 1 == len(boxes):
            total += 1
        else:
            k += 1
    return total
