"""Tableaux, commutation and association of pairs, and their functional forms.

Integer arrays that are tight downwards are exactly semistandard Young
tableaux in French convention: row j of the tableau contains the letter i
with multiplicity a(i, j), rows are indexed bottom to top, and columns
increase strictly upwards.

The commuter acts on anti-standard pairs by condensing the centrally
reversed concatenation; on standard pairs it is conjugated by the
standard/anti-standard change of tightness.  The associator rearranges a
compatible couple of standard pairs through the common triple: forward it
is one rsk of b|c, both condensations from one prism propagation, and
backward one rsk_inverse.  Both have functional counterparts acting on
triangle functions via three-dimensional propagation; those are
implemented here as well, on prisms filled and read by octahedron.py.
"""

from math import lcm

from .arrays import (
    Array,
    _over,
    central_reverse,
    col_sums,
    concat,
    diag,
    integrate,
    is_d_tight,
    row_sums,
    split,
    transpose,
)
from .condense import condense_left, condense_right, schutzenberger
from .errors import ValidationError
from .hives import (
    AntiStandardPair,
    StandardPair,
    TriangleFunction,
    hive_to_pair,
    increments,
)
from .octahedron import TetraFunction, array_faces, rsk, rsk_inverse, tetra_propagate
from .scalars import _quoted, check_partition, trim
from .values import Value


# -- semistandard tableaux ----------------------------------------------------


class SSYT(Value):
    """Rows bottom to top; row lengths weakly decrease upwards, rows weakly
    increase left to right, columns increase strictly upwards."""

    _fields = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(_letter(x) for x in row) for row in rows)
        if any(len(high) > len(low) for low, high in zip(rows, rows[1:])):
            raise ValidationError("row lengths must weakly decrease upwards")
        _semistandard(rows, (0,) * len(rows))
        # rows increase rightwards and columns upwards: rows[0][0] is least
        if rows and rows[0] and rows[0][0] < 1:
            raise ValidationError(f"letter {_quoted(rows[0][0])} out of range")
        object.__setattr__(self, "rows", rows)


def _semistandard(rows, inner) -> None:
    """Raise unless the rows (French, bottom to top, row j starting after
    column inner[j - 1]) weakly increase rightwards and their columns
    strictly increase upwards."""
    grid = {}
    for j, (start, row) in enumerate(zip(inner, rows), start=1):
        if any(x > y for x, y in zip(row, row[1:])):
            raise ValidationError(f"row {j} is not weakly increasing")
        for c, x in enumerate(row, start=start + 1):
            grid[c, j] = x
    for (c, j), x in grid.items():
        if (c, j + 1) in grid and grid[c, j + 1] <= x:
            raise ValidationError(f"column {c} does not increase strictly")


def _letter(x) -> int:
    """x itself if it is an int (not a bool), else ValidationError."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise ValidationError(f"letter {_quoted(x)} is not an integer")
    return x


MAX_TABLEAU_LETTERS = 100_000
"""The most letters a tableau may expand to: the output grows with the total
multiplicity, not with the size of the input array."""


def _letters(a: Array, message) -> list:
    """Letter rows of the array a: row j holds the letter i with
    multiplicity a(i, j).  Raises ValidationError(message) if a is not
    integral, and names MAX_TABLEAU_LETTERS if the total multiplicity
    exceeds it."""
    if a.D != 1:
        raise ValidationError(message)
    total = sum(map(sum, a.ints))
    if total > MAX_TABLEAU_LETTERS:
        raise ValidationError(
            f"tableau would have {total} letters, more than "
            f"MAX_TABLEAU_LETTERS = {MAX_TABLEAU_LETTERS}"
        )
    return [[i for i, mult in enumerate(row, 1) for _ in range(mult)]
            for row in a.ints]


def _multiplicities(letter_rows, n, m) -> list:
    """The inverse of _letters: m rows of n multiplicities, rows past the
    last letter row empty."""
    out = [[0] * n for _ in range(m)]
    for row, letters in zip(out, letter_rows):
        for x in letters:
            if x > n:
                raise ValidationError(f"letter {x} exceeds alphabet size {n}")
            row[x - 1] += 1
    return out


def dtight_to_ssyt(a: Array) -> SSYT:
    """The tableau whose row j holds the letter i with multiplicity a(i, j)."""
    if not is_d_tight(a):
        raise ValidationError("array is not tight downwards")
    rows = _letters(a, "tableau multiplicities must be integers")
    while rows and not rows[-1]:
        rows.pop()
    return SSYT(rows)


def ssyt_to_dtight(t: SSYT, n: int = None, m: int = None) -> Array:
    rows = t.rows
    if n is None:
        n = max((x for row in rows for x in row), default=1)
    if m is None:
        m = max(len(rows), 1)
    if len(rows) > m:
        raise ValidationError("tableau has more rows than requested")
    return Array(_multiplicities(rows, n, m))


def render_ssyt(t: SSYT) -> str:
    """Plain-text picture, top (shortest) row first."""
    return "\n".join(" ".join(str(x) for x in row) for row in t.rows[::-1])


# -- Yamanouchi words and skew tableaux ---------------------------------------


def is_yamanouchi(word) -> bool:
    """True iff at every prefix each letter i occurs at least as often as
    i + 1.  Words are sequences of integers >= 1."""
    counts = {}
    for x in word:
        if _letter(x) < 1:
            raise ValidationError(f"letter {_quoted(x)} out of range")
        counts[x] = counts.get(x, 0) + 1
        if x > 1 and counts[x] > counts.get(x - 1, 0):
            return False
    return True


class LRSkewTableau(Value):
    """A skew tableau of shape outer minus inner (French, rows bottom to
    top), semistandard, whose reading word (rows right to left, top row
    last) is Yamanouchi."""

    _fields = ("outer", "inner", "rows")

    def __init__(self, outer, inner, rows):
        outer = check_partition(outer, "outer shape")
        inner = tuple(check_partition(inner, "inner shape"))
        inner = inner + (0,) * (len(outer) - len(inner))
        rows = tuple(tuple(_letter(x) for x in row) for row in rows)
        if len(rows) != len(outer):
            raise ValidationError("one filling row per shape row required")
        # inner is at least as long as outer; a non-zero part past outer's end
        # is a box outside it, while trailing zero parts are harmless
        if any(inner[len(outer):]) or any(i > o for i, o in zip(inner, outer)):
            raise ValidationError("inner shape not contained in outer")
        for j, (row, i, o) in enumerate(zip(rows, inner, outer), start=1):
            if len(row) != o - i:
                raise ValidationError(f"row {j} has the wrong number of boxes")
        _semistandard(rows, inner)
        word = reading_word_rows(rows)
        if not is_yamanouchi(word):
            raise ValidationError("reading word is not Yamanouchi")
        object.__setattr__(self, "outer", outer)
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "rows", rows)

    def reading_word(self):
        return reading_word_rows(self.rows)


def reading_word_rows(rows) -> tuple:
    """Rows right to left, bottom row first (top row last)."""
    out = []
    for row in rows:
        out.extend(reversed(row))
    return tuple(out)


def render_skew(t: LRSkewTableau) -> str:
    lines = []
    for j in range(len(t.outer) - 1, -1, -1):
        cells = ["."] * t.inner[j] + [str(x) for x in t.rows[j]]
        lines.append(" ".join(cells))
    return "\n".join(lines)


def pair_to_lr_tableau(p: StandardPair) -> LRSkewTableau:
    """The skew tableau of a standard integer pair: strip the diagonal part
    (the letters of the first block fill the inner shape in Yamanouchi
    fashion) and keep the second block's letters, shifted down by n."""
    if p.a.D != 1:
        raise ValidationError("pair is not integral")
    lam = col_sums(p.a)  # the shape of the diagonal, left-condensed block
    outer = row_sums(p.concat())
    return LRSkewTableau(outer, lam, _letters(p.b, "pair is not integral"))


def lr_tableau_to_pair(t: LRSkewTableau) -> StandardPair:
    n = len(t.outer)
    lam = t.inner + (0,) * (n - len(t.inner))
    return StandardPair(diag(lam), Array(_multiplicities(t.rows, n, n)))


# -- changing tightness of the first component ---------------------------------


def to_antistandard(p: StandardPair) -> AntiStandardPair:
    return AntiStandardPair(condense_right(p.a), p.b)


def to_standard(p: AntiStandardPair) -> StandardPair:
    return StandardPair(condense_left(p.a), p.b)


# -- the commuter --------------------------------------------------------------


def commute(p: AntiStandardPair) -> AntiStandardPair:
    """Condense the centrally reversed concatenation; swaps the two outer
    types and is an involution."""
    full = schutzenberger(p.concat())
    b2, a2 = split(full, p.n)
    return AntiStandardPair(b2, a2)


def commute_sp(p: StandardPair) -> StandardPair:
    return to_standard(commute(to_antistandard(p)))


def rho1(p: StandardPair) -> StandardPair:
    """Triple application of the reversal-condensation: to the first block,
    to the whole concatenation, then to the first block of the result."""
    n = p.n
    a1 = schutzenberger(p.a)
    whole = schutzenberger(concat(a1, p.b))
    w1, w2 = split(whole, n)
    return StandardPair(schutzenberger(w1), w2)


# -- the associator -------------------------------------------------------------


def _couple(p1, p2, inverse: bool) -> int:
    """The size of a couple of standard pairs of one size whose intermediate
    shapes match: the final shape of p1 is the shape of p2's first block,
    or for the inverse its second; condensed left, each has its column sums."""
    if not (isinstance(p1, StandardPair) and isinstance(p2, StandardPair)):
        raise ValidationError("association expects a couple of standard pairs")
    if p1.n != p2.n:
        raise ValidationError("pair sizes differ")
    if trim(row_sums(p1.concat())) != trim(col_sums(p2.b if inverse else p2.a)):
        raise ValidationError(
            "couple is not compatible: intermediate shapes disagree"
        )
    return p1.n


def associate(p1: StandardPair, p2: StandardPair):
    """Rearrange a compatible couple ((a,b), (s,c)) -- final shape of the
    first pair equal to starting shape of the second -- into the couple
    (down-split of b|c, (a, left-condensation of b|c))."""
    n = _couple(p1, p2, inverse=False)
    down, left = rsk(concat(p1.b, p2.b))
    lt, rest = split(left, n)
    if any(map(any, rest.ints)):
        raise AssertionError("left condensation spilled past n columns")
    return StandardPair._built(*split(down, n)), StandardPair._built(p1.a, lt)


def associate_inverse(out1: StandardPair, out2: StandardPair):
    """Inverse rearrangement, through reverse propagation."""
    n = _couple(out1, out2, inverse=True)
    d = out1.concat()
    l = concat(out2.b, Array._scaled(1, [[0] * n] * n))
    bc = rsk_inverse(d, l)
    b, c = split(bc, n)
    p1 = StandardPair._built(out2.a, b)
    sigma = row_sums(p1.concat())
    p2 = StandardPair._built(diag(sigma), c)
    return p1, p2


def tetra_of_couple(F, G, n: int) -> TetraFunction:
    """The tetrahedron propagated from the rows F and G of two hives of size n.

    F sits on the front wall via (x, 0, z) -> F[n-x][n-x-z], G on the ground
    via (x, y, 0) -> G[n-x][y], carrying the triangulations of the walls onto
    the hive grid; F's diagonal meets G's left side along the edge y = z = 0.
    """
    return tetra_propagate(
        lambda x, y: G[n - x][y],
        lambda x, z: F[n - x][n - x - z],
        n,
    )


def associate_functional(f: TriangleFunction, g: TriangleFunction):
    """The associator on triangle functions, by one propagation through the
    tetrahedron of the couple (tetra_of_couple), on the values of f and g
    as ints over one D.  The fill glues f's diagonal to g's left side, which
    must be equal.  The shadow wall then carries the first output hive and
    the slope wall the second, both handed back over D.
    """
    n = f.n
    if g.n != n:
        raise ValidationError("triangle sizes differ")
    D = lcm(f.D, g.D)
    F, G = _over(f, D), _over(g, D)
    if [row[-1] for row in F] != [row[0] for row in G]:
        raise ValidationError("hives are not compatible along the shared edge")
    T = tetra_of_couple(F, G, n)
    V = T.values
    base = V[0, 0, n]
    p = [[V[0, u, n - v] - base for u in range(v + 1)] for v in range(n + 1)]
    q = [[V[n - v, u, v - u] for u in range(v + 1)] for v in range(n + 1)]
    return TriangleFunction._scaled(D, p), TriangleFunction._scaled(D, q)


# -- the functional commuter ----------------------------------------------------


def _com_prism(f: TriangleFunction):
    """(D, rows): the reversed concatenation of f's pair as ints over D, the
    array whose prism both functional commuters fill."""
    p = hive_to_pair(f)
    c = central_reverse(concat(condense_right(p.a), p.b))
    return c.D, c.ints


def _nuop_offsets(f: TriangleFunction, D: int) -> list:
    """The renormalisation by the reversed diagonal increments, as ints over
    D, a multiple of f.D: at row j, |nu| minus the sum of the last j entries
    of nu, which is f(n-j, n-j) - f(0, 0)."""
    k, apex = D // f.D, f.ints[0][0]
    return [(row[-1] - apex) * k for row in reversed(f.ints)]


def com_prime(f: TriangleFunction) -> TriangleFunction:
    """The commuter on hives: propagate the reversed concatenation through
    the doubled prism and read the ceiling on the right-hand triangle."""
    n = f.n
    D, rows = _com_prism(f)
    top = array_faces(rows)[0]
    out = TriangleFunction._scaled(D, [row[n:n + v + 1] for v, row in enumerate(top)])
    lam, mu, nu = increments(f)
    got = increments(out)
    if got != (mu, lam, nu):
        raise AssertionError(f"commuted hive has increments {got}")
    return out


def hk_wall_h(f: TriangleFunction) -> TriangleFunction:
    """The auxiliary wall function: the inner wall of the same propagation,
    renormalised by the reversed diagonal increments.  Its increments are
    (-reversed(nu), mu, -reversed(lam)), and rotating it by
    h(i, j) = result(n-j, n-j+i) recovers com_prime(f)."""
    D, rows = _com_prism(f)
    E = lcm(D, f.D)
    k = E // D
    wall = array_faces(rows, f.n)[1]
    return TriangleFunction._scaled(E, [[v * k + c for v in row] for row, c in
                                        zip(wall, _nuop_offsets(f, E))])


def rho2_prime(f: TriangleFunction) -> TriangleFunction:
    """Two-dimensional route to the functional commuter: condense the
    reversed transpose of the second component, integrate, renormalise and
    rotate.  Agrees with com_prime."""
    n = f.n
    b = hive_to_pair(f).b
    fl = integrate(transpose(schutzenberger(transpose(b))))
    E = lcm(fl.D, f.D)
    F, c = _over(fl, E), _nuop_offsets(f, E)
    return TriangleFunction._scaled(
        E, [[F[n - u][v - u] + c[n - u] for u in range(v + 1)] for v in range(n + 1)])
