"""Condensation operators: moving mass down, left, right or up until tight.

The two-row kernel is condense_pair.  Given rows (u, v) (u below v) it
moves as much mass from v down to u as the tightness condition allows,
preserving all column sums.  With cumulative sums U, V and
beta_k = V(k) - U(k-1), the new bottom integral is

    u'(1) + ... + u'(i) = U(i) + max_{k <= i} beta_k,

and v' absorbs whatever is left in each column.  Sweeps of condense_pair
over adjacent row pairs are the reference schedules of checks
(condense_down_ascending, condense_down_random), which the verification
suites and the tests hold the condensations to.

The condensations are read off one octahedron-recurrence fill instead
(Theorem 2): over the double integral of an array, the ceiling of the
prism integrates its down-condensation and the wall x = n its
left-condensation.  _down takes both faces of the fill over the short side
from octahedron.array_faces, as rsk does, and reads one: the ceiling of the
fill over the rows, or, if they outnumber the columns, the wall of the
fill over their transpose, transposed.  The fill has min(n, m) + 1 layers
and keeps one layer below the one it fills.  The left-condensation is the
down-condensation of the transpose, and right and up are left and down of
the central reverse.  Condensation commutes with positive scaling, so each
condense_* function runs on an Array's ints and hands the rows, over the
same D, to Array._scaled.

Tightness forces a triangle of zeros: row j of a down-tight array has no
mass left of column j (the array form of a semistandard tableau whose row j
holds no letter below j; Knuth 1970), so the fill copies the matching
triangle of each layer, its diagonal included, from its slope instead of
computing it.
"""

from .arrays import Array, _differences, _reversed, _tight_rows, central_reverse, row_sums
from .arrays import is_d_tight  # noqa: F401 -- bench/tracing.py counts condense.is_d_tight
from .errors import ValidationError
from .hives import extended_differences
from .octahedron import array_faces


def condense_pair(u, v):
    """Fully condense the two-row array with bottom row u and top row v.

    Returns (u', v') with the same column sums, u' + v' = u + v columnwise,
    and the two-row result tight.
    """
    u = tuple(u)
    v = tuple(v)
    if len(u) != len(v):
        raise ValidationError("rows of different length")
    if not u:
        return (), ()
    # one pass with running sums: U = U(i), V = V(i), f = U(i) + best
    best = v[0]
    U = V = f_prev = 0
    u_new = []
    v_new = []
    for x, y in zip(u, v):
        V += y
        beta = V - U
        if beta > best:
            best = beta
        U += x
        f_cur = U + best
        ui = f_cur - f_prev
        vi = x + y - ui
        if ui < 0 or vi < 0:
            raise AssertionError("condense_pair produced a negative mass")
        u_new.append(ui)
        v_new.append(vi)
        f_prev = f_cur
    return tuple(u_new), tuple(v_new)


def _down(rows) -> list:
    """The down-condensation of rows of ints, read off the prism over the
    short side as rsk does: the ceiling of the fill over the rows, or, if
    they outnumber their columns, the wall of the fill over their
    transpose, transposed.  The result is checked to be a tight array."""
    m = len(rows)
    flip = m > len(rows[0])
    top, wall = array_faces(list(zip(*rows)) if flip else rows)
    d = list(zip(*extended_differences(wall, m))) if flip else _differences(top)
    if min(map(min, d)) < 0:
        raise AssertionError("the ceiling or the wall has a negative mixed difference")
    if not _tight_rows(d):
        raise AssertionError("the condensation read off the prism is not tight")
    return d


def _left(rows) -> list:
    return list(zip(*_down(list(zip(*rows)))))


def condense_down(a: Array) -> Array:
    """Move mass downwards until the array is tight (the unique fixpoint)."""
    return Array._scaled(a.D, _down(a.ints))


def condense_left(a: Array) -> Array:
    return Array._scaled(a.D, _left(a.ints))


def condense_right(a: Array) -> Array:
    return Array._scaled(a.D, _reversed(_left(_reversed(a.ints))))


def condense_up(a: Array) -> Array:
    return Array._scaled(a.D, _reversed(_down(_reversed(a.ints))))


def shape(a: Array) -> tuple:
    """Row sums after condensing down; a weakly decreasing tuple."""
    s = row_sums(condense_down(a))
    if any(s[i] < s[i + 1] for i in range(len(s) - 1)):
        raise AssertionError(f"shape is not weakly decreasing: {s}")
    return s


def schutzenberger(a: Array) -> Array:
    """Condense the centrally reversed array down."""
    return condense_down(central_reverse(a))
