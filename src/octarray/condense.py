"""Condensation operators: moving mass down, left, right or up until tight.

The two-row kernel condense_pair is the workhorse.  Given rows (u, v) (u
below v) it moves as much mass from v down to u as the tightness condition
allows, preserving all column sums.  With cumulative sums U, V and
beta_k = V(k) - U(k-1), the new bottom integral is

    u'(1) + ... + u'(i) = U(i) + max_{k <= i} beta_k,

and v' absorbs whatever is left in each column.

down_rows condenses rows of ints down, and left_rows, right_rows and
up_rows run it on the transposed or centrally reversed rows.  Condensation
commutes with positive scaling, so each condense_* function runs the
matching one on an Array's ints and hands the rows, over the same D, to
Array._scaled.

Tightness forces a triangle of zeros: row j of a down-tight array has no
mass left of column j (the array form of a semistandard tableau whose row j
holds no letter below j; Knuth 1970), so its rows j >= n vanish.
down_rows skips the work this forces.
"""

from .arrays import Array, _reversed, _tight_rows, central_reverse, row_sums
from .arrays import is_d_tight  # noqa: F401 -- bench/tracing.py counts condense.is_d_tight
from .errors import ValidationError


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


def down_rows(rows) -> list:
    """Condense rows of ints down: the int core of all four condensations.

    One insertion pass: each row k = 1..m-1 is pushed down through the
    pairs (k-1, k), (k-2, k-1), ..., (0, 1) on top of the tight rows below
    it, stopping as soon as a pair is left unchanged.  Rows n..k-1 are
    zero (module docstring), so row k drops straight to row min(k, n).
    Row j is zero left of column j, and on such a prefix condense_pair
    moves the upper row down whole and leaves the rest as a call on the
    tails would; so pair (j, j+1) runs condense_pair on the columns from j
    on only.  That is at most min(k, n) calls for row k; the result is
    checked to be tight.
    """
    rows = list(map(tuple, rows))
    n = len(rows[0])
    zeros = (0,) * n
    pair = condense_pair
    for k in range(1, len(rows)):
        top = min(k, n)
        # rows top..k-1 are zero: the swaps through them exchange two rows
        rows[top], rows[k] = rows[k], rows[top]
        v = rows[top]
        for j in range(top - 1, -1, -1):
            u = rows[j]
            tail = u[j:]
            u_tail, v_tail = pair(tail, v[j:])
            if u_tail == tail and v[:j] == zeros[:j]:
                break
            rows[j + 1] = zeros[:j] + v_tail
            rows[j] = v = v[:j] + u_tail
    if not _tight_rows(rows):
        raise AssertionError("insertion schedule did not reach a tight array")
    return rows


def left_rows(rows) -> list:
    return list(zip(*down_rows(zip(*rows))))


def right_rows(rows) -> list:
    return _reversed(left_rows(_reversed(rows)))


def up_rows(rows) -> list:
    return _reversed(down_rows(_reversed(rows)))


def condense_down(a: Array) -> Array:
    """Move mass downwards until the array is tight (the unique fixpoint)."""
    return Array._scaled(a.D, down_rows(a.ints))


def condense_left(a: Array) -> Array:
    return Array._scaled(a.D, left_rows(a.ints))


def condense_right(a: Array) -> Array:
    return Array._scaled(a.D, right_rows(a.ints))


def condense_up(a: Array) -> Array:
    return Array._scaled(a.D, up_rows(a.ints))


def shape(a: Array) -> tuple:
    """Row sums after condensing down; a weakly decreasing tuple."""
    s = row_sums(condense_down(a))
    if any(s[i] < s[i + 1] for i in range(len(s) - 1)):
        raise AssertionError(f"shape is not weakly decreasing: {s}")
    return s


def schutzenberger(a: Array) -> Array:
    """Condense the centrally reversed array down."""
    return condense_down(central_reverse(a))
