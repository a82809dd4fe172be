"""Condensation operators: moving mass down, left, right or up until tight.

The two-row kernel condense_pair is the workhorse.  Given rows (u, v) (u
below v) it moves as much mass from v down to u as the tightness condition
allows, preserving all column sums.  With cumulative sums U, V and
beta_k = V(k) - U(k-1), the new bottom integral is

    u'(1) + ... + u'(i) = U(i) + max_{k <= i} beta_k,

and v' absorbs whatever is left in each column.
"""

from .arrays import Array, central_reverse, is_d_tight, row_sums, transpose
from .errors import ValidationError
from .scalars import scale_rows, unscale_rows


def condense_pair(u, v):
    """Fully condense the two-row array with bottom row u and top row v.

    Returns (u', v') with the same column sums, u' + v' = u + v columnwise,
    and the two-row result tight.
    """
    u = tuple(u)
    v = tuple(v)
    if len(u) != len(v):
        raise ValidationError("rows of different length")
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


def condense_down(a: Array) -> Array:
    """Move mass downwards until the array is tight (the unique fixpoint).

    One insertion pass: rational masses are scaled to integers once, then
    each row k = 1..m-1 is pushed down through the pairs (k-1, k), (k-2,
    k-1), ..., (0, 1) on top of the tight rows below it, stopping as soon as
    a pair is left unchanged.  That is at most m(m-1)/2 calls to
    condense_pair; the result is checked to be tight and divided back.
    """
    D, rows = scale_rows(a.rows)
    pair = condense_pair
    for k in range(1, len(rows)):
        for j in range(k - 1, -1, -1):
            u, v = pair(rows[j], rows[j + 1])
            if u == rows[j]:
                break
            rows[j], rows[j + 1] = u, v
    tight = Array(rows)
    if not is_d_tight(tight):
        raise AssertionError("insertion schedule did not reach a tight array")
    return tight if D == 1 else Array(unscale_rows(rows, D))


def condense_left(a: Array) -> Array:
    return transpose(condense_down(transpose(a)))


def condense_right(a: Array) -> Array:
    return central_reverse(condense_left(central_reverse(a)))


def condense_up(a: Array) -> Array:
    return central_reverse(condense_down(central_reverse(a)))


def shape(a: Array) -> tuple:
    """Row sums after condensing down; a weakly decreasing tuple."""
    s = row_sums(condense_down(a))
    if any(s[i] < s[i + 1] for i in range(len(s) - 1)):
        raise AssertionError(f"shape is not weakly decreasing: {s}")
    return s


def schutzenberger(a: Array) -> Array:
    """Condense the centrally reversed array down."""
    return condense_down(central_reverse(a))
