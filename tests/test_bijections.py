import random
from fractions import Fraction
from itertools import accumulate

import pytest

from octarray import (
    Array,
    LRSkewTableau,
    SSYT,
    StandardPair,
    TriangleFunction,
    ValidationError,
    associate,
    associate_functional,
    associate_inverse,
    central_reverse,
    col_sums,
    com_prime,
    commute,
    concat,
    commute_sp,
    condense_down,
    condense_left,
    condense_right,
    diag,
    dtight_to_ssyt,
    enumerate_standard_pairs,
    hive_to_pair,
    hk_wall_h,
    increments,
    integrate,
    is_yamanouchi,
    pair_to_hive,
    pair_to_lr_tableau,
    lr_tableau_to_pair,
    reading_word_rows,
    render_skew,
    render_ssyt,
    rho1,
    rho2_prime,
    row_sums,
    schutzenberger,
    split,
    ssyt_to_dtight,
    to_antistandard,
    to_standard,
    transpose,
)
from octarray import serialize
from octarray.checks import _partitions, random_array, random_couple, random_standard_pair
from octarray.octahedron import array_faces


def test_ssyt_from_fixture_arrays(f1, f1_array, f2, f2_array):
    assert [list(r) for r in dtight_to_ssyt(f1_array).rows] == \
        f1["expected"]["ssyt_rows"]
    d = condense_down(f2_array)
    assert [list(r) for r in dtight_to_ssyt(d).rows] == \
        f2["expected"]["down_ssyt_rows"]
    la = transpose(condense_left(f2_array))
    assert [list(r) for r in dtight_to_ssyt(la).rows] == \
        f2["expected"]["left_wall_ssyt_rows"]


def test_ssyt_round_trip(f1_array):
    t = dtight_to_ssyt(f1_array)
    assert ssyt_to_dtight(t, n=f1_array.n, m=f1_array.m) == f1_array


def test_ssyt_rejects_bad_columns():
    with pytest.raises(ValidationError):
        SSYT([[1, 1], [1, 2]])  # column not strictly increasing


def test_dtight_to_ssyt_rejects_untight_or_fractional():
    with pytest.raises(ValidationError):
        dtight_to_ssyt(Array([[0, 1], [1, 0]]))
    from fractions import Fraction

    with pytest.raises(ValidationError):
        dtight_to_ssyt(Array([[Fraction(1, 2)]]))


def test_render_ssyt(f2_array):
    text = render_ssyt(dtight_to_ssyt(condense_down(f2_array)))
    assert text.splitlines() == [
        "3",
        "2 2 2 3 3 3",
        "1 1 1 1 2 2 2 3 3 3 3",
    ]


def test_yamanouchi():
    assert is_yamanouchi((1, 1, 2, 1, 2, 3))
    assert not is_yamanouchi((2, 1))
    assert not is_yamanouchi((1, 2, 2))
    assert is_yamanouchi(())


def test_reading_word_rows():
    assert reading_word_rows([(1, 2), (3,)]) == (2, 1, 3)


def test_skew_tableau_fixture(f3, f3_pair):
    t = pair_to_lr_tableau(to_standard(f3_pair))
    assert [list(r) for r in t.rows] == f3["expected"]["skew_rows"]
    assert list(t.reading_word()) == f3["expected"]["reading_word"]
    assert is_yamanouchi(t.reading_word())
    assert lr_tableau_to_pair(t) == to_standard(f3_pair)


def test_render_skew(f3_pair):
    text = render_skew(pair_to_lr_tableau(to_standard(f3_pair)))
    lines = text.splitlines()
    assert len(lines) == 3
    assert lines[-1].split()[-1] == "1"
    assert "." in lines[-1]


def test_standard_antistandard_conversions(f3_pair):
    sp = to_standard(f3_pair)
    assert to_antistandard(sp) == f3_pair
    assert sp.type() == f3_pair.type()


def test_commute_fixture(f3, f3_pair):
    q = commute(f3_pair)
    assert q == serialize.decode(f3["expected"]["commute"])
    assert commute(q) == f3_pair
    lam, mu, nu = f3_pair.type()
    assert q.type() == (mu, lam, nu)


def test_commute_sp_and_rho1_agree():
    rng = random.Random(21)
    for _ in range(30):
        p = random_standard_pair(rng, rng.randint(1, 3))
        assert rho1(p) == commute_sp(p)


def test_associate_round_trip():
    rng = random.Random(22)
    for _ in range(20):
        p1, p2 = random_couple(rng, 2)
        o1, o2 = associate(p1, p2)
        total = p1.a.total() + p1.b.total() + p2.b.total()
        assert o2.a.total() + o1.concat().total() == total
        assert associate_inverse(o1, o2) == (p1, p2)



def _associate_by_two_condensations(p1, p2):
    """The associator as the paper states it: the down-condensation of b|c,
    split, and the left n columns of its left-condensation."""
    n = p1.n
    bc = concat(p1.b, p2.b)
    b2, c2 = split(condense_down(bc), n)
    lt = Array([row[:n] for row in condense_left(bc).rows])
    return StandardPair(b2, c2), StandardPair(p1.a, lt)


def _typed_values(couple):
    return [(x, type(x)) for p in couple for block in (p.a, p.b)
            for row in block.rows for x in row]


def test_associate_equals_the_two_condensations_in_values_and_types():
    rng = random.Random(131)
    for k in range(240):
        max_denom = (1, 2, 4, 12)[k % 4]
        p1, p2 = random_couple(rng, rng.randint(1, 5), rng.randint(1, 4), max_denom)
        got = associate(p1, p2)
        want = _associate_by_two_condensations(p1, p2)
        assert got == want
        assert _typed_values(got) == _typed_values(want)


@pytest.mark.parametrize("fn", [com_prime, hk_wall_h])
def test_functional_commuter_fills_one_prism(fn, monkeypatch):
    from octarray import octahedron

    calls = []
    real = octahedron.or_row

    def counting(t, s, u, w, start):
        calls.append(len(t) - start)
        real(t, s, u, w, start)

    monkeypatch.setattr(octahedron, "or_row", counting)
    rng = random.Random(132)
    for n in range(1, 7):
        f = pair_to_hive(random_standard_pair(rng, n))
        calls.clear()
        fn(f)
        # the 2n columns of the reversed concatenation, n rows: one step
        # per point 1 <= y < z <= n, y < x <= 2n; before it, the n x n
        # fill of condense_right(diag(lam)), y < x <= n
        assert sum(calls) == sum(3 * n - 2 * y for z in range(2, n + 1)
                                 for y in range(1, z))

def test_associate_rejects_incompatible_couples():
    p1 = StandardPair(diag((1,)), Array([[1]]))
    p2 = StandardPair(diag((5,)), Array([[0]]))
    with pytest.raises(ValidationError):
        associate(p1, p2)


def test_associate_functional_compares_the_shared_edge_by_value():
    # g shifted by +1 keeps every increment but moves its whole left side
    # off f's diagonal; g with only its apex moved differs at one point
    rng = random.Random(29)
    for n in range(1, 5):
        f, g = (pair_to_hive(p) for p in random_couple(rng, n))
        shifted = TriangleFunction([[v + 1 for v in row] for row in g.values])
        apex = TriangleFunction([[g.values[0][0] + 1], *g.values[1:]])
        for h in (shifted, apex):
            with pytest.raises(ValidationError,
                               match="^hives are not compatible along the shared edge$"):
                associate_functional(f, h)


def test_associate_functional_matches_array_route():
    rng = random.Random(23)
    for _ in range(10):
        p1, p2 = random_couple(rng, 2)
        o1, o2 = associate(p1, p2)
        p, q = associate_functional(pair_to_hive(p1), pair_to_hive(p2))
        assert p == pair_to_hive(o1)
        assert q == pair_to_hive(o2)


def test_com_prime_fixture(f4, f4_triangle):
    assert com_prime(f4_triangle) == serialize.decode(f4["expected"]["com_prime"])


def test_hk_wall_and_rotation_identity(f4, f4_triangle):
    h = hk_wall_h(f4_triangle)
    assert h == serialize.decode(f4["expected"]["h_wall"])
    c = com_prime(f4_triangle)
    n = f4_triangle.n
    for v in range(n + 1):
        for u in range(v + 1):
            i, j = u, v  # h is indexed with 0 <= i <= j <= n
            assert h.value(i, j) == c.value(n - j, n - j + i)


def test_functional_commuter_reads_the_prism_layers(f4, f4_triangle, monkeypatch):
    from octarray import octahedron

    def refuse(**fields):
        raise AssertionError("a PrismFunction was built")

    monkeypatch.setattr(octahedron, "PrismFunction", refuse)
    assert com_prime(f4_triangle) == serialize.decode(f4["expected"]["com_prime"])
    assert hk_wall_h(f4_triangle) == serialize.decode(f4["expected"]["h_wall"])


def test_rho2_prime_equals_com_prime(f4_triangle):
    assert rho2_prime(f4_triangle) == com_prime(f4_triangle)
    rng = random.Random(24)
    for _ in range(20):
        h = pair_to_hive(random_standard_pair(rng, rng.randint(1, 3)))
        assert rho2_prime(h) == com_prime(h)


def _nuop_offsets_by_values(f):
    nu = increments(f).nu
    return [sum(nu) - s for s in accumulate(nu[::-1], initial=0)]


def _hk_wall_h_by_values(f):
    """hk_wall_h read through values: the wall divided back, then shifted."""
    p = hive_to_pair(f)
    c = central_reverse(concat(condense_right(p.a), p.b))
    wall = array_faces(c.ints, f.n)[1]
    return TriangleFunction([[Fraction(v, c.D) + o for v in row]
                             for row, o in zip(wall, _nuop_offsets_by_values(f))])


def _rho2_prime_by_values(f):
    """rho2_prime read through values: the CornerFunction's, then shifted."""
    n, c = f.n, _nuop_offsets_by_values(f)
    fl = integrate(transpose(schutzenberger(transpose(hive_to_pair(f).b))))
    return TriangleFunction([[fl.value(v - u, n - u) + c[n - u] for u in range(v + 1)]
                             for v in range(n + 1)])


@pytest.mark.parametrize("max_denom", [1, 4], ids=["int", "quarters"])
def test_hk_wall_h_and_rho2_prime_equal_their_routes_through_values(max_denom):
    rng = random.Random(2323)
    for _ in range(60):
        f = pair_to_hive(random_standard_pair(rng, rng.randint(1, 5), 3, max_denom))
        shift = Fraction(rng.randint(0, 3), rng.randint(1, max_denom))
        shifted = TriangleFunction([[x + shift for x in row] for row in f.values])
        for h in (f, shifted):
            for got, want in ((hk_wall_h(h), _hk_wall_h_by_values(h)),
                              (rho2_prime(h), _rho2_prime_by_values(h))):
                assert (got, repr(got)) == (want, repr(want)), h


def test_commute_preserves_content():
    rng = random.Random(25)
    for _ in range(20):
        p = random_standard_pair(rng, 3)
        q = commute_sp(p)
        assert row_sums(q.concat()) == row_sums(p.concat())


def test_tableau_codecs_round_trip_on_random_data():
    rng = random.Random(5)
    for _ in range(40):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        a = condense_down(random_array(rng, n, m, 4))
        assert ssyt_to_dtight(dtight_to_ssyt(a), a.n, a.m) == a
    for _ in range(40):
        p = random_standard_pair(rng, rng.randint(1, 4))
        assert lr_tableau_to_pair(pair_to_lr_tableau(p)) == p


def test_ssyt_rejects_letters_below_one():
    for rows in ([[0, 1]], [[0]]):
        with pytest.raises(ValidationError, match="letter 0 out of range"):
            ssyt_to_dtight(SSYT(rows))


@pytest.mark.parametrize("build", [
    lambda: SSYT([[Fraction(3, 2), 2.7]]),
    lambda: SSYT([["a"]]),
    lambda: SSYT([[True, 2]]),
    lambda: is_yamanouchi([1.5, 2.2]),
    lambda: LRSkewTableau((2, 1), (1,), [[1.0], [1]]),
])
def test_letters_must_be_ints(build):
    with pytest.raises(ValidationError, match="is not an integer"):
        build()


def test_skew_tableau_shapes_are_integer_partitions():
    with pytest.raises(ValidationError, match="^outer shape must be an integer partition$"):
        LRSkewTableau((Fraction(5, 2),), (Fraction(1, 2),), [[1, 1]])


@pytest.mark.parametrize("build", [
    lambda: SSYT([[1, 2, 2], [2, 2]]),
    lambda: LRSkewTableau((3, 2), (1,), [[2, 2], [1, 2]]),
], ids=["ssyt", "skew"])
def test_both_tableaux_name_the_column_that_does_not_increase(build):
    with pytest.raises(ValidationError, match="^column 2 does not increase strictly$"):
        build()


@pytest.mark.parametrize("max_denom", [1, 2, 6], ids=["int", "halves", "sixths"])
def test_associate_inverse_undoes_associate(max_denom):
    rng = random.Random(133)
    for _ in range(30):
        p1, p2 = random_couple(rng, rng.randint(1, 5), rng.randint(1, 4), max_denom)
        assert associate_inverse(*associate(p1, p2)) == (p1, p2)


def _assert_checked(couple):
    """Each pair of the couple passes the full constructor unchanged."""
    for p in couple:
        assert StandardPair(p.a, p.b) == p


@pytest.mark.parametrize("max_denom", [1, 4], ids=["int", "quarters"])
def test_associator_builds_pairs_that_pass_the_full_check(max_denom):
    rng = random.Random(134)
    for n in range(1, 7):
        for _ in range(8):
            couple = random_couple(rng, n, 3, max_denom)
            out = associate(*couple)
            _assert_checked(out)
            _assert_checked(associate_inverse(*out))


def _pairs(lam_total, mu_total, nu):
    """All integer standard pairs of size 3 with final shape nu and the
    given masses in their two components."""
    for lam in _partitions(lam_total, 3, lam_total):
        for mu in _partitions(mu_total, 3, mu_total):
            yield from enumerate_standard_pairs(lam, mu, nu)


def test_associate_inverse_takes_every_small_output_couple():
    """Every compatible output couple with n = 3 and |nu| <= 6 (1,028 of
    them) has a preimage made of checked pairs, which associate maps back."""
    count = 0
    for size in range(7):
        for nu in _partitions(size, 3, size):
            for k in range(size + 1):
                for out2 in _pairs(k, size - k, nu):
                    gamma = tuple(col_sums(out2.b))
                    for j in range(size - k + 1):
                        for out1 in _pairs(j, size - k - j, gamma):
                            back = associate_inverse(out1, out2)
                            _assert_checked(back)
                            assert associate(*back) == (out1, out2)
                            count += 1
    assert count == 1028


@pytest.mark.parametrize("cases, max_denom", [(400, 1), (300, 12)],
                         ids=["int", "twelfths"])
def test_com_prime_of_the_hive_is_the_hive_of_the_commuted_pair(cases, max_denom):
    """The commutor read two ways: the functional commuter on the hive of a
    standard pair is the hive of the commuted pair.  This guards both hive
    read-outs, the slices of pair_to_hive and the ceiling of com_prime, and
    the repr checks that both give integral values as ints."""
    rng = random.Random(2121)
    for _ in range(cases):
        p = random_standard_pair(rng, rng.randint(1, 5), 3, max_denom)
        got, want = com_prime(pair_to_hive(p)), pair_to_hive(commute_sp(p))
        assert (got, repr(got)) == (want, repr(want)), p
