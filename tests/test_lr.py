import json
import random
from itertools import accumulate

import pytest

from octarray import (
    Array,
    CheckReport,
    ValidationError,
    concat,
    diag,
    enumerate_hives,
    enumerate_standard_pairs,
    increments,
    is_d_tight,
    is_discrete_concave,
    is_l_tight,
    lr_coefficient,
    lr_oracle,
    verify_associativity,
    verify_commutativity,
)
from octarray import lr


def test_known_coefficients():
    assert lr_coefficient((1,), (1,), (2,)) == 1
    assert lr_coefficient((1,), (1,), (1, 1)) == 1
    assert lr_coefficient((1,), (1,), (3,)) == 0
    assert lr_coefficient((2, 1), (2, 1), (3, 2, 1)) == 2
    assert lr_coefficient((2, 1, 0), (2, 1, 0), (3, 2, 1)) == 2
    assert lr_coefficient((1, 1), (1, 1), (3, 1)) == 0  # fails a boundary rhombus


def test_mass_mismatch_gives_zero():
    assert lr_coefficient((2,), (1,), (2,)) == 0


def test_rejects_non_partitions():
    with pytest.raises(ValidationError):
        lr_coefficient((1, 2), (1,), (2, 2))
    with pytest.raises(ValidationError):
        lr_coefficient((1,), (-1,), (0,))


def random_types(rng, count, max_n, max_part=4, min_n=1):
    """count random LR types with min_n <= n <= max_n: nu grows from lam by
    |mu| boxes added at random, which gives c = 0 and c > 0 alike."""
    types = []
    for _ in range(count):
        n = rng.randint(min_n, max_n)
        lam, mu = (tuple(sorted((rng.randint(0, max_part) for _ in range(n)),
                                reverse=True)) for _ in range(2))
        nu = list(lam)
        for _ in range(sum(mu)):
            nu[rng.choice([j for j in range(n) if j == 0 or nu[j] < nu[j - 1]])] += 1
        types.append((lam, mu, tuple(nu)))
    return types


def test_enumerate_hives_are_concave_with_right_boundary():
    assert len(enumerate_hives((2, 1, 0), (2, 1, 0), (3, 2, 1))) == 2
    for lam, mu, nu in [((2, 1, 0), (2, 1, 0), (3, 2, 1))] + \
            random_types(random.Random(5), 200, 5):
        for h in enumerate_hives(lam, mu, nu):
            assert is_discrete_concave(h)
            assert increments(h) == (lam, mu, nu)


def test_enumerate_standard_pairs_match_hives():
    lam, mu, nu = (2, 1, 0), (2, 1, 0), (3, 2, 1)
    pairs = enumerate_standard_pairs(lam, mu, nu)
    assert len(pairs) == 2
    for p in pairs:
        assert p.type() == (lam, mu, nu)


def test_oracle_agrees_on_sample():
    for args in [((2, 1), (2, 1), (3, 2, 1)), ((3, 1), (2, 2), (4, 3, 1)),
                 ((2, 2), (2, 1), (3, 2, 2))]:
        assert lr_coefficient(*args) == lr_oracle(*args)


def test_verify_commutativity_report():
    r = verify_commutativity((2, 1), (1, 1), (3, 2))
    assert isinstance(r, CheckReport)
    assert r.passed
    assert r.cases == lr_coefficient((2, 1), (1, 1), (3, 2))


def test_verify_associativity_report():
    r = verify_associativity((1,), (1,), (1,), (2, 1), bound=3)
    assert isinstance(r, CheckReport)
    assert r.passed
    assert r.cases == 2  # sigma = (2, 0) and (1, 1), one couple each


def test_padding_is_harmless():
    assert lr_coefficient((2, 1), (2, 1), (3, 2, 1)) == \
        lr_coefficient((2, 1, 0, 0), (2, 1, 0), (3, 2, 1, 0))


@pytest.mark.parametrize("lam, mu, nu, entered", [
    ((2, 1, 0), (2, 1, 0), (3, 2, 1), 1),
    ((3, 2, 1, 0), (2, 2, 1, 0), (5, 3, 2, 1), 4),
])
def test_hive_search_enters_a_pinned_number_of_points(lam, mu, nu, entered):
    # every rhombus bounds the search and nothing checks its leaves, so the
    # bounds alone decide the output: a bound loosened by one enters more
    # points or completes fillings that are not hives
    hives, count = lr._hives(lam, mu, nu)
    assert count == entered
    assert len(hives) == lr_oracle(lam, mu, nu)


@pytest.mark.parametrize("lam, mu, nu, entered", [
    ((2, 1, 0), (2, 1, 0), (3, 2, 1), 11),
    ((3, 2, 1, 0), (2, 2, 1, 0), (5, 3, 2, 1), 16),
])
def test_pair_search_enters_a_pinned_number_of_cells(lam, mu, nu, entered):
    # both tightness conditions prune as each row closes: a check skipped
    # or weakened there enters more cells or completes fillings that are
    # not pairs
    pairs, count = lr._standard_pairs(lam, mu, nu)
    assert count == entered
    assert len(pairs) == lr_oracle(lam, mu, nu)


# each search on one type with c = 2: what it counts, and the number of
# nodes it enters there
LIMITED = ((3, 2, 1, 0), (2, 2, 1, 0), (5, 3, 2, 1))
SEARCHES = {"hives": (lambda: len(lr._hives(*LIMITED)[0]), 4),
            "pairs": (lambda: len(lr._standard_pairs(*LIMITED)[0]), 16),
            "oracle": (lambda: lr_oracle(*LIMITED), 6)}


@pytest.mark.parametrize("name", SEARCHES)
def test_a_search_may_enter_exactly_max_search_nodes(monkeypatch, name):
    count, nodes = SEARCHES[name]
    monkeypatch.setattr(lr, "MAX_SEARCH_NODES", nodes)
    assert count() == 2


@pytest.mark.parametrize("name", SEARCHES)
def test_a_search_past_max_search_nodes_fails_naming_the_limit(monkeypatch, name):
    count, nodes = SEARCHES[name]
    monkeypatch.setattr(lr, "MAX_SEARCH_NODES", nodes - 1)
    with pytest.raises(ValidationError, match=f"{nodes} .*, more than "
                                              f"MAX_SEARCH_NODES = {nodes - 1}$"):
        count()


def test_lr_past_max_search_nodes_exits_1_naming_the_limit(monkeypatch, capsys):
    from octarray import cli

    monkeypatch.setattr(lr, "MAX_SEARCH_NODES", 3)
    assert cli.main(["lr", "3,2,1", "2,2,1", "5,3,2,1"]) == 1
    error = json.loads(capsys.readouterr().err)
    assert error == {"error": "validation", "detail": "the hive search entered 4 points, "
                                                      "more than MAX_SEARCH_NODES = 3"}


def test_lr_coefficient_equals_the_oracle_on_random_types():
    counts = [(lr_coefficient(*t), lr_oracle(*t)) for t in
              random_types(random.Random(23), 600, 5)]
    assert all(c == oracle for c, oracle in counts)
    assert {c > 0 for c, _ in counts} == {False, True}


def leaf_checked_hives(lam, mu, nu):
    """The hive search as it was: type (i) lower bounds, the two strip upper
    bounds, and is_discrete_concave on every completed filling."""
    n = len(nu)
    if sum(lam) + sum(mu) != sum(nu):
        return []
    lam_s, mu_s, nu_s = (list(accumulate(p, initial=0)) for p in (lam, mu, nu))
    values = {(0, v): lam_s[v] for v in range(n + 1)}
    values.update({(u, n): lam_s[n] + mu_s[u] for u in range(n + 1)})
    values.update({(k, k): nu_s[k] for k in range(n + 1)})
    interior = [(u, v) for v in range(2, n) for u in range(1, v)]
    found = []

    def fill(k):
        if k == len(interior):
            if is_discrete_concave(values):
                found.append(tuple(tuple(values[u, v] for u in range(v + 1))
                                   for v in range(n + 1)))
            return
        u, v = interior[k]
        w = values[u - 1, v - 1]
        top = w + values[u, v - 1] - values[u - 1, v - 2]
        if u >= 2:
            top = min(top, w + values[u - 1, v] - values[u - 2, v - 1])
        for x in range(values[u - 1, v] + values[u, v - 1] - w, top + 1):
            values[u, v] = x
            fill(k + 1)

    fill(0)
    return sorted(found)


def test_bounded_search_equals_the_leaf_checked_search_on_tiny_types():
    types = random_types(random.Random(4), 300, 4)
    assert any(not leaf_checked_hives(*t) for t in types)
    for t in types:
        assert [h.ints for h in enumerate_hives(*t)] == leaf_checked_hives(*t), t


def test_sizes_interleaved_in_one_process_each_count_their_own_type():
    # _hive_plan is built once per n; types of every n from 1 to 7, in
    # turn, must each be counted on the plan of their own size
    rng = random.Random(31)
    for _ in range(10):
        for n in rng.sample(range(1, 8), 7):
            (t,) = random_types(rng, 1, n, max_part=3, min_n=n)
            assert lr_coefficient(*t) == lr_oracle(*t), t


def test_the_boundary_rhombi_are_checked_on_each_call_values():
    # at n = 2 every rhombus lies on the boundary, so the plan holds only
    # their slots: a type failing one right after one that passes must
    # still count 0
    assert lr_coefficient((1, 1), (1, 1), (2, 2)) == 1
    assert lr_coefficient((1, 1), (1, 1), (3, 1)) == 0
    assert lr._hives((1, 1), (1, 1), (3, 1)) == ([], 0)
    assert lr_coefficient((1, 1), (1, 1), (2, 2)) == 1


def leaf_checked_pairs(lam, mu, nu):
    """The pair search as it was: every filling with the right row and
    column sums completed, then is_l_tight(b) and is_d_tight(concat(a, b))
    checked on it."""
    n = len(nu)
    a = diag(lam)
    rsums = [nu[j] - lam[j] for j in range(n)]
    if any(r < 0 for r in rsums) or sum(mu) != sum(rsums):
        return []
    results = []
    rows = [[0] * n for _ in range(n)]
    col_left = list(mu)

    def fill(j, i, row_left):
        if i == j:  # the diagonal cell takes what the row has left
            if row_left > col_left[j]:
                return
            rows[j][j] = row_left
            col_left[j] -= row_left
            if j + 1 < n:
                fill(j + 1, 0, rsums[j + 1])
            elif not any(col_left):
                b = Array(rows)
                if is_l_tight(b) and is_d_tight(concat(a, b)):
                    results.append(b.ints)
            col_left[j] += row_left
            return
        for x in range(min(row_left, col_left[i]) + 1):
            rows[j][i] = x
            col_left[i] -= x
            fill(j, i + 1, row_left - x)
            col_left[i] += x

    fill(0, 0, rsums[0])
    return results


def test_row_pruned_pair_search_equals_the_leaf_checked_search():
    types = random_types(random.Random(12), 300, 5) + random_types(random.Random(13), 40, 6, 2)
    assert any(not leaf_checked_pairs(*t) for t in types)
    for t in types:
        assert [b.ints for b in lr._standard_pairs(*t)[0]] == leaf_checked_pairs(*t), t
