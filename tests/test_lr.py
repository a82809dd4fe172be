import inspect
import json
import random
import sys
import tracemalloc
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


def nodes_entered(search, backoff, lam, mu, nu):
    """What search finds on (lam, mu, nu), and the nodes it enters there:
    run to its end, it backs off each node it entered once, so these are the
    passes over the line of its source that reads backoff."""
    code = search.__code__
    lines, start = inspect.getsourcelines(search)
    line = start + next(i for i, s in enumerate(lines) if s.strip() == backoff)
    entered = 0

    def trace(frame, event, arg):
        nonlocal entered
        entered += event == "line" and frame.f_lineno == line
        return trace

    sys.settrace(lambda frame, event, arg: trace if frame.f_code is code else None)
    try:
        found = list(search(lam, mu, nu))
    finally:
        sys.settrace(None)
    return found, entered


@pytest.mark.parametrize("lam, mu, nu, entered", [
    ((2, 1, 0), (2, 1, 0), (3, 2, 1), 1),
    ((3, 2, 1, 0), (2, 2, 1, 0), (5, 3, 2, 1), 4),
])
def test_hive_search_enters_a_pinned_number_of_points(lam, mu, nu, entered):
    # every rhombus bounds the search and nothing checks its leaves, so the
    # bounds alone decide the output: a bound loosened by one enters more
    # points or completes fillings that are not hives
    hives, count = nodes_entered(lr._hives, "tops[k] = None", lam, mu, nu)
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
    pairs, count = nodes_entered(lr._standard_pairs, "vals[k] = -1", lam, mu, nu)
    assert count == entered
    assert len(pairs) == lr_oracle(lam, mu, nu)


def hive_count(*t):
    return sum(1 for _ in lr._hives(*t))


def pair_count(*t):
    return sum(1 for _ in lr._standard_pairs(*t))


# each search on a type: what it counts there, and the steps it takes, one
# pass of its loop each.  Every rhombus bounds the hive search and both
# tightness conditions prune the pair search as each row closes, with no
# leaf checked, so a bound loosened or a check skipped takes more steps or
# counts fillings that are not hives or pairs.  The hive types take more
# steps than their plans have points, so the steps meet the limit first
SMALL = ((2, 1, 0), (2, 1, 0), (3, 2, 1))
LIMITED = ((3, 2, 1, 0), (2, 2, 1, 0), (5, 3, 2, 1))
ONE_POINT = ((20, 10, 0), (20, 10, 0), (30, 20, 10))  # one interior point, 11 values
SEARCHES = {"hives": (hive_count, ONE_POINT, 11, 23),
            "hives-4-parts": (hive_count, ((3, 2, 1, 0), (3, 2, 1, 0), (4, 3, 3, 2)), 3, 17),
            "pairs": (pair_count, LIMITED, 2, 33),
            "pairs-3-parts": (pair_count, SMALL, 2, 23),
            "oracle": (lr_oracle, LIMITED, 2, 15)}
NAMES = {hive_count: "hive search", pair_count: "pair search", lr_oracle: "tableau count"}


@pytest.mark.parametrize("name", SEARCHES)
def test_a_search_may_enter_exactly_max_search_nodes(monkeypatch, name):
    count, t, c, steps = SEARCHES[name]
    assert lr_oracle(*t) == c
    monkeypatch.setattr(lr, "MAX_SEARCH_NODES", steps)
    assert count(*t) == c


@pytest.mark.parametrize("name", SEARCHES)
def test_a_search_past_max_search_nodes_fails_naming_the_limit(monkeypatch, name):
    count, t, _, steps = SEARCHES[name]
    monkeypatch.setattr(lr, "MAX_SEARCH_NODES", steps - 1)
    with pytest.raises(ValidationError, match=f"^the {NAMES[count]} took more than "
                                              f"MAX_SEARCH_NODES = {steps - 1} steps$"):
        count(*t)


def test_a_hive_search_with_one_point_counts_each_value_as_steps(monkeypatch):
    # one point entered completes one hive per value it takes: 100,001
    # here, so a limit on the points entered would not bound the work
    monkeypatch.setattr(lr, "MAX_SEARCH_NODES", 1000)
    k = 10 ** 5
    with pytest.raises(ValidationError, match="MAX_SEARCH_NODES = 1000 steps"):
        hive_count((2 * k, k, 0), (2 * k, k, 0), (3 * k, 2 * k, k))


def test_lr_coefficient_keeps_no_hive(monkeypatch):
    # the hive search completes its 100,001 hives in 200,003 steps, exactly
    # the limit, and the pair search then passes it
    k = 10 ** 5
    monkeypatch.setattr(lr, "MAX_SEARCH_NODES", 2 * k + 3)
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="^the pair search"):
            lr_coefficient((2 * k, k, 0), (2 * k, k, 0), (3 * k, 2 * k, k))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2 ** 20


def test_a_plan_past_the_limit_is_never_built(monkeypatch):
    def unreachable(n):
        raise AssertionError(f"the hive plan of size {n} was built")

    monkeypatch.setattr(lr, "_hive_plan", unreachable)
    monkeypatch.setattr(lr, "MAX_SEARCH_NODES", 9)  # the plan of 3 parts has 10 points
    for search in (lr_coefficient, enumerate_hives):
        with pytest.raises(ValidationError, match="^the hive search took more than "):
            search((0, 0, 0), (0, 0, 0), (0, 0, 0))
    monkeypatch.undo()
    # two million cells at 2,000 parts, and a trillion boxes for a type
    # whose hive and pair searches take one step and two
    with pytest.raises(ValidationError, match="^the pair search took more than "):
        pair_count(*[(0,) * 2000] * 3)
    with pytest.raises(ValidationError, match="^the tableau count took more than "):
        lr_oracle((0,), (10 ** 12,), (10 ** 12,))


def test_lr_past_max_search_nodes_exits_1_naming_the_limit(monkeypatch, capsys):
    from octarray import cli

    monkeypatch.setattr(lr, "MAX_SEARCH_NODES", 3)
    assert cli.main(["lr", "3,2,1", "2,2,1", "5,3,2,1"]) == 1
    error = json.loads(capsys.readouterr().err)
    assert error == {"error": "validation", "detail": "the hive search took more than "
                                                      "MAX_SEARCH_NODES = 3 steps"}


def test_lr_on_parts_near_a_billion_exits_1_naming_the_limit(capsys):
    from octarray import cli

    argv = ["lr", "2000000000,1000000000", "2000000000,1000000000",
            "3000000000,2000000000,1000000000"]
    assert cli.main(argv) == 1
    assert json.loads(capsys.readouterr().err)["detail"] == (
        "the hive search took more than MAX_SEARCH_NODES = 1000000 steps")


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
    assert hive_count((1, 1), (1, 1), (3, 1)) == 0
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
        assert list(lr._standard_pairs(*t)) == leaf_checked_pairs(*t), t
