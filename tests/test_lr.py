import pytest

from octarray import (
    BijectionReport,
    ValidationError,
    enumerate_hives,
    enumerate_standard_pairs,
    increments,
    is_discrete_concave,
    lr_coefficient,
    lr_oracle,
    verify_associativity,
    verify_commutativity,
)


def test_known_coefficients():
    assert lr_coefficient((1,), (1,), (2,)) == 1
    assert lr_coefficient((1,), (1,), (1, 1)) == 1
    assert lr_coefficient((1,), (1,), (3,)) == 0
    assert lr_coefficient((2, 1), (2, 1), (3, 2, 1)) == 2
    assert lr_coefficient((2, 1, 0), (2, 1, 0), (3, 2, 1)) == 2


def test_mass_mismatch_gives_zero():
    assert lr_coefficient((2,), (1,), (2,)) == 0


def test_rejects_non_partitions():
    with pytest.raises(ValidationError):
        lr_coefficient((1, 2), (1,), (2, 2))
    with pytest.raises(ValidationError):
        lr_coefficient((1,), (-1,), (0,))


def test_enumerate_hives_are_concave_with_right_boundary():
    lam, mu, nu = (2, 1, 0), (2, 1, 0), (3, 2, 1)
    hives = enumerate_hives(lam, mu, nu)
    assert len(hives) == 2
    for h in hives:
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
    assert isinstance(r, BijectionReport)
    assert r.bijective
    assert r.left_count == lr_coefficient((2, 1), (1, 1), (3, 2))


def test_verify_associativity_report():
    r = verify_associativity((1,), (1,), (1,), (2, 1), bound=3)
    assert r.bijective
    assert r.left_count == r.right_count


def test_padding_is_harmless():
    assert lr_coefficient((2, 1), (2, 1), (3, 2, 1)) == \
        lr_coefficient((2, 1, 0, 0), (2, 1, 0), (3, 2, 1, 0))


@pytest.mark.parametrize("lam, mu, nu, fillings", [
    ((2, 1, 0), (2, 1, 0), (3, 2, 1), 2),
    ((3, 2, 1, 0), (2, 2, 1, 0), (5, 3, 2, 1), 8),
])
def test_hive_search_completes_a_pinned_number_of_fillings(monkeypatch, lam, mu,
                                                           nu, fillings):
    # the search's bounds, not its leaf check, decide how many fillings it
    # completes: a bound loosened by one completes more of them
    from octarray import lr

    real, made = lr.is_discrete_concave, []  # one leaf check per completed filling
    monkeypatch.setattr(lr, "is_discrete_concave", lambda h: made.append(h) or real(h))
    hives = enumerate_hives(lam, mu, nu)
    assert len(made) == fillings
    assert len(hives) == lr_oracle(lam, mu, nu)
