"""The theorem suites on rational data, past the acceptance gate's sizes.

The gate (test_acceptance.py) runs thm1, thm3, thm4 and involution on
integer pairs at small sizes.  Here the same suites draw masses with
denominators up to 4, so every theorem also runs through the per-value
(Fraction) path of the scalar row gate, and at larger n.
"""

import random

from octarray import checks


def test_thm1_on_rational_couples_up_to_n10():
    report = checks.check_theorem1(cases=20, seed=0, max_n=10, max_denom=4)
    assert report.passed, report.summary()


def test_thm3_on_rational_couples_at_n8():
    report = checks.check_theorem3(cases=20, seed=0, n=8, max_denom=4)
    assert report.passed, report.summary()


def test_thm4_on_rational_hives_up_to_n9():
    report = checks.check_theorem4(cases=20, seed=0, max_n=9, max_denom=4)
    assert report.passed, report.summary()


def test_involution_on_rational_pairs_up_to_n9():
    report = checks.check_involution(cases=30, seed=0, max_n=9, max_denom=4)
    assert report.passed, report.summary()


def test_rational_draws_are_rational():
    # the suites above would test nothing new if max_denom were dropped
    p1, p2 = checks.random_couple(random.Random(0), 4, max_denom=4)
    values = [x for p in (p1, p2) for a in (p.a, p.b) for r in a.rows for x in r]
    assert any(not isinstance(x, int) for x in values)
