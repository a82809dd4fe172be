import pytest

from octarray import checks


@pytest.mark.parametrize("suite", sorted(checks.SUITES))
def test_suite_passes_at_small_size(suite):
    fn = checks.SUITES[suite]
    if suite in ("assoc-count", "commut-count"):
        report = fn(maxtotal=3)
    else:
        report = fn(cases=10, seed=123)
    assert report.passed, report.summary()
    assert report.cases > 0


def test_reports_are_seed_reproducible():
    a = checks.check_involution(cases=5, seed=42)
    b = checks.check_involution(cases=5, seed=42)
    assert a.passed and b.passed and a.cases == b.cases


def test_summary_mentions_failures():
    r = checks.CheckReport("demo", 1, ["broken"])
    assert not r.passed
    assert "broken" in r.summary()


def test_a_bijection_check_reports_what_nothing_maps_to():
    same = lambda x: x
    r = checks._bijection_check("demo", [1, 2], [2, 1, 3], same, same, "not undone")
    assert (r.cases, r.failures) == (2, ["sizes differ: 2 left, 3 right"])
    assert checks._bijection_check("demo", [1, 2], [2, 1], same, same, "").passed
    r = checks._bijection_check("demo", [1, 2], [1, 2], lambda x: 1, same, "not undone")
    assert r.failures == ["collision at 1", "not undone at 2"]
    r = checks._bijection_check("demo", [1, 2], [1, 2], lambda x: x + 1,
                                lambda x: x - 1, "not undone")
    assert r.failures == ["image of 2 not in target set"]
