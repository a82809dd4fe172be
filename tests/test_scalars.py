import re
from fractions import Fraction

import pytest

from octarray.arrays import Array
from octarray.errors import ValidationError
from octarray.scalars import (
    is_integral,
    normalize,
    parse_scalar,
    partial_sums,
    scalar_to_json,
    trim,
)


def test_normalize_collapses_integral_fractions():
    assert normalize(Fraction(4, 2)) == 2
    assert isinstance(normalize(Fraction(4, 2)), int)
    assert normalize(Fraction(1, 2)) == Fraction(1, 2)


def test_parse_scalar():
    assert parse_scalar(3) == 3
    assert parse_scalar("3/4") == Fraction(3, 4)
    assert parse_scalar("6/2") == 3


@pytest.mark.parametrize("bad", [True, 1.5, "abc", None, [1]])
def test_parse_scalar_rejects(bad):
    with pytest.raises((ValidationError, TypeError)):
        parse_scalar(bad)


@pytest.mark.parametrize("text", ["1e5000", "1e3", "0.5", "2.0", "+3", " 3", "1_0",
                                  "\u0663", "3/-4", "-", "1/0", "9" * 5000])
def test_parse_scalar_takes_only_integer_and_fraction_strings(text):
    with pytest.raises(ValidationError, match="bad scalar string"):
        parse_scalar(text)


def test_parse_scalar_keeps_signed_strings():
    assert parse_scalar("-3") == -3
    assert parse_scalar("-1/2") == Fraction(-1, 2)
    assert parse_scalar("0/5") == 0


def test_scalar_json_round_trip():
    for x in [0, 7, Fraction(2, 3)]:
        assert parse_scalar(scalar_to_json(x)) == x


def test_is_integral():
    assert is_integral(5)
    assert not is_integral(Fraction(1, 3))


def test_partial_sums_has_leading_zero():
    assert partial_sums([2, 3, 1]) == (0, 2, 5, 6)


def test_trim():
    assert trim((3, 2, 0, 0)) == (3, 2)
    assert trim((0, 0)) == ()


@pytest.mark.parametrize("text", ["1e20000", " 3", "0.5", "+3", "abc", "1/0"])
def test_library_constructors_take_only_the_cli_scalar_strings(text):
    # one grammar for Array(...) and the CLI: "1e20000" would be a
    # 20,001-digit mass, and "abc" or "1/0" no bare ValueError
    with pytest.raises(ValidationError, match=re.escape(f"bad scalar string {text!r}")):
        Array([[text, 1]])


def test_library_constructors_keep_integer_and_fraction_strings():
    assert Array([["3", "-0", "6/4"]]).rows == ((3, 0, Fraction(3, 2)),)
    assert type(normalize("8/2")) is int
