import io
import itertools
import json
import random
import re
import sys
from fractions import Fraction

import pytest

from octarray import serialize
from octarray.arrays import Array, CornerFunction
from octarray.cli import main
from octarray.errors import ValidationError
from octarray.hives import TriangleFunction
from octarray.scalars import (
    _quoted,
    check_partition,
    normalize,
    pad_partitions,
    parse_scalar,
    partial_sums,
    scalar_to_json,
    scale_rows,
    trim,
)


def test_normalize_collapses_integral_fractions():
    assert normalize(Fraction(4, 2)) == 2
    assert isinstance(normalize(Fraction(4, 2)), int)
    assert normalize(Fraction(1, 2)) == Fraction(1, 2)


def test_parse_scalar_reads_a_fraction_in_lowest_terms():
    assert parse_scalar(Fraction(2, 4)) == Fraction(1, 2)
    assert type(parse_scalar(Fraction(4, 2))) is int
    assert normalize is parse_scalar


def test_scale_rows_reads_every_value():
    with pytest.raises(ValidationError, match="^inexact scalar not allowed: True$"):
        scale_rows([[True]])
    assert scale_rows([[1, "1/2"], [Fraction(2, 3), 0]]) == (6, ((6, 3), (4, 0)))


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


def test_check_partition_reads_integer_partitions_only():
    assert check_partition(["3", Fraction(4, 2), 0]) == (3, 2, 0)
    assert all(type(x) is int for x in check_partition(["3", Fraction(4, 2)]))
    with pytest.raises(ValidationError, match="^lam must be an integer partition$"):
        check_partition((2, Fraction(3, 2)), "lam")
    with pytest.raises(ValidationError, match="not weakly decreasing"):
        check_partition((1, 2))


def test_check_partition_quotes_six_parts_and_40_digits_whole():
    text = "^partition is not weakly decreasing non-negative: "
    for parts, quoted in [((1, 2, 3, 4, 5, 6), "(1, 2, 3, 4, 5, 6)"),
                          ((1, 2, 3, 4, 5, 6, 7), "(1, 2, 3, 4, 5, 6, ...)"),
                          # a fault past the cut is named with its index
                          ((1, 1, 1, 1, 1, 1, 2), "(1, 1, 1, 1, 1, 1, ...) at part 6: 2"),
                          ((5, 4, 3, 2, 1, 0, 0, -1), "(5, 4, 3, 2, 1, 0, ...) at part 7: -1"),
                          ((9,) * 20 + (10 ** 4000,), "(9, 9, 9, 9, 9, 9, ...) at part 20: 1"
                           + "0" * 17 + "..." + "0" * 19),
                          ((1, 10 ** 39), "(1, 1" + "0" * 39 + ")"),
                          ((1, 10 ** 4000), "(1, 1" + "0" * 17 + "..." + "0" * 19 + ")")]:
        with pytest.raises(ValidationError, match=re.escape(quoted).join([text, "$"])):
            check_partition(parts)


PARTS = [3, 2, 1, 0, -1, True, 1.0, Fraction(4, 2), Fraction(1, 2), "2"]


def partition_by_normalize(p):
    """check_partition's reference: every part read by normalize, then the
    order and integer checks; (the tuple, its types) or the error text."""
    try:
        seq = tuple(normalize(x) for x in p)
    except ValidationError as exc:
        return str(exc)
    if any(x < y for x, y in zip(seq, seq[1:])) or (seq and seq[-1] < 0):
        k = next(k for k, x in enumerate(seq) if x < 0 or k and x > seq[k - 1])
        at = f" at part {k}: {_quoted(seq[k])}" if k >= 6 else ""
        return f"partition is not weakly decreasing non-negative: {_quoted(seq)}{at}"
    if any(type(x) is not int for x in seq):
        return "partition must be an integer partition"
    return seq, [type(x) for x in seq]


def checked_partition(p):
    try:
        seq = check_partition(p)
    except ValidationError as exc:
        return str(exc)
    return seq, [type(x) for x in seq]


def test_check_partition_takes_exact_ints_whole_and_reads_other_parts():
    # every tuple of up to three parts, and random longer ones, as a tuple
    # and as a one-shot generator
    rng = random.Random(38)
    parts = [p for k in range(4) for p in itertools.product(PARTS, repeat=k)]
    parts += [tuple(rng.choices(PARTS[:5] if rng.random() < 0.5 else PARTS, k=rng.randint(4, 9)))
              for _ in range(400)]
    for _ in range(100):  # exact ints: sorted, then with the last part too big or negative
        p = tuple(sorted(rng.choices(range(6), k=rng.randint(4, 9)), reverse=True))
        parts += [p, p[:-1] + (p[0] + 1,), p[:-1] + (-1,)]
    outcomes = set()
    for p in parts:
        expected = partition_by_normalize(p)
        assert checked_partition(p) == expected, p
        assert checked_partition(x for x in p) == expected, p
        outcomes.add(expected if type(expected) is str else "ok")
    assert {"ok", "inexact scalar not allowed: True",
            "partition must be an integer partition"} <= outcomes
    assert any(" at part " in o for o in outcomes)


def test_an_lr_argument_names_a_fault_past_its_sixth_part(capsys):
    assert main(["lr", "1,1,1,1,1,1,2", "1", "1"]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "validation", "detail": "argument 0 is not weakly decreasing "
        "non-negative: (1, 1, 1, 1, 1, 1, ...) at part 6: 2"}


def test_pad_partitions_pads_to_a_common_length_of_at_least_one():
    assert pad_partitions((2, 1), (), (3,)) == ((2, 1), (0, 0), (3, 0))
    assert pad_partitions((), ()) == ((0,), (0,))
    with pytest.raises(ValidationError, match="^argument 1 must be an integer partition$"):
        pad_partitions((1,), ("1/2",))


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


BAD_SCALARS = {True: "inexact scalar not allowed: True",
               False: "inexact scalar not allowed: False",
               1.5: "inexact scalar not allowed: 1.5",
               None: "bad scalar None",
               "[1]": "bad scalar [1]",
               "1e5": "bad scalar string '1e5'",
               "1/0": "bad scalar string '1/0'"}


@pytest.mark.parametrize("bad", list(BAD_SCALARS), ids=repr)
def test_every_entry_gives_the_cli_text_for_a_bad_scalar(bad, capsys, monkeypatch):
    """One reader of exact values: the constructors, normalize, scale_rows,
    decode and the CLI all raise parse_scalar's text."""
    x = [1] if bad == "[1]" else bad
    texts = set()
    for build in (lambda: Array([[x]]), lambda: CornerFunction([[0, 0], [0, x]]),
                  lambda: TriangleFunction([[0], [0, x]]), lambda: normalize(x),
                  lambda: parse_scalar(x), lambda: scale_rows([[x]]),
                  lambda: serialize.decode({"type": "array", "rows": [[x]]})):
        with pytest.raises(ValidationError) as exc:
            build()
        texts.add(str(exc.value))
    monkeypatch.setattr(sys, "stdin", io.StringIO(
        json.dumps({"type": "array", "rows": [[x]]})))
    assert main(["condense", "down"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    texts.add(json.loads(err)["detail"])
    assert texts == {BAD_SCALARS[bad]}
