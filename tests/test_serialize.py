import re
from fractions import Fraction

import pytest

from octarray import Array, TriangleFunction, ValidationError
from octarray import serialize
from octarray.hives import StandardPair
from octarray.arrays import diag


def test_array_round_trip_with_fractions():
    a = Array([[Fraction(1, 2), 2], [0, Fraction(7, 3)]])
    doc = serialize.encode_array(a)
    assert doc["rows"][0][0] == "1/2"
    assert serialize.decode(doc) == a


def test_triangle_round_trip(f4_triangle):
    doc = serialize.encode_triangle(f4_triangle)
    assert serialize.decode(doc) == f4_triangle


def test_pair_round_trip():
    p = StandardPair(diag((2, 1)), Array([[1, 0], [1, 1]]))
    doc = serialize.encode_pair(p)
    assert doc["kind"] == "standard"
    assert serialize.decode(doc) == p


def test_decode_rejects_inconsistent_sizes():
    with pytest.raises(ValidationError):
        serialize.decode_array({"type": "array", "n": 5, "rows": [[1, 2]]})


def test_decode_missing_type():
    with pytest.raises(KeyError):
        serialize.decode({"rows": [[1]]})


@pytest.mark.parametrize("doc, text", [
    ({"type": "triangle", "rows": [[0], [1, 2]], "n": 7},
     "declared n=7 but the rows make a triangle of size 1"),
    ({"type": "triangle", "rows": [[0], [1, 2]], "n": True},
     "declared n=True but the rows make a triangle of size 1"),
    ({"type": "triangle", "rows": [[0]], "n": 0.0},
     "declared n=0.0 but the rows make a triangle of size 0"),
    ({"type": "array", "rows": [["1/2"]], "n": True},
     "declared n=True but rows have 1 columns"),
    ({"type": "array", "rows": [[1]], "m": 1.0}, "declared m=1.0 but there are 1 rows"),
    ({"type": "array", "rows": [[1, "1/2"]], "n": "2"},
     "declared n='2' but rows have 2 columns"),
    ({"type": "array", "rows": [[1, 2]], "n": 2, "m": None},
     "declared m=None but there are 1 rows"),
], ids=["triangle 7", "triangle true", "triangle 0.0", "array true", "array 1.0",
        "array '2'", "array null"])
def test_a_declared_size_must_be_the_exact_int_the_rows_have(doc, text):
    with pytest.raises(ValidationError, match=f"^{re.escape(text)}$"):
        serialize.decode(doc)


def test_a_declared_size_that_the_rows_have_is_accepted():
    t = serialize.decode({"type": "triangle", "rows": [[0], [1, 2]], "n": 1})
    assert t == TriangleFunction([[0], [1, 2]])
    a = serialize.decode({"type": "array", "rows": [[1, "1/2"]], "n": 2, "m": 1})
    assert a == Array([[1, Fraction(1, 2)]])
