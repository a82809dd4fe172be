"""JSON encoding and decoding for the core objects.

Scalars are plain JSON integers or strings of the form ``"p/q"``.  Array
rows are listed bottom row first, matching the in-memory layout.

Arrays cross the boundary in scaled form: decode_scaled reads one JSON
array into (D, rows of ints), each value once through read_scalar, with D
the lcm of the reduced denominators, and checks the rows there; encode_scaled
writes such rows back, each value v / D reduced by scaled_to_json.  The CLI's
array commands run their int kernels between the two, so no Array and no
Fraction is made; decode_array and encode_array are the same reader and
writer around an Array, and encode_triangle uses the same writer.
"""

from .arrays import Array
from .errors import ValidationError
from .hives import AntiStandardPair, StandardPair, TriangleFunction
from .scalars import (checked_row, parse_scalar, read_scalar, scale_rows, scaled_to_json,
                      unscale_rows)


def json_rows(D: int, rows) -> list:
    """Rows of ints scaled by D as JSON rows, each value divided back."""
    if D == 1:
        return [list(row) for row in rows]
    return [[scaled_to_json(v, D) for v in row] for row in rows]


def encode_scaled(D: int, rows) -> dict:
    """The JSON array of rows of ints scaled by D."""
    return {"type": "array", "n": len(rows[0]), "m": len(rows), "rows": json_rows(D, rows)}


def encode_array(a: Array) -> dict:
    return encode_scaled(*scale_rows(a.rows))


def encode_triangle(f: TriangleFunction) -> dict:
    return {
        "type": "triangle",
        "n": f.n,
        "rows": json_rows(*scale_rows(f.values)),
    }


def encode_pair(p) -> dict:
    return {
        "type": "pair",
        "kind": p.kind,
        "a": encode_array(p.a),
        "b": encode_array(p.b),
    }


def _object(obj) -> dict:
    if not isinstance(obj, dict):
        raise TypeError(f"expected a JSON object, got {type(obj).__name__}")
    return obj


def _rows_of(obj) -> list:
    rows = _object(obj).get("rows")
    if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
        raise KeyError("rows")
    return rows


def decode_scaled(obj: dict):
    """An array object as (D, rows of ints scaled by D), checked as Array
    checks its rows: every scalar, in row-major order, then the shape and
    the signs, then the declared n and m."""
    D, rows = scale_rows(_rows_of(obj), read_scalar)
    if not rows or not rows[0]:
        raise ValidationError("array must have at least one row and column")
    n, m = len(rows[0]), len(rows)
    if any(len(row) != n for row in rows):
        raise ValidationError("ragged array")
    if min(map(min, rows)) < 0:
        v = next(v for row in rows for v in row if v < 0)
        raise ValidationError(f"negative mass {scaled_to_json(v, D)}")
    if "n" in obj and obj["n"] != n:
        raise ValidationError(f"declared n={obj['n']} but rows have {n} columns")
    if "m" in obj and obj["m"] != m:
        raise ValidationError(f"declared m={obj['m']} but there are {m} rows")
    return D, rows


def decode_array(obj: dict) -> Array:
    D, rows = decode_scaled(obj)
    return Array(unscale_rows(rows, D))


def decode_triangle(obj: dict) -> TriangleFunction:
    return TriangleFunction([checked_row(row, parse_scalar) for row in _rows_of(obj)])


def decode_pair(obj: dict):
    cls = {"standard": StandardPair, "antistandard": AntiStandardPair}.get(
        _object(obj).get("kind")
    )
    if cls is None:
        raise KeyError("kind")
    return cls(decode_array(obj["a"]), decode_array(obj["b"]))


_DECODERS = {
    "array": decode_array,
    "triangle": decode_triangle,
    "pair": decode_pair,
}


def decode(obj):
    """Decode any tagged object by its ``type`` field."""
    if not isinstance(obj, dict):
        raise KeyError("type")
    return _DECODERS[obj["type"]](obj)
