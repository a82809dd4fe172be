"""JSON encoding and decoding for the core objects.

Scalars are plain JSON integers or strings of the form ``"p/q"``.  Array
rows are listed bottom row first, matching the in-memory layout.

Every value is read once, by the reader the library uses
(scalars.scale_rows), and every array and triangle is checked once, by its
constructor: decode_array and decode_triangle call the constructors
themselves, then check the declared sizes.  encode_array writes an
Array's state, its ints over D, each value v / D reduced by scaled_to_json,
so reading and writing a rational array makes no Fraction; encode_triangle
uses the same writer.
"""

from .arrays import Array
from .errors import ValidationError
from .hives import AntiStandardPair, StandardPair, TriangleFunction
from .scalars import _quoted, scaled_to_json


def json_rows(D: int, rows) -> list:
    """Rows of ints scaled by D as JSON rows, each value divided back."""
    if D == 1:
        return [list(row) for row in rows]
    return [[scaled_to_json(v, D) for v in row] for row in rows]


def encode_array(a: Array) -> dict:
    return {"type": "array", "n": a.n, "m": a.m, "rows": json_rows(a.D, a.ints)}


def encode_triangle(f: TriangleFunction) -> dict:
    return {"type": "triangle", "n": f.n, "rows": json_rows(f.D, f.ints)}


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


def _declared(obj: dict, key: str, size: int, rows: str) -> None:
    """Raise unless the size the object declares under key, if any, is an
    exact int equal to size; rows says what the rows have, {} for size."""
    declared = obj.get(key, size)
    if type(declared) is not int or declared != size:
        raise ValidationError(
            f"declared {key}={_quoted(declared)} but {rows.format(size)}")


def decode_array(obj: dict) -> Array:
    """An array object, checked as Array checks its rows: every scalar, in
    row-major order, then the shape and the signs; then the declared n and
    m."""
    a = Array(_rows_of(obj))
    _declared(obj, "n", a.n, "rows have {} columns")
    _declared(obj, "m", a.m, "there are {} rows")
    return a


def decode_triangle(obj: dict) -> TriangleFunction:
    """A triangle object, checked as TriangleFunction checks it, then its n."""
    f = TriangleFunction(_rows_of(obj))
    _declared(obj, "n", f.n, "the rows make a triangle of size {}")
    return f


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
