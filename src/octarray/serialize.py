"""JSON encoding and decoding for the core objects.

Scalars are plain JSON integers or strings of the form ``"p/q"``.  Array
rows are listed bottom row first, matching the in-memory layout.
"""

from .arrays import Array
from .errors import ValidationError
from .hives import AntiStandardPair, StandardPair, TriangleFunction
from .scalars import checked_row, parse_scalar, scalar_to_json


def encode_array(a: Array) -> dict:
    return {
        "type": "array",
        "n": a.n,
        "m": a.m,
        "rows": [[scalar_to_json(x) for x in row] for row in a.rows],
    }


def encode_triangle(f: TriangleFunction) -> dict:
    return {
        "type": "triangle",
        "n": f.n,
        "rows": [[scalar_to_json(x) for x in row] for row in f.values],
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


def _scalar_rows(obj):
    rows = _object(obj).get("rows")
    if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
        raise KeyError("rows")
    return [checked_row(row, parse_scalar) for row in rows]


def decode_array(obj: dict) -> Array:
    a = Array(_scalar_rows(obj))
    if "n" in obj and obj["n"] != a.n:
        raise ValidationError(f"declared n={obj['n']} but rows have {a.n} columns")
    if "m" in obj and obj["m"] != a.m:
        raise ValidationError(f"declared m={obj['m']} but there are {a.m} rows")
    return a


def decode_triangle(obj: dict) -> TriangleFunction:
    return TriangleFunction(_scalar_rows(obj))


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
