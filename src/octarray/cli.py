"""Command line interface.

Reads JSON from stdin (or ``--input FILE``), writes JSON to stdout.
Exit codes: 0 success, 1 domain error (invalid object for the requested
operation), 2 malformed input (bad JSON, missing fields, bad arguments),
3 internal error (an AssertionError: a broken invariant of the program, not
of the input).  Each failure writes {"error": ..., "detail": ...} to
stderr, apart from argparse's own usage errors.

The array commands (condense in each direction, rsk and rsk --inverse)
read each array once into its scaled form, (D, rows of ints) with D the lcm
of its reduced denominators, where every value and the shape are checked
(serialize.decode_scaled); run the int kernels on those rows; and divide
back only when writing (serialize.encode_scaled).  They make no Array and no
Fraction.  rsk --inverse scales d and l to the lcm of their two D.

Output is json.dumps(obj, indent=2) byte for byte, written by _dumps: rows of
exact ints take one %-format and flat rows of ints and strings one C-encoder
call; every other value takes json.dumps.  An output integer past the
interpreter's int-to-str digit limit, or a term of an output "p/q" past it,
exits 1 with an error naming the limit.
"""

import argparse
import functools
import json
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii
from math import lcm

from .arrays import Array, transpose
from .bijections import (
    associate,
    associate_functional,
    associate_inverse,
    com_prime,
    commute,
    commute_sp,
    dtight_to_ssyt,
    pair_to_lr_tableau,
    render_skew,
    render_ssyt,
)
from .condense import down_rows, left_rows, right_rows, up_rows
from .errors import ValidationError
from .hives import (
    AntiStandardPair,
    StandardPair,
    hive_to_pair,
    increments,
    is_discrete_concave,
    pair_to_hive,
)
from .lr import lr_coefficient, lr_oracle
from .octahedron import (
    PRISM_FRAME,
    is_flat_concave,
    prism_propagate,
    prism_top,
    rsk_inverse_rows,
    rsk_rows,
)
from .octahedron import rsk, rsk_inverse  # noqa: F401 -- bench/tracing.py wraps cli.rsk*
from .scalars import parse_scalar, scalar_to_json, too_many_digits
from . import checks, serialize


def _read_json(args):
    try:
        if args.input and args.input != "-":
            with open(args.input) as fh:
                return json.load(fh)
        return json.load(sys.stdin)
    except (OSError, ValueError, RecursionError) as exc:  # bad, too long or too deep
        raise MalformedInput(str(exc))


class MalformedInput(Exception):
    pass


def _decode(obj, decoder):
    try:
        return decoder(obj)
    except (KeyError, TypeError) as exc:
        raise MalformedInput(f"bad input object: {exc}")


@functools.cache
def _row_encoder(sep):
    return json.JSONEncoder(separators=("," + sep, ": ")).encode


def _dumps(obj, pad="\n"):
    """json.dumps(obj, indent=2), byte for byte, for dicts with str keys."""
    inner = pad + "  "
    if isinstance(obj, dict) and obj:
        items = (inner + encode_basestring_ascii(k) + ": " + _dumps(v, inner)
                 for k, v in obj.items())
        return "{" + ",".join(items) + pad + "}"
    if not isinstance(obj, (list, tuple)) or not obj:
        return json.dumps(obj)
    kinds = set(map(type, obj))
    if kinds <= {int, str}:  # a flat row: one C-encoder call
        return "[" + inner + _row_encoder(inner)(obj)[1:-1] + pad + "]"
    if (kinds <= {list, tuple} and obj[0] and len(set(map(len, obj))) == 1
            and set(map(type, chain.from_iterable(obj))) <= {int}):
        # equal rows of exact ints: one %-format over all their values
        cell = inner + "  "
        row = "[" + cell + ("," + cell).join(["%d"] * len(obj[0])) + inner + "]"
        text = "[" + ",".join([inner + row] * len(obj)) + pad + "]"
        return text % tuple(chain.from_iterable(obj))
    return "[" + ",".join(inner + _dumps(v, inner) for v in obj) + pad + "]"


def _emit(obj):
    try:
        text = _dumps(obj)
    except ValueError:  # an int past the interpreter's int-to-str digit limit
        raise too_many_digits() from None
    sys.stdout.write(text + "\n")


def _int_arg(text) -> int:
    """An integer argument: "[-]p" in parse_scalar's grammar, ASCII digits."""
    try:
        if "/" not in text:
            return parse_scalar(text)
    except ValidationError:
        pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _partition_arg(text):
    try:
        return tuple(_int_arg(x) for x in text.split(",") if x != "")
    except argparse.ArgumentTypeError:
        raise MalformedInput(f"bad partition argument {text!r}")


def _rescaled(rows, k: int):
    """Rows of ints multiplied by k."""
    return rows if k == 1 else [tuple(x * k for x in row) for row in rows]


def cmd_condense(args):
    D, rows = _decode(_read_json(args), serialize.decode_scaled)
    core = {
        "down": down_rows,
        "left": left_rows,
        "right": right_rows,
        "up": up_rows,
    }[args.direction]
    rows = core(rows)
    out = serialize.encode_scaled(D, rows)
    if args.direction == "down":
        # the rows are down-tight, so their sums are the shape of the input
        out["shape"] = serialize.json_rows(D, [list(map(sum, rows))])[0]
    _emit(out)


def cmd_rsk(args):
    obj = _read_json(args)
    if args.inverse:
        if not isinstance(obj, dict) or "d" not in obj or "l" not in obj:
            raise MalformedInput("expected an object with 'd' and 'l' arrays")
        Dd, d = _decode(obj["d"], serialize.decode_scaled)
        Dl, l = _decode(obj["l"], serialize.decode_scaled)
        D = lcm(Dd, Dl)
        rows = rsk_inverse_rows(_rescaled(d, D // Dd), _rescaled(l, D // Dl), D)
        _emit(serialize.encode_scaled(D, rows))
    else:
        D, rows = _decode(obj, serialize.decode_scaled)
        d, l = rsk_rows(rows, D)
        _emit({"d": serialize.encode_scaled(D, d), "l": serialize.encode_scaled(D, l)})


def cmd_propagate(args):
    a = _decode(_read_json(args), serialize.decode_array)
    F = prism_propagate(a)
    top = prism_top(F)
    n, m, V = F.n, F.m, F.values
    _emit({
        "n": n,
        "m": m,
        "values": [[x, y, z, scalar_to_json(V[x, y, z])]  # in sorted (x, y, z) order
                   for x in range(n + 1) for y in range(m + 1)
                   for z in range(y, m + 1)],
        "top": [[scalar_to_json(v) for v in row] for row in top.values],
        # the recurrence fills every octahedron's top: polarized by construction
        "polarized": True,
        "polarized_concave": is_flat_concave(F, PRISM_FRAME),
    })


def cmd_hive(args):
    if args.from_pair and args.to_pair:
        raise MalformedInput("--from-pair and --to-pair exclude each other")
    obj = _read_json(args)
    if args.from_pair:
        p = _decode(obj, serialize.decode_pair)
        if not isinstance(p, StandardPair):
            raise ValidationError("hive construction expects a standard pair")
        _emit(serialize.encode_triangle(pair_to_hive(p)))
        return
    f = _decode(obj, serialize.decode_triangle)
    if args.to_pair:
        _emit(serialize.encode_pair(hive_to_pair(f)))
        return
    lam, mu, nu = increments(f)
    _emit({
        "concave": is_discrete_concave(f),
        "increments": {
            "lam": [scalar_to_json(x) for x in lam],
            "mu": [scalar_to_json(x) for x in mu],
            "nu": [scalar_to_json(x) for x in nu],
        },
    })


def cmd_commute(args):
    obj = _read_json(args)
    if args.functional:
        _emit(serialize.encode_triangle(com_prime(
            _decode(obj, serialize.decode_triangle))))
        return
    p = _decode(obj, serialize.decode_pair)
    q = commute_sp(p) if isinstance(p, StandardPair) else commute(p)
    _emit(serialize.encode_pair(q))


def cmd_associate(args):
    if args.functional and args.inverse:
        raise MalformedInput("--functional and --inverse exclude each other")
    obj = _read_json(args)
    if args.functional:
        if not isinstance(obj, dict) or "f" not in obj or "g" not in obj:
            raise MalformedInput("expected an object with 'f' and 'g' triangles")
        f = _decode(obj["f"], serialize.decode_triangle)
        g = _decode(obj["g"], serialize.decode_triangle)
        p, q = associate_functional(f, g)
        _emit({"p": serialize.encode_triangle(p),
               "q": serialize.encode_triangle(q)})
        return
    if not isinstance(obj, dict) or "first" not in obj or "second" not in obj:
        raise MalformedInput("expected an object with 'first' and 'second' pairs")
    p1 = _decode(obj["first"], serialize.decode_pair)
    p2 = _decode(obj["second"], serialize.decode_pair)
    fn = associate_inverse if args.inverse else associate
    o1, o2 = fn(p1, p2)
    _emit({"first": serialize.encode_pair(o1), "second": serialize.encode_pair(o2)})


def cmd_lr(args):
    lam = _partition_arg(args.lam)
    mu = _partition_arg(args.mu)
    nu = _partition_arg(args.nu)
    out = {"coefficient": lr_coefficient(lam, mu, nu)}
    if args.oracle:
        out["oracle"] = lr_oracle(lam, mu, nu)
    _emit(out)


def cmd_tableau(args):
    obj = _read_json(args)
    decoded = _decode(obj, serialize.decode)
    if isinstance(decoded, StandardPair):
        text = render_skew(pair_to_lr_tableau(decoded))
    elif isinstance(decoded, AntiStandardPair):
        raise ValidationError("tableau rendering expects a standard pair")
    elif isinstance(decoded, Array):
        a = transpose(decoded) if args.wall else decoded
        text = render_ssyt(dtight_to_ssyt(a))
    else:
        raise ValidationError("tableau rendering expects an array or a standard pair")
    sys.stdout.write(text + "\n")


def cmd_verify(args):
    for flag, value, least in (("--n", args.n, 1), ("--cases", args.cases, 0),
                               ("--max-mass", args.max_mass, 0)):
        if value is not None and value < least:
            raise MalformedInput(f"{flag} must be at least {least}, got {value}")
    suite = checks.SUITES[args.suite]
    # each suite takes the keywords it declares; other flags are ignored
    flags = {
        "seed": args.seed,
        "cases": args.cases,
        "n": args.n,
        "max_n": args.n,
        "max_mass": args.max_mass,
        "maxtotal": args.max_mass,
    }
    code = suite.__code__
    takes = code.co_varnames[:code.co_argcount + code.co_kwonlyargcount]
    report = suite(**{k: v for k, v in flags.items() if v is not None and k in takes})
    print(report.summary())
    if not report.passed:
        sys.exit(1)


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="octarray",
        description="Condensation, octahedron propagation, and tableau "
        "bijections on non-negative arrays.",
    )
    parser.add_argument("--input", "-i", help="read JSON from FILE instead of stdin")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("condense", help="condense an array to a tight one")
    p.add_argument("direction", choices=["down", "left", "right", "up"])
    p.set_defaults(fn=cmd_condense)

    p = sub.add_parser("rsk", help="both condensations via one propagation")
    p.add_argument("--inverse", action="store_true",
                   help="recover the array from its two condensations")
    p.set_defaults(fn=cmd_rsk)

    p = sub.add_parser("propagate", help="fill the prism recurrence for an array")
    p.set_defaults(fn=cmd_propagate)

    p = sub.add_parser("hive", help="inspect a triangle function, or convert "
                       "between triangles and standard pairs")
    p.add_argument("--to-pair", action="store_true")
    p.add_argument("--from-pair", action="store_true")
    p.set_defaults(fn=cmd_hive)

    p = sub.add_parser("commute", help="apply the commuter to a pair")
    p.add_argument("--functional", action="store_true",
                   help="input and output are triangle functions")
    p.set_defaults(fn=cmd_commute)

    p = sub.add_parser("associate", help="apply the associator to a couple")
    p.add_argument("--inverse", action="store_true")
    p.add_argument("--functional", action="store_true",
                   help="input and output are triangle functions")
    p.set_defaults(fn=cmd_associate)

    p = sub.add_parser("lr", help="Littlewood-Richardson coefficient")
    p.add_argument("lam")
    p.add_argument("mu")
    p.add_argument("nu")
    p.add_argument("--oracle", action="store_true",
                   help="also count by direct skew tableau enumeration")
    p.set_defaults(fn=cmd_lr)

    p = sub.add_parser("tableau", help="render an array or pair as a tableau")
    p.add_argument("--wall", action="store_true",
                   help="transpose first (for left-tight arrays)")
    p.set_defaults(fn=cmd_tableau)

    p = sub.add_parser("verify", help="run a randomized verification suite")
    p.add_argument("suite", choices=sorted(checks.SUITES))
    p.add_argument("--seed", type=_int_arg, default=0)
    p.add_argument("--cases", type=_int_arg)
    p.add_argument("--n", type=_int_arg)
    p.add_argument("--max-mass", type=_int_arg)
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.fn(args)
    except MalformedInput as exc:
        error, detail, code = "malformed input", str(exc), 2
    except ValidationError as exc:
        error, detail, code = "validation", str(exc), 1
    except AssertionError as exc:
        error, detail, code = "internal", str(exc), 3
    else:
        return 0
    json.dump({"error": error, "detail": detail}, sys.stderr)
    sys.stderr.write("\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
