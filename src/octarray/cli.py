"""Command line interface.

Reads JSON from stdin (or ``--input FILE``), writes JSON to stdout.
Exit codes: 0 success, 1 domain error (invalid object for the requested
operation), 2 malformed input (bad JSON, JSON nested deeper than
MAX_JSON_DEPTH, missing fields, bad arguments and every other usage
error), 3 internal error (an AssertionError: a broken invariant of the
program, not of the input).  Each failure writes {"error": ..., "detail":
...} to stderr; --help writes to stdout and exits 0.

The argv is read by one command table, build_parser(), the only place that
knows a valid argv: each command's function, positionals (with their
choices), switches, int options (with their least values) and a pair of
switches that exclude each other.  It reads what argparse read and gives
argparse's usage-error texts, except that it takes no abbreviated option
(--func), no --opt=value, no short flag glued to a value or to another
flag (-iFILE, -hh) and no "--": each of these is an unrecognized argument,
exit 2.  A word "-<digits>" is a value, as in argparse.  Least values and
switch pairs are checked once the argv is read, least values in the
table's order (--cases before --n).  Errors quote arguments, but for
the --input file's name, through scalars._quoted, cut past about 30
characters.  The --help text is written from the table; it is not argparse's.

Every array is read once, by serialize.decode_array, into an Array whose
state is its masses as ints over their least common denominator D.  The
array commands (condense in each direction, rsk, rsk --inverse and
propagate) run the kernels on those ints and write each value v / D with
serialize.encode_array or scaled_to_json, so they make no Fraction.

Output is json.dumps(obj, indent=2) byte for byte, written by _dumps.  A
flat row, or a list of rows, of exact ints and strings is written by one
%-format, its template cached per (row lengths, indent) in a bounded
lru_cache, each string JSON-encoded first; propagate's values, the rows
[x, y, z, v] of the prism in sorted (x, y, z) order, by one template per
(n, m) with x, y and z written in, also cached.  The caches pay only when
output shapes repeat within one process, as in a long-lived caller; a
call that finds no template builds it first.  Dict members that are ints
or strings are written directly; every other value takes json.dumps.  An
output integer past the interpreter's int-to-str digit limit, or a term
of an output "p/q" past it, exits 1 with an error naming the limit.
"""

import functools
import json
import re
import sys
from collections import namedtuple
from itertools import accumulate, chain
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

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
from .condense import condense_down, condense_left, condense_right, condense_up
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
    array_layers,
    is_flat_concave,
    prism_function,
    rsk,
    rsk_inverse,
)
from .scalars import _quoted, parse_scalar, scalar_to_json, scaled_to_json, too_many_digits
from . import checks, serialize

MAX_JSON_DEPTH = 100
"""The deepest nesting of JSON lists and objects the CLI reads; its deepest
valid input, a couple of pairs, nests 5 deep.  Where the JSON decoder itself
gives up depends on the interpreter (about 1,000 levels on 3.11 and 10,000
on 3.13), so the CLI checks this limit first, and every interpreter rejects
deeper input with the same exit code and text."""

_NOT_BRACKETS = r'"(?:[^"\\]|\\.)*"?|[^][{}"]+'  # JSON strings and runs of other text


def _too_deep(text: str) -> bool:
    """True iff the brackets of text, those inside strings aside, nest
    deeper than MAX_JSON_DEPTH.  Each level opens one bracket, so a text
    with at most MAX_JSON_DEPTH opening brackets passes on two counts."""
    if text.count("[") + text.count("{") <= MAX_JSON_DEPTH:
        return False
    brackets = re.sub(_NOT_BRACKETS, "", text)
    depths = accumulate(1 if c in "[{" else -1 for c in brackets)
    return max(depths, default=0) > MAX_JSON_DEPTH


def _read_json(args):
    try:
        if args.input and args.input != "-":
            with open(args.input) as fh:
                text = fh.read()
        else:
            text = sys.stdin.read()
        if not _too_deep(text):
            return json.loads(text)
    except RecursionError:  # the decoder's own depth limit, past MAX_JSON_DEPTH
        pass
    except (OSError, ValueError) as exc:  # bad or too long
        raise MalformedInput(str(exc))
    raise MalformedInput(f"JSON input nests deeper than MAX_JSON_DEPTH = {MAX_JSON_DEPTH}")


class MalformedInput(Exception):
    pass


def _decode(obj, decoder):
    try:
        return decoder(obj)
    except (KeyError, TypeError) as exc:
        raise MalformedInput(f"bad input object: {exc}")


def _decode_both(obj, a: str, b: str, decoder, kind: str) -> tuple:
    """The members a and b of the input object, each decoded, a first."""
    if not isinstance(obj, dict) or a not in obj or b not in obj:
        raise MalformedInput(f"expected an object with '{a}' and '{b}' {kind}")
    return _decode(obj[a], decoder), _decode(obj[b], decoder)


def _cells(values):
    """values as %-format arguments, each string JSON-encoded, or None
    unless every value is an exact int or a string."""
    values = tuple(values)
    kinds = set(map(type, values))
    if kinds <= {int}:
        return values
    if kinds <= {int, str}:
        return tuple([encode_basestring_ascii(v) if type(v) is str else v for v in values])
    return None


def _bracket(cells, pad):
    """The JSON list of these written cells at indent pad, one per line."""
    if not cells:
        return "[]"
    inner = pad + "  "
    return "[" + inner + ("," + inner).join(cells) + pad + "]"


@functools.lru_cache(maxsize=256)
def _template(shape, pad):
    """The %-format, at indent pad, of a flat row of shape cells (an int)
    or of rows of these lengths (a tuple), one %s per cell."""
    if type(shape) is int:
        return _bracket(["%s"] * shape, pad)
    return _bracket([_template(k, pad + "  ") for k in shape], pad)


# The values of a prism function on {0 <= x <= n, 0 <= y <= z <= m}, in sorted
# (x, y, z) order, exact ints or strings: _dumps writes the rows [x, y, z, v].
_PrismValues = namedtuple("_PrismValues", "n m values")


@functools.lru_cache(maxsize=16)
def _prism_template(n: int, m: int, pad: str) -> str:
    """The %-format of the rows [x, y, z, v] of the prism for (n, m) at
    indent pad: x, y and z written in, each v left as %s."""
    row = _template(4, pad + "  ")
    return _bracket([row % (x, y, z, "%s") for x in range(n + 1)
                     for y in range(m + 1) for z in range(y, m + 1)], pad)


def _dumps(obj, pad="\n"):
    """json.dumps(obj, indent=2), byte for byte, for dicts with str keys."""
    kind = type(obj)
    if kind is int:
        return repr(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is _PrismValues:
        return _prism_template(obj.n, obj.m, pad) % _cells(obj.values)
    inner = pad + "  "
    if isinstance(obj, dict) and obj:
        items = (inner + encode_basestring_ascii(k) + ": " + _dumps(v, inner)
                 for k, v in obj.items())
        return "{" + ",".join(items) + pad + "}"
    if not isinstance(obj, (list, tuple)) or not obj:
        return json.dumps(obj)
    cells = _cells(obj)
    if cells is not None:  # a flat row
        return _template(len(cells), pad) % cells
    if set(map(type, obj)) <= {list, tuple}:
        cells = _cells(chain.from_iterable(obj))
        if cells is not None:  # rows
            return _template(tuple(map(len, obj)), pad) % cells
    return _bracket([_dumps(v, inner) for v in obj], pad)


def _emit(obj):
    try:
        text = _dumps(obj)
    except ValueError:  # an int past the interpreter's int-to-str digit limit
        raise too_many_digits() from None
    sys.stdout.write(text + "\n")


def _int_arg(text, flag=None) -> int:
    """An integer argument: "[-]p" in ASCII digits."""
    try:
        if "/" not in text:
            return parse_scalar(text)
    except ValidationError:
        pass
    raise MalformedInput(f"argument {flag}: invalid int value: {_quoted(text)}")


def _partition_arg(text):
    try:
        return tuple(_int_arg(x) for x in text.split(",") if x != "")
    except MalformedInput:
        raise MalformedInput(f"bad partition argument {_quoted(text)}") from None


def cmd_condense(args):
    a = _decode(_read_json(args), serialize.decode_array)
    condense = {
        "down": condense_down,
        "left": condense_left,
        "right": condense_right,
        "up": condense_up,
    }[args.direction]
    c = condense(a)
    out = serialize.encode_array(c)
    if args.direction == "down":
        # the rows are down-tight, so their sums are the shape of the input
        out["shape"] = serialize.json_rows(c.D, [list(map(sum, c.ints))])[0]
    _emit(out)


def cmd_rsk(args):
    obj = _read_json(args)
    if args.inverse:
        d, l = _decode_both(obj, "d", "l", serialize.decode_array, "arrays")
        _emit(serialize.encode_array(rsk_inverse(d, l)))
    else:
        d, l = rsk(_decode(obj, serialize.decode_array))
        _emit({"d": serialize.encode_array(d), "l": serialize.encode_array(l)})


def cmd_propagate(args):
    a = _decode(_read_json(args), serialize.decode_array)
    # the prism is filled in a's ints; the rhombus inequalities do not
    # change under positive scaling, so the solid of the same layers
    # answers polarized_concave
    L, D = array_layers(a.ints), a.D
    solid = prism_function(L)
    values = solid.values.values()  # in sorted (x, y, z) order
    if D != 1:
        values = [scaled_to_json(v, D) for v in values]
    _emit({
        "n": a.n,
        "m": a.m,
        "values": _PrismValues(a.n, a.m, values),
        "top": serialize.json_rows(D, L[-1]),  # the ceiling layer z = m
        # the recurrence fills every octahedron's top: polarized by construction
        "polarized": True,
        "polarized_concave": is_flat_concave(solid, PRISM_FRAME),
    })


def cmd_hive(args):
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
    _emit({
        "concave": is_discrete_concave(f),
        "increments": {side: [scalar_to_json(x) for x in steps]
                       for side, steps in increments(f)._asdict().items()},
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
    obj = _read_json(args)
    if args.functional:
        f, g = _decode_both(obj, "f", "g", serialize.decode_triangle, "triangles")
        p, q = associate_functional(f, g)
        _emit({"p": serialize.encode_triangle(p),
               "q": serialize.encode_triangle(q)})
        return
    p1, p2 = _decode_both(obj, "first", "second", serialize.decode_pair, "pairs")
    fn = associate_inverse if args.inverse else associate
    o1, o2 = fn(p1, p2)
    _emit({"first": serialize.encode_pair(o1), "second": serialize.encode_pair(o2)})


def cmd_lr(args):
    lam, mu, nu = map(_partition_arg, (args.lam, args.mu, args.nu))
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
    suite = checks.SUITES[args.suite]
    # each suite takes the keywords it declares; other flags are ignored
    flags = dict(seed=args.seed, cases=args.cases, n=args.n, max_n=args.n,
                 max_mass=args.max_mass, maxtotal=args.max_mass)
    code = suite.__code__
    takes = code.co_varnames[:code.co_argcount + code.co_kwonlyargcount]
    report = suite(**{k: v for k, v in flags.items() if v is not None and k in takes})
    print(report.summary())
    if not report.passed:
        sys.exit(1)


# A row of the command table: the function that runs the command, its help
# line, its positionals as (name, choices or None) in order, its switches
# (flag: help), its int options (flag: (default, least value or None)) and
# a pair of switches that exclude each other, if any.
Command = namedtuple("Command", "fn help positionals switches ints excludes",
                     defaults=((), {}, {}, ()))


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


@functools.cache
def build_parser():
    """The command table: each command's name mapped to its Command."""
    return {
        "condense": Command(cmd_condense, "condense an array to a tight one",
                            [("direction", ("down", "left", "right", "up"))]),
        "rsk": Command(cmd_rsk, "both condensations via one propagation", switches={
            "--inverse": "recover the array from its two condensations"}),
        "propagate": Command(cmd_propagate, "fill the prism recurrence for an array"),
        "hive": Command(cmd_hive, "inspect a triangle function, or convert between "
                        "triangles and standard pairs", switches={
            "--to-pair": "convert a triangle function to a standard pair",
            "--from-pair": "convert a standard pair to a triangle function"},
            excludes=("--from-pair", "--to-pair")),
        "commute": Command(cmd_commute, "apply the commuter to a pair", switches={
            "--functional": "input and output are triangle functions"}),
        "associate": Command(cmd_associate, "apply the associator to a couple", switches={
            "--inverse": "apply the inverse associator",
            "--functional": "input and output are triangle functions"},
            excludes=("--functional", "--inverse")),
        "lr": Command(cmd_lr, "Littlewood-Richardson coefficient",
                      [("lam", None), ("mu", None), ("nu", None)],
                      {"--oracle": "also count by direct skew tableau enumeration"}),
        "tableau": Command(cmd_tableau, "render an array or pair as a tableau", switches={
            "--wall": "transpose first (for left-tight arrays)"}),
        "verify": Command(cmd_verify, "run a randomized verification suite",
                          [("suite", tuple(sorted(checks.SUITES)))],
                          ints={"--seed": (0, None), "--cases": (None, 0),
                                "--n": (None, 1), "--max-mass": (None, 0)}),
    }


# words that argparse reads as negative numbers, and so as values
_NEGATIVE = re.compile(r"-\d+$|-\d*\.\d+$")


def _is_option(word: str) -> bool:
    return word[:1] == "-" and len(word) > 1 and " " not in word \
        and not _NEGATIVE.match(word)


def _value(words, flag: str) -> str:
    """The word after an option that takes one."""
    word = next(words, None)
    if word is None or _is_option(word):
        raise MalformedInput(f"argument {flag}: expected one argument")
    return word


def _invalid_choice(name: str, word: str, choices) -> MalformedInput:
    return MalformedInput(f"argument {name}: invalid choice: {_quoted(word)} "
                          f"(choose from {', '.join(map(repr, choices))})")


def _help(table: dict, name) -> str:
    """The --help text of command name, or of the program if name is None."""
    row = "  {:<21}  {}".format
    options = [("-h, --help", "show this help message and exit")]
    if name is None:
        words = ["[-h]", "[--input FILE]", "{" + ",".join(table) + "}", "..."]
        about = ["Condensation, octahedron propagation, and tableau bijections "
                 "on non-negative arrays.", "", "commands:",
                 *(row(cmd, c.help) for cmd, c in table.items())]
        options.append(("--input FILE, -i FILE", "read JSON from FILE instead of stdin"))
    else:
        c = table[name]
        words = [name, "[-h]", *(f"[{flag}]" for flag in c.switches),
                 *(f"[{flag} INT]" for flag in c.ints)]
        words += ["{" + ",".join(choices) + "}" if choices else pos
                  for pos, choices in c.positionals]
        about = [c.help]
        options += c.switches.items()
    return "\n".join([" ".join(["usage: octarray", *words]),
                      "", *about, "", "options:",
                      *(row(*option).rstrip() for option in options), ""])


def _read_argv(table: dict, argv) -> SimpleNamespace:
    """argv read by the command table: [--input FILE | -i FILE] COMMAND,
    then the command's positionals, switches and int options in any order,
    each usage error raised as MalformedInput with argparse's text."""
    name = cmd = None
    values, wanted, extras, source = {}, [], [], None
    words = iter(argv)
    for word in words:
        if word == "-h" or word == "--help":
            sys.stdout.write(_help(table, name))
            raise SystemExit(0)
        if not _is_option(word):
            if cmd is None:
                name, cmd = word, table.get(word)
                if cmd is None:
                    raise _invalid_choice("command", word, table)
                values = {_dest(flag): False for flag in cmd.switches}
                values.update((_dest(flag), v) for flag, (v, _) in cmd.ints.items())
                wanted = list(cmd.positionals)
            elif wanted:
                pos, choices = wanted.pop(0)
                if choices and word not in choices:
                    raise _invalid_choice(pos, word, choices)
                values[pos] = word
            else:
                extras.append(word)
        elif cmd is None and (word == "--input" or word == "-i"):
            source = _value(words, "--input/-i")
        elif cmd is not None and word in cmd.switches:
            values[_dest(word)] = True
        elif cmd is not None and word in cmd.ints:
            values[_dest(word)] = _int_arg(_value(words, word), word)
        else:
            extras.append(word)
    if wanted or cmd is None:
        missing = [pos for pos, _ in wanted] if cmd else ["command"]
        raise MalformedInput(f"the following arguments are required: {', '.join(missing)}")
    if extras:  # a word of 29 characters or more is quoted, and cut
        extras = (_quoted(w) if len(w) > 28 else w for w in extras)
        raise MalformedInput(f"unrecognized arguments: {' '.join(extras)}")
    for flag, (_, least) in cmd.ints.items():  # the last value given counts
        value = values[_dest(flag)]
        if least is not None and value is not None and value < least:
            raise MalformedInput(f"{flag} must be at least {least}, got {_quoted(value)}")
    if cmd.excludes and all(values[_dest(flag)] for flag in cmd.excludes):
        raise MalformedInput(" and ".join(cmd.excludes) + " exclude each other")
    return SimpleNamespace(fn=cmd.fn, input=source, **values)


def main(argv=None) -> int:
    try:
        args = _read_argv(build_parser(), sys.argv[1:] if argv is None else argv)
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
