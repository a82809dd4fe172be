"""The parity corpus: a fixed list of CLI calls and a digest of each result.

A call is (name, argv, stdin text).  Replaying it runs octarray.cli.main(argv)
in-process on that stdin and hashes (argv, stdin, exit code, stdout, stderr)
with SHA-256; parity_corpus.txt keeps the first 16 hex digits of each, one
"digest name" line per call.  A change that keeps every output, error text
and exit code keeps every digest.  Argparse usage errors and the JSON
decoder's error texts differ between Python versions, so for those calls
("loose" below) only the exit code and stdout are hashed.

Every input is drawn from fixed seeds with the generators of octarray.checks
and built with the package's own kernels and JSON encoders.  argv and stdin
are part of every digest, so a change to what those kernels or encoders
return changes the digests of the calls they build as well as of the calls
that run them; the verify suites already replay those generators.  No input
comes from bench/, so a benchmark change cannot change the corpus.  The calls
cover every FORMS entry of test_emit.py on the fixtures, integer and rational
arrays through the four condensations, rsk, rsk --inverse and tableau, couples
of standard pairs with n = 3..10 through the eight calls of the benchmark's
hives operation, couples with masses k / q, q <= 4 and n = 1..6 through
the hive, association and commutation calls and propagate, LR types of
standard pairs through lr --oracle, the nine verify suites, and the error
inputs of test_cli.py.  The encoders only write
reduced values, so a last group of literal inputs holds what they never
write: unreduced strings, rows mixing ints and strings, rsk --inverse pairs
whose d and l have different denominators, and bad scalars, shapes and
declared sizes, each through the four condensations, rsk and rsk --inverse,
and triangles with declared sizes through hive and commute --functional.

A change that alters output on purpose regenerates the file and names each
changed call and why it changed.  From the root of a checkout:

    PYTHONPATH=src python tests/parity_corpus.py           # list changed calls
    PYTHONPATH=src python tests/parity_corpus.py --write   # regenerate the file
"""

import hashlib
import io
import json
import random
import sys
from collections import namedtuple
from pathlib import Path

from octarray import (associate, concat, condense_down, condense_left, increments,
                      pair_to_hive, to_antistandard)
from octarray.checks import random_array, random_couple, random_standard_pair
from octarray.serialize import encode_array, encode_pair, encode_triangle

CORPUS = Path(__file__).with_name("parity_corpus.txt")

# -- the calls ------------------------------------------------------------------


Call = namedtuple("Call", "name argv stdin loose", defaults=("", False))


def _fixture_calls():
    from octarray.fixtures import load_fixture
    from test_emit import FORMS

    docs = {name: load_fixture(name) for name in ("f1", "f2", "f3", "f4")}
    inputs = [(f"{name}.{key}", json.dumps(doc[key])) for name, doc in docs.items()
              for key in ("array", "pair", "triangle") if key in doc]
    f3, f4 = json.dumps(docs["f3"]["pair"]), json.dumps(docs["f4"]["triangle"])
    inputs += [("f4 couple", '{"f": %s, "g": %s}' % (f4, f4)),
               ("f3 couple", '{"first": %s, "second": %s}' % (f3, f3))]
    forms = FORMS + [["tableau"], ["tableau", "--wall"]]
    return [Call(f"fixture {label}: {' '.join(argv)}", argv, text)
            for label, text in inputs for argv in forms]


def _couple_json(p1, p2):
    return {"first": encode_pair(p1), "second": encode_pair(p2)}


def _array_calls(label, seed, sides, max_mass, max_denom):
    rng = random.Random(seed)
    sizes = [(n, m) for n in sides for m in sides]
    calls = []
    for k, (n, m) in enumerate(sizes):
        a = random_array(rng, n, m, max_mass, max_denom)
        text = json.dumps(encode_array(a))
        down, left = encode_array(condense_down(a)), encode_array(condense_left(a))
        tag = f"{label} s{seed} #{k} {n}x{m}"
        for d in ("down", "left", "right", "up"):
            calls.append(Call(f"{tag}: condense {d}", ["condense", d], text))
        calls.append(Call(f"{tag}: rsk", ["rsk"], text))
        calls.append(Call(f"{tag}: rsk --inverse", ["rsk", "--inverse"],
                          json.dumps({"d": down, "l": left})))
        if max_denom == 1:
            calls.append(Call(f"{tag}: tableau", ["tableau"], json.dumps(down)))
            calls.append(Call(f"{tag}: tableau --wall", ["tableau", "--wall"],
                              json.dumps(left)))
    return calls


def _hives_calls(seed):
    """The eight calls of the benchmark's hives operation on couples with
    n = 3..10, plus tableau on the first pair."""
    rng = random.Random(seed)
    calls = []
    for n in range(3, 11):
        p1, p2 = random_couple(rng, n)
        f, g = encode_triangle(pair_to_hive(p1)), encode_triangle(pair_to_hive(p2))
        tag = f"hives s{seed} n={n}"
        for argv, doc in [
            (["hive", "--from-pair"], encode_pair(p1)),
            (["hive", "--from-pair"], encode_pair(p2)),
            (["hive"], f),
            (["associate"], _couple_json(p1, p2)),
            (["associate", "--inverse"], _couple_json(*associate(p1, p2))),
            (["associate", "--functional"], {"f": f, "g": g}),
            (["commute", "--functional"], f),
            (["propagate"], encode_array(concat(p1.b, p2.b))),
            (["tableau"], encode_pair(p1)),
        ]:
            calls.append(Call(f"{tag} #{len(calls)}: {' '.join(argv)}", argv,
                              json.dumps(doc)))
    return calls


def _rational_hives_calls(seed):
    """Couples of standard pairs with masses k / q, q <= 4 and n = 1..6,
    through the hive, association and commutation calls and propagate, so
    that rational triangles are written and read."""
    rng = random.Random(seed)
    calls = []
    for n in range(1, 7):
        p1, p2 = random_couple(rng, n, 3, 4)
        f, g = encode_triangle(pair_to_hive(p1)), encode_triangle(pair_to_hive(p2))
        tag = f"rational hives s{seed} n={n}"
        for argv, doc in [
            (["hive", "--from-pair"], encode_pair(p1)),
            (["hive"], f),
            (["hive", "--to-pair"], f),
            (["associate"], _couple_json(p1, p2)),
            (["associate", "--functional"], {"f": f, "g": g}),
            (["commute"], encode_pair(p1)),
            (["commute", "--functional"], f),
            (["propagate"], encode_array(concat(p1.b, p2.b))),
        ]:
            calls.append(Call(f"{tag} #{len(calls)}: {' '.join(argv)}", argv,
                              json.dumps(doc)))
    return calls


def _lr_calls(seed, per_n=4):
    """lr --oracle on distinct types of random standard pairs, n = 3..5."""
    rng = random.Random(seed)
    types = []
    for n in (3, 4, 5):
        wanted = len(types) + per_n
        while len(types) < wanted:
            hive_type = increments(pair_to_hive(random_standard_pair(rng, n, 1)))
            if hive_type not in types:
                types.append(hive_type)
    calls = []
    for k, hive_type in enumerate(types):
        argv = ["lr"] + [",".join(map(str, p)) for p in hive_type] + ["--oracle"]
        calls.append(Call(f"lr s{seed} #{k}: {' '.join(argv)}", argv))
    return calls


SUITES = ["assoc-count", "commut-count", "involution", "rsk-bijection", "shapes",
          "thm1", "thm2", "thm3", "thm4"]


def _verify_calls():
    calls = [Call(f"verify {s} --seed 5", ["verify", s, "--seed", "5"]) for s in SUITES]
    calls += [Call(f"verify {s} smallest", ["verify", s, "--n", "1", "--max-mass", "0",
                                            "--cases", "2"]) for s in SUITES]
    for argv in (["verify", "thm3", "--n", "2", "--cases", "2", "--seed", "3"],
                 ["verify", "assoc-count", "--max-mass", "2", "--cases", "9", "--n", "4"],
                 ["verify", "involution", "--n", "2", "--cases", "3", "--max-mass", "1"]):
        calls.append(Call(" ".join(argv), argv))
    return calls


NOT_ASCII_INTEGERS = ["2_0", "٢", " 2", "+2", "1/2", "4/2", "x", "9" * 5000]


def _error_calls():
    """The error inputs of test_cli.py, as argv and stdin alone."""
    array = json.dumps({"type": "array", "rows": [[2, 3, 1], [1, 1, 5], [1, 2, 2]]})
    big = 10 ** sys.get_int_max_str_digits() - 1
    zeros = lambda k: ",".join(["0"] * k)
    p1, p2 = random_couple(random.Random(41), 3)
    o1, o2 = associate(p1, p2)
    cases = [
        (["condense", "down"], json.dumps({"rows": "nope"}), False),
        (["condense", "down"], "[1]", False),
        (["rsk"], "[1]", False),
        (["rsk", "--inverse"], json.dumps({"d": [1], "l": [2]}), False),
        (["hive", "--from-pair"],
         json.dumps({"type": "pair", "kind": "standard", "a": [1], "b": [2]}), False),
        (["condense", "down"], '{"type": "array", "rows": [[%s]]}' % ("7" * 5000), True),
        # past MAX_JSON_DEPTH, which the CLI checks itself: strict digests
        (["condense", "down"], "[" * 100_000 + "]" * 100_000, False),
        (["condense", "down"],
         '{"type": "array", "rows": [%s]}' % ("[" * 5000 + "]" * 5000), False),
        (["condense", "down"], json.dumps({"type": "array", "rows": [[1, -2]]}), False),
        (["condense", "sideways"], array, True),
        (["associate", "--functional", "--inverse"],
         json.dumps({"f": encode_triangle(pair_to_hive(p1)),
                     "g": encode_triangle(pair_to_hive(p2))}), False),
        (["hive", "--from-pair", "--to-pair"], json.dumps(encode_pair(p1)), False),
        (["tableau"], json.dumps({"type": "array", "rows": [[3000000]]}), False),
        (["tableau"], json.dumps({"type": "array", "rows": [[50000, 50000]]}), False),
        (["tableau"], json.dumps(encode_pair(to_antistandard(p1))), False),
        (["lr", "0", "1200", "1200", "--oracle"], "", False),
        (["lr", zeros(31), zeros(31), zeros(31)], "", False),
        (["lr", zeros(50), zeros(50), zeros(50)], "", False),
        (["lr", "02,01", "1", "3,1,0"], "", False),
        (["lr", "-1", "1", "0"], "", False),
        (["verify", "thm2", "--n", "-1"], "", False),
        (["verify", "thm2", "--seed", "-7", "--cases", "01"], "", False),
        (["verify", "thm2", "--n", "0"], "", False),
        (["verify", "thm1", "--max-mass", "-1"], "", False),
        (["verify", "involution", "--cases", "-2"], "", False),
    ]
    for argv in (["condense", "down"], ["rsk"], ["propagate"]):
        for s in ("1e5000", "0.5", "1e3"):
            cases.append((argv, json.dumps({"type": "array", "rows": [[s, 1]]}), False))
        cases.append((argv, json.dumps({"type": "array", "rows": [[big, big]]}), False))
    for argv in (["tableau"], ["tableau", "--wall"]):
        cases.append((argv, json.dumps({"type": "triangle", "rows": [[0], [0, 0]]}), False))
    for text in NOT_ASCII_INTEGERS:
        cases.append((["lr", f"{text},1", "1,0", "2,1"], "", False))
        for flag in ("--seed", "--cases", "--n", "--max-mass"):
            cases.append((["verify", "thm2", "--cases", "1", flag, text], "", True))
    for inverse in (False, True):
        q1, q2 = (o1, o2) if inverse else (p1, p2)
        for which in ("first", "second", "both"):
            pairs = _couple_json(q1, q2)
            for key in (["first", "second"] if which == "both" else [which]):
                pairs[key] = encode_pair(to_antistandard((q1, q2)[key == "second"]))
            cases.append((["associate"] + ["--inverse"] * inverse, json.dumps(pairs), False))
    return [Call(f"error #{k}: {' '.join(argv)[:60]}", argv, text, loose)
            for k, (argv, text, loose) in enumerate(cases)]


# literal array rows, bottom row first; each is run through the four
# condensations and rsk, and given as both d and l to rsk --inverse
LITERAL_ARRAYS = [
    ("unreduced", [["2/4", "6/3", "0/7"], ["5/1", "3/9", 1], [0, "4/6", "10/5"]]),
    ("unreduced integral", [["6/3", "5/1"], ["0/7", "-0/3"]]),
    ("mixed row", [[1, "1/2", 2], ["3/4", 0, "1"]]),
    ("int row and string row", [[1, 2, 3], ["1/3", 0, 2]]),
    ("negative", [[1, "-1/2"]]),
    ("negative unreduced", [["1/3", 2], [0, "-4/6"]]),
    ("negative integral", [["1/3", "-4/2"]]),
    ("zero denominator", [["1/0", 1]]),
    ("bool", [[True, 1]]),
    ("float", [[1.5, "1/2"]]),
    ("ragged", [["1/2", 2], [3]]),
    ("empty", []),
    ("empty row", [[]]),
    ("bad scalar before ragged", [["1/2", 2], ["x"]]),
    ("bad scalar before negative", [[-1, 2], ["1/0", 1]]),
    ("ragged before negative", [["-1/2", 2], [1]]),
]

# literal {"d": ..., "l": ...} objects for rsk --inverse
LITERAL_PAIRS = [
    ("d over 2, l over 3", {"d": [["1/2", 1, "2/4"], [0, "1/2", "3/6"]],
                            "l": [["4/3", 0, 0], ["2/3", "3/3", 0]]}),
    ("d over 2, l integral", {"d": [["1/2", "1/2"]], "l": [[1, 0]]}),
    ("d integral, l over 2", {"d": [[1], [0]], "l": [["1/2"], ["2/4"]]}),
    ("d over 6, l over 10", {"d": [["9/10", "1/3"], [0, 0]],
                             "l": [["5/6", 0], ["2/5", 0]]}),
    ("shared edge off by 1/6", {"d": [["5/6", 0], [0, "1/2"]],
                                "l": [["1/2", 0], ["1/3", "1/6"]]}),
    ("d not tight", {"d": [[0, "1/2"], ["1/3", 0]], "l": [["1/2", 0], ["1/3", 0]]}),
    ("l not tight", {"d": [["1/2", 0], [0, 0]], "l": [[0, "1/2"], [0, 0]]}),
    ("sizes differ", {"d": [["1/2", 0]], "l": [["1/2"], [0]]}),
    ("bad l", {"d": [["1/2"]], "l": [["1/0"]]}),
    ("negative l", {"d": [["1/2"]], "l": [["-1/2"]]}),
    ("declared n of l", {"d": [["1/2"]], "l": {"n": 2, "rows": [["1/2"]]}}),
    ("declared m of d", {"d": {"m": 3, "rows": [["1/2"]]}, "l": [["1/2"]]}),
]


# literal triangle objects with declared sizes, each through hive, hive
# --to-pair and commute --functional
LITERAL_TRIANGLES = [
    ("declared n=7", {"type": "triangle", "n": 7, "rows": [[0], [1, 2]]}),
    ("declared n=1", {"type": "triangle", "n": 1, "rows": [[0], ["1/2", 2]]}),
    ("declared n=true", {"type": "triangle", "n": True, "rows": [[0], [1, 2]]}),
    ('declared n="1"', {"type": "triangle", "n": "1", "rows": [[0], [1, 2]]}),
    ("declared n=1.0", {"type": "triangle", "n": 1.0, "rows": [[0], [1, 2]]}),
]


def _array_doc(rows, **declared):
    return {"type": "array", **declared, "rows": rows}


def _literal_calls():
    """The literal inputs above, which no encoder writes."""
    cases = [(label, _array_doc(rows)) for label, rows in LITERAL_ARRAYS]
    cases += [("declared n=3", _array_doc([[1, "1/2"]], n=3)),
              ("declared m=2", _array_doc([[1, "1/2"]], m=2)),
              ("declared n=2 and m=1", _array_doc([["1/2", 1]], n=2, m=1)),
              ("negative before declared n", _array_doc([[1, "-1/2"]], n=5)),
              ("declared n=true", _array_doc([["1/2"]], n=True)),
              ("declared m=1.0", _array_doc([["1/2", 1]], m=1.0)),
              ('declared n="2"', _array_doc([[1, "1/2"]], n="2"))]
    calls = []
    for label, doc in cases:
        text = json.dumps(doc)
        for argv in (["condense", "down"], ["condense", "left"], ["condense", "right"],
                     ["condense", "up"], ["rsk"]):
            calls.append(Call(f"literal {label}: {' '.join(argv)}", argv, text))
        calls.append(Call(f"literal {label}: rsk --inverse", ["rsk", "--inverse"],
                          json.dumps({"d": doc, "l": doc})))
    for label, pair in LITERAL_PAIRS:
        doc = {key: _array_doc(**value) if isinstance(value, dict) else _array_doc(value)
               for key, value in pair.items()}
        calls.append(Call(f"literal pair {label}: rsk --inverse", ["rsk", "--inverse"],
                          json.dumps(doc)))
    for label, doc in LITERAL_TRIANGLES:
        for argv in (["hive"], ["hive", "--to-pair"], ["commute", "--functional"]):
            calls.append(Call(f"literal triangle {label}: {' '.join(argv)}", argv,
                              json.dumps(doc)))
    return calls


def calls():
    """Every call of the corpus, in file order."""
    out = _fixture_calls()
    for seed in (1, 2):
        out += _array_calls("arrays-int", seed, (1, 2, 4, 7, 12), 9, 1)
        out += _array_calls("arrays-rational", seed, (1, 2, 4, 7), 9, 4)
        out += _hives_calls(seed)
        out += _lr_calls(seed)
    out += _rational_hives_calls(3)
    return out + _verify_calls() + _error_calls() + _literal_calls()


# -- replay -----------------------------------------------------------------------


def replay(call):
    """Run one call in-process: (exit code, stdout, stderr).  An exception
    that escapes main is recorded by its type in place of the exit code."""
    from octarray.cli import main

    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(call.stdin), io.StringIO(), io.StringIO()
    try:
        code = main(call.argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a traceback, which no input may produce
        code = f"escaped {type(exc).__name__}"
    finally:
        out, err = sys.stdout.getvalue(), sys.stderr.getvalue()
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out, err


def digest(call) -> str:
    code, out, err = replay(call)
    record = [call.argv, call.stdin, code, out] + ([] if call.loose else [err])
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()[:16]


def digests() -> dict:
    """{name: digest} of every call, replayed now."""
    out = {}
    for call in calls():
        if call.name in out:
            raise AssertionError(f"two calls are named {call.name!r}")
        out[call.name] = digest(call)
    return out


def load() -> dict:
    """{name: digest} as stored in the corpus file."""
    lines = CORPUS.read_text(encoding="utf-8").splitlines()
    return dict(reversed(line.split(" ", 1)) for line in lines)


def differences(stored: dict, got: dict) -> list:
    """The names of calls whose digest differs, or that only one side has."""
    return [name for name in {**stored, **got} if stored.get(name) != got.get(name)]


def main(argv):
    got = digests()
    if argv == ["--write"]:
        CORPUS.write_text("".join(f"{d} {name}\n" for name, d in got.items()),
                          encoding="utf-8")
        print(f"wrote {len(got)} digests to {CORPUS.name}")
        return 0
    changed = differences(load(), got)
    print("\n".join(changed) or f"all {len(got)} calls replay their digests")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
