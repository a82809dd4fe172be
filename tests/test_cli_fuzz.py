"""The CLI contract as a fuzzing oracle.

Each case draws an argv from the CLI's own command table, ``build_parser()``
(every positional with its choices, every switch and every integer option
it declares), and a JSON text for stdin made of nested objects and lists,
ints, booleans, "p/q" and "1/0" strings, decimal and exponent strings,
floats, integer literals over the digit limit, two literals at the limit
side by side and arrays nested past the recursion limit, often shaped like
the tagged objects the commands read.  It runs ``cli.main`` in-process and
asserts the contract: the exit code is 0, 1, 2 or 3, and on a non-zero exit
stderr holds one JSON object.  With hypothesis installed the generator is
drawn by hypothesis; without it, a seeded loop runs the same test body.
"""

import io
import json
import random
import sys

from octarray.cli import build_parser, main

CASES = 150

try:
    from hypothesis import HealthCheck, given, settings, strategies as st
except ImportError:  # seeded loops instead
    def random_cases(test):
        def run(capsys, monkeypatch):
            for seed in range(CASES):
                test(capsys, monkeypatch, random.Random(seed))

        run.__name__ = test.__name__
        return run
else:
    def random_cases(test):
        # capsys and monkeypatch are reset by hand in each example
        return settings(max_examples=CASES, deadline=None, database=None,
                        suppress_health_check=[HealthCheck.function_scoped_fixture])(
            given(rng=st.randoms(use_true_random=False))(test))

OVER_DIGIT_LIMIT = "1" + "0" * sys.get_int_max_str_digits()
AT_DIGIT_LIMIT = "9" * sys.get_int_max_str_digits()
DEEP = "[" * 100_000 + "]" * 100_000
ODD_LEAVES = ["true", "false", '"3/4"', '"8/2"', '"-1/2"', '"1/0"', '"p/q"',
              "0.5", "2.0", "-1", "null", OVER_DIGIT_LIMIT, "10" + "0" * 30,
              '"1e5000"', '"0.5"', AT_DIGIT_LIMIT + ", " + AT_DIGIT_LIMIT, DEEP]
KEYS = ["type", "rows", "kind", "n", "m", "a", "b", "d", "l", "f", "g",
        "first", "second"]


def partition_text(rng):
    """Mostly small partitions; sometimes junk, negatives or huge parts."""
    parts = [str(rng.randint(0, 4)) for _ in range(rng.randint(0, 4))]
    if rng.random() < 0.3:
        parts.append(rng.choice(["x", "1/2", "", "-1", " 2", "9" * 5000]))
    text = ",".join(parts)
    return "0," + text if text.startswith("-") else text  # not an option


def argv_for(rng, name, command):
    argv = [name]
    for _, choices in command.positionals:
        argv.append(rng.choice(choices) if choices else partition_text(rng))
    for flag in command.switches:
        if rng.random() < 0.5:
            argv.append(flag)
    for flag in command.ints:  # kept small so that verify stays fast
        argv += [flag, str(rng.randint(-1, 3))]
    return argv


def leaf(rng):
    if rng.random() < 0.97:
        return str(rng.randint(0, 5))
    return rng.choice(ODD_LEAVES)


def junk(rng, depth=0):
    """Any JSON value: nested lists and objects over the leaves."""
    r = rng.random()
    if depth >= 3 or r < 0.4:
        return leaf(rng)
    if r < 0.7:
        return "[" + ", ".join(junk(rng, depth + 1)
                               for _ in range(rng.randint(0, 3))) + "]"
    return "{" + ", ".join(f'"{rng.choice(KEYS)}": {junk(rng, depth + 1)}'
                           for _ in range(rng.randint(0, 3))) + "}"


def rows(rng, triangle):
    m = rng.randint(0, 4)
    n = rng.randint(0, 4)
    widths = [v + 1 for v in range(m + 1)] if triangle else [n] * m
    if rng.random() < 0.1:  # a ragged row
        widths.append(rng.randint(0, 5))
    return "[" + ", ".join("[" + ", ".join(leaf(rng) for _ in range(w)) + "]"
                           for w in widths) + "]"


def tagged(rng, kind):
    if kind == "pair":
        sort = rng.choice(['"standard"', '"antistandard"', '"other"'])
        return (f'{{"type": "pair", "kind": {sort}, "a": {tagged(rng, "array")}, '
                f'"b": {tagged(rng, "array")}}}')
    return f'{{"type": "{kind}", "rows": {rows(rng, kind == "triangle")}}}'


def document(rng, argv):
    """Half the time the kind of object the command reads, else any."""
    name, flags = argv[0], set(argv[1:])
    if rng.random() < 0.5:
        name = rng.choice(["junk", "rsk", "associate", "commute", "hive", "tableau"])
        flags = {rng.choice(["--inverse", "--functional", "--from-pair"])}
    if name == "junk":
        return junk(rng)
    if name == "rsk" and "--inverse" in flags:
        return f'{{"d": {tagged(rng, "array")}, "l": {tagged(rng, "array")}}}'
    if name == "associate" and "--functional" in flags:
        return f'{{"f": {tagged(rng, "triangle")}, "g": {tagged(rng, "triangle")}}}'
    if name == "associate":
        return f'{{"first": {tagged(rng, "pair")}, "second": {tagged(rng, "pair")}}}'
    if name in ("commute", "hive"):
        pair = ("--from-pair" in flags) if name == "hive" else "--functional" not in flags
        return tagged(rng, "pair" if pair else "triangle")
    return tagged(rng, rng.choice(["array", "pair"]) if name == "tableau" else "array")


@random_cases
def test_every_call_keeps_the_exit_code_and_stderr_contract(capsys, monkeypatch, rng):
    table = build_parser()
    name = rng.choice(sorted(table))
    argv = argv_for(rng, name, table[name])
    text = document(rng, argv)
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 1, 2, 3), (argv, text)
    if code:
        assert isinstance(json.loads(err), dict), (argv, text, err)


STDIN_COMMANDS = [["condense", "down"], ["condense", "left"], ["condense", "right"],
                  ["condense", "up"], ["rsk"], ["rsk", "--inverse"], ["propagate"],
                  ["hive"], ["hive", "--to-pair"], ["hive", "--from-pair"],
                  ["commute"], ["commute", "--functional"], ["associate"],
                  ["associate", "--inverse"], ["associate", "--functional"],
                  ["tableau"], ["tableau", "--wall"]]
# a standard pair whose first block alone is not integral
HALF_PAIR = ('{"type":"pair","kind":"standard","a":{"type":"array","rows":[["1/2"]]},'
             '"b":{"type":"array","rows":[[2]]}}')


def valid_rational_documents(rng):
    """Valid objects with masses k / q, q <= 4, n = 1..4, as the encoders
    write them: arrays and their rsk pairs, hives, standard and
    anti-standard pairs, couples of pairs, their associator images and
    couples of their hives."""
    from octarray import associate, pair_to_hive, rsk
    from octarray.checks import (random_antistandard_pair, random_array,
                                 random_couple, random_standard_pair)
    from octarray.serialize import encode_array, encode_pair, encode_triangle

    docs = [HALF_PAIR]
    for n in range(1, 5):
        a = random_array(rng, n, rng.randint(1, 4), 3, 4)
        d, l = rsk(a)
        p1, p2 = random_couple(rng, n, 2, 4)
        objects = [encode_array(a), {"d": encode_array(d), "l": encode_array(l)},
                   encode_triangle(pair_to_hive(random_standard_pair(rng, n, 2, 4))),
                   encode_pair(random_standard_pair(rng, n, 2, 4)),
                   encode_pair(random_antistandard_pair(rng, n, 2, 4)),
                   {"first": encode_pair(p1), "second": encode_pair(p2)},
                   dict(zip(("first", "second"), map(encode_pair, associate(p1, p2)))),
                   {"f": encode_triangle(pair_to_hive(p1)),
                    "g": encode_triangle(pair_to_hive(p2))}]
        docs += map(json.dumps, objects)
    return docs


def test_every_stdin_command_keeps_the_contract_on_valid_rational_objects(
        capsys, monkeypatch):
    for text in valid_rational_documents(random.Random(24)):
        for argv in STDIN_COMMANDS:
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            code = main(argv)
            out, err = capsys.readouterr()
            assert code in (0, 1, 2), (argv, text)
            if code:
                assert isinstance(json.loads(err), dict), (argv, text, err)
