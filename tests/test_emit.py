"""The CLI's JSON emitter against json.dumps(obj, indent=2).

cli._dumps writes every flat row, and every list of rows, of exact ints and
strings by one %-format, its template cached per (row lengths, indent) in a
bounded lru_cache; propagate writes its values through one template per
(n, m), made from the same row template with x, y and z written in.  Its
output must still equal json.dumps(obj, indent=2) byte for byte, whatever
the caches already hold.  Random values are nested dicts and lists over
ints (negative, and at the digit limit), booleans, None, an IntEnum,
awkward strings and rows: equal, ragged, empty, int and "p/q" mixed, with a
bool or an IntEnum among ints.  With hypothesis installed the generator is
drawn by hypothesis; without it, a seeded loop runs the same test body.
The same rows are written at several indents, rows of equal totals in two
shapes, and propagate's output is checked against the object built from
the solid's points.  Every fixture is also run through every subcommand
form, and each JSON output must be the indented dump of itself.
"""

import enum
import io
import json
import random
import sys

import pytest

from octarray import serialize
from octarray.checks import random_array
from octarray.cli import _dumps, main
from octarray.fixtures import load_fixture
from octarray.octahedron import PRISM_FRAME, array_layers, is_flat_concave, prism_function
from octarray.scalars import scaled_to_json

CASES = 200

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # seeded loops instead
    def random_cases(test):
        def run():
            for seed in range(CASES):
                test(random.Random(seed))

        run.__name__ = test.__name__
        return run
else:
    def random_cases(test):
        return settings(max_examples=CASES, deadline=None, database=None)(
            given(rng=st.randoms(use_true_random=False))(test))


class Mass(enum.IntEnum):
    ONE = 1


AT_LIMIT = 10 ** (sys.get_int_max_str_digits() - 1)  # the longest printable int
STRINGS = ["", "3/4", "-1/2", 'say "hi"', "back\\slash", "tab\tnew\nline",
           "\x00\x1f\x7f", "é", "日本", "\U0001f600", "\ud800"]


def scalar(rng):
    return rng.choice([rng.randint(-5, 5), rng.randint(-10**30, 10**30), AT_LIMIT,
                       -AT_LIMIT, True, False, None, Mass.ONE, 0.5,
                       rng.choice(STRINGS)])


ODD = ["3/4", "-1/2", True, False, None, Mass.ONE, AT_LIMIT, -AT_LIMIT, 0.5, "日本"]


def row(rng, width):
    values = [rng.randint(-9, 9) for _ in range(width)]
    if values and rng.random() < 0.5:  # one value that is not a small int
        values[rng.randrange(width)] = rng.choice(ODD)
    return tuple(values) if rng.random() < 0.1 else values


def rows(rng):
    width = rng.randint(0, 4)
    out = [row(rng, width) if rng.random() < 0.3 else
           [rng.randint(-9, 9) for _ in range(width)] for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.2:  # a ragged row
        out.insert(rng.randint(0, len(out)), row(rng, rng.choice([0, width + 1])))
    return out


def value(rng, depth=0):
    r = rng.random()
    if depth >= 3 or r < 0.3:
        return scalar(rng)
    if r < 0.5:
        return row(rng, rng.randint(0, 4))
    if r < 0.7:
        return rows(rng)
    if r < 0.85:
        return {rng.choice(STRINGS + ["rows", "n"]): value(rng, depth + 1)
                for _ in range(rng.randint(0, 3))}
    return [value(rng, depth + 1) for _ in range(rng.randint(0, 3))]


@random_cases
def test_dumps_equals_indented_json_dumps(rng):
    obj = value(rng)
    assert _dumps(obj) == json.dumps(obj, indent=2), obj


@pytest.mark.parametrize("obj", [
    {}, [], [[]], [[], []], {"k": [], "": {}}, 7, None, 'say "hi"', [[1, 2], [3]],
    [[1, True], [2, 3]], [1, True], [[Mass.ONE, 2], [3, 4]], [Mass.ONE, 2],
    [[1, None], [2, 3]], [["3/4", 1], [2, 3]], [[AT_LIMIT, -AT_LIMIT]], (1, "2/3"),
    [(1, 2), [3, 4]], [[[1, 2]], [[3, 4]]], [{"a": 1}, {"a": 2}], ["\x00", "é"]])
def test_dumps_on_edge_values(obj):
    assert _dumps(obj) == json.dumps(obj, indent=2)


def test_one_process_writes_each_shape_at_each_indent():
    # the template cache must tell apart indents, and shapes of one total
    rows = [[1, "2/3"], [3]]
    objects = [rows, {"rows": rows}, {"a": {"rows": rows}}, [[1], [2, 3]], [[1, 2, 3]],
               [1, 2, 3], {"d": [1, 2, 3]}, [[], [1, 2]], [[1, 2], []], [[1, 2]], [1, 2]]
    for _ in range(2):
        for obj in objects + objects[::-1]:
            assert _dumps(obj) == json.dumps(obj, indent=2), obj


@pytest.mark.parametrize("obj", [[1, True], [[2, 3], [4, False]], {"a": True, "b": 1},
                                 [True, 1], [[True]], {"k": [False, "1/2"]}])
def test_a_bool_among_ints_is_never_written_as_an_int(obj):
    _dumps([1, 2])  # int templates of these shapes are in the cache first
    _dumps([[2, 3], [4, 5]])
    assert _dumps(obj) == json.dumps(obj, indent=2)


def propagate_object(a):
    """propagate's output object, built from the solid's points."""
    L, D = list(array_layers(a.ints)), a.D
    solid = prism_function(L)
    return {"n": a.n, "m": a.m,
            "values": [[x, y, z, scaled_to_json(v, D)] for (x, y, z), v in solid.values.items()],
            "top": serialize.json_rows(D, L[-1]),
            "polarized": True,
            "polarized_concave": is_flat_concave(solid, PRISM_FRAME)}


def test_propagate_writes_the_points_of_its_solid(capsys, monkeypatch):
    rng = random.Random(31)
    # 36 shapes, more than the per-(n, m) cache holds: written on misses and hits
    for n in range(1, 7):
        for m in range(1, 7):
            for q in (1, 4):
                a = random_array(rng, n, m, 5, q)
                monkeypatch.setattr(sys, "stdin", io.StringIO(
                    json.dumps(serialize.encode_array(a))))
                assert main(["propagate"]) == 0
                want = json.dumps(propagate_object(a), indent=2) + "\n"
                assert capsys.readouterr().out == want, (n, m, q)


@pytest.mark.parametrize("obj", [[[AT_LIMIT * 10]], [AT_LIMIT * 10, "1/2"],
                                 [[AT_LIMIT * 10], [1, 2]], {"n": AT_LIMIT * 10}])
def test_dumps_refuses_ints_past_the_digit_limit(obj):
    with pytest.raises(ValueError):
        json.dumps(obj, indent=2)
    with pytest.raises(ValueError):
        _dumps(obj)


FORMS = [["condense", d] for d in ("down", "left", "right", "up")] + [
    ["rsk"], ["rsk", "--inverse"], ["propagate"], ["hive"], ["hive", "--to-pair"],
    ["hive", "--from-pair"], ["commute"], ["commute", "--functional"], ["associate"],
    ["associate", "--inverse"], ["associate", "--functional"]]


def test_every_fixture_output_is_its_own_indented_dump(capsys, monkeypatch):
    def run(argv, text):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code = main(argv)
        return code, capsys.readouterr().out

    docs = [load_fixture(name) for name in ("f1", "f2", "f3", "f4")]
    inputs = [json.dumps(doc[key]) for doc in docs
              for key in ("array", "pair", "triangle") if key in doc]
    f4 = json.dumps(docs[3]["triangle"])
    inputs += ['{"f": %s, "g": %s}' % (f4, f4),
               '{"first": %s, "second": %s}' % ((json.dumps(docs[2]["pair"]),) * 2)]
    checked = 0
    for _ in range(2):  # the fixtures, then each of their outputs
        outputs = []
        for text in inputs:
            for argv in FORMS:
                code, out = run(argv, text)
                if code == 0:
                    assert out == json.dumps(json.loads(out), indent=2) + "\n", argv
                    outputs.append(out)
        checked += len(outputs)
        inputs = outputs
    assert checked > 50
