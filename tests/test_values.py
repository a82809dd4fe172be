"""The value classes behave as they did as frozen dataclasses: the repr,
equality, pickle and copy below are those of the dataclass versions, written
out as literals, and the hash is that of the field tuple, as a dataclass's.
Every value object refuses assignment to any attribute; the verify reports
stay mutable."""

import copy
import pickle
from fractions import Fraction

import pytest

from octarray.arrays import Array, CornerFunction
from octarray.bijections import SSYT, LRSkewTableau
from octarray.checks import CheckReport
from octarray.hives import AntiStandardPair, HiveType, StandardPair, TriangleFunction
from octarray.octahedron import PRISM_FRAME, PrismFunction, Solid, TetraFunction

PRISM_FRAME_REPR = (
    "OctahedronFrame(main=(1, 0, 1), pairs=(((1, 0, 0), (0, 0, 1)), "
    "((1, 1, 1), (0, -1, 0))), flats=(((0, -1, 0), (0, 0, -1)), "
    "((0, 1, 0), (1, 0, 0)), ((0, 0, 1), (-1, -1, -1)), ((-1, 0, 0), (1, 1, 1))))"
)

PRISM_FRAME_FIELDS = (
    (1, 0, 1),
    (((1, 0, 0), (0, 0, 1)), ((1, 1, 1), (0, -1, 0))),
    (((0, -1, 0), (0, 0, -1)), ((0, 1, 0), (1, 0, 0)), ((0, 0, 1), (-1, -1, -1)),
     ((-1, 0, 0), (1, 1, 1))),
)

# (factory, repr, the field tuple it hashes as, or None where hash raises TypeError)
FROZEN = [
    # the fields of an array, a corner function and a triangle function are
    # their state: the values as ints over their least common denominator D
    (lambda: Array([[1, 0], [Fraction(1, 2), 2]]),
     "Array([[1, 0], [Fraction(1, 2), 2]])", (2, ((2, 0), (1, 4)))),
    (lambda: CornerFunction([[0, 0], [0, Fraction(3, 2)]]),
     "CornerFunction(values=((0, 0), (0, Fraction(3, 2))))",
     (2, ((0, 0), (0, 3)))),
    (lambda: TriangleFunction([[0], [1, 2]]),
     "TriangleFunction(values=((0,), (1, 2)))", (1, ((0,), (1, 2)))),
    (lambda: StandardPair(Array([[1]]), Array([[2]])),
     "StandardPair(a=Array([[1]]), b=Array([[2]]))", (Array([[1]]), Array([[2]]))),
    (lambda: AntiStandardPair(Array([[1]]), Array([[2]])),
     "AntiStandardPair(a=Array([[1]]), b=Array([[2]]))", (Array([[1]]), Array([[2]]))),
    (lambda: SSYT([[1, 1, 2], [2]]),
     "SSYT(rows=((1, 1, 2), (2,)))", (((1, 1, 2), (2,)),)),
    (lambda: LRSkewTableau((2, 1), (1,), [[1], [1]]),
     "LRSkewTableau(outer=(2, 1), inner=(1, 0), rows=((1,), (1,)))",
     ((2, 1), (1, 0), ((1,), (1,)))),
    (lambda: PRISM_FRAME, PRISM_FRAME_REPR, PRISM_FRAME_FIELDS),
    (lambda: Solid({(0, 0, 0): 1}), "Solid(values={(0, 0, 0): 1})", None),
    (lambda: PrismFunction(values={(0, 0, 0): 1}, n=0, m=0),
     "PrismFunction(values={(0, 0, 0): 1}, n=0, m=0)", None),
    (lambda: TetraFunction(values={(0, 0, 0): 1}, n=0),
     "TetraFunction(values={(0, 0, 0): 1}, n=0)", None),
]
MUTABLE = [
    (lambda: CheckReport("demo", 1, ["broken"]),
     "CheckReport(name='demo', cases=1, failures=['broken'])"),
]
ALL = [(make, text) for make, text, _ in FROZEN] + MUTABLE
IDS = [text.split("(")[0] for _, text in ALL]


@pytest.mark.parametrize("make, text", ALL, ids=IDS)
def test_repr_equality_and_round_trips(make, text):
    x = make()
    assert repr(x) == text
    assert x == make() and not x != make()
    assert x != text and (x == text) is False
    for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
        assert type(y) is type(x) and y == x and repr(y) == text


@pytest.mark.parametrize("make, text, fields", FROZEN, ids=IDS[:len(FROZEN)])
def test_hash_over_the_fields(make, text, fields):
    if fields is None:
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(make())
    else:
        assert hash(make()) == hash(fields)


@pytest.mark.parametrize("make, text", MUTABLE, ids=IDS[len(FROZEN):])
def test_reports_are_mutable_and_unhashable(make, text):
    r = make()
    with pytest.raises(TypeError, match="unhashable type"):
        hash(r)
    r.failures.append("late")
    r.name = "renamed"
    assert r != make() and repr(r).startswith(f"{type(r).__name__}(name='renamed'")


def test_equality_is_within_one_class():
    a, b = Array([[1]]), Array([[2]])
    assert StandardPair(a, b) != AntiStandardPair(a, b)
    assert Solid({(0, 0, 0): 1}) != PrismFunction(values={(0, 0, 0): 1}, n=0, m=0)
    assert CornerFunction([[0, 0], [0, 1]]) != TriangleFunction([[0], [0, 1]])
    assert len({StandardPair(a, b), StandardPair(a, b), AntiStandardPair(a, b)}) == 2


@pytest.mark.parametrize("make, text, fields", FROZEN, ids=IDS[:len(FROZEN)])
def test_fields_cannot_be_assigned_or_deleted(make, text, fields):
    x = make()
    field = next(iter(vars(x)))
    with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
        setattr(x, field, 1)
    with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
        delattr(x, field)
    assert repr(x) == text


@pytest.mark.parametrize("make, text, fields", FROZEN, ids=IDS[:len(FROZEN)])
def test_no_attribute_can_be_added(make, text, fields):
    # a standard or anti-standard pair accepted any name but a and b before
    x = make()
    with pytest.raises(AttributeError, match="^cannot assign to field 'rows_extra'$"):
        x.rows_extra = 1
    assert "rows_extra" not in vars(x)


def test_missing_or_unknown_fields_raise_type_error():
    with pytest.raises(TypeError):
        Solid()
    with pytest.raises(TypeError):
        TetraFunction(values={}, n=0, m=0)
    with pytest.raises(TypeError):
        Solid({}, values={})
    with pytest.raises(TypeError):
        CheckReport("demo", 1, [], [])


def test_hive_type_is_a_named_triple():
    t = HiveType((2, 1), (1,), (3, 1))
    assert repr(t) == "HiveType(lam=(2, 1), mu=(1,), nu=(3, 1))"
    assert t == ((2, 1), (1,), (3, 1)) and t._fields == ("lam", "mu", "nu")
