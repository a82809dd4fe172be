"""Each validation branch of the library raises its own exact text.

These are the checks on library input that the rest of the suite never
reaches: every one is reachable from a public call, and each call below
is the smallest that reaches it.
"""

import re
from fractions import Fraction

import pytest

from octarray import (
    SSYT,
    Array,
    CornerFunction,
    LRSkewTableau,
    StandardPair,
    TriangleFunction,
    ValidationError,
    associate,
    associate_functional,
    concat,
    diag,
    enumerate_hives,
    enumerate_standard_pairs,
    hive_to_pair,
    is_yamanouchi,
    lr_oracle,
    propagate_prism_faces,
    serialize,
    split,
    ssyt_to_dtight,
    tetra_propagate,
    triangle_from_points,
)

ZEROS = Array([[0, 0], [0, 0]])
ZERO = lambda *point: 0

CASES = [
    (lambda: Array([[1, 2], [3, 4]]).mass(3, 1), "box (3,1) outside 2x2 array"),
    (lambda: CornerFunction([[0, 0], [0, 1, 2]]), "ragged corner function"),
    (lambda: concat(Array([[1]]), Array([[1], [2]])), "row count mismatch: 1 vs 2"),
    (lambda: split(Array([[1, 2]]), 2), "cannot split 2 columns at 2"),
    (lambda: diag(()), "empty partition"),
    (lambda: SSYT([[1], [2, 3]]), "row lengths must weakly decrease upwards"),
    (lambda: SSYT([[2, 1]]), "row 1 is not weakly increasing"),
    (lambda: ssyt_to_dtight(SSYT([[1, 3]]), n=2), "letter 3 exceeds alphabet size 2"),
    (lambda: ssyt_to_dtight(SSYT([[1], [2]]), m=1), "tableau has more rows than requested"),
    (lambda: is_yamanouchi([1, 0]), "letter 0 out of range"),
    (lambda: LRSkewTableau((2, 1), (1,), [[1]]), "one filling row per shape row required"),
    (lambda: LRSkewTableau((1, 1), (2,), [[], []]), "inner shape not contained in outer"),
    (lambda: LRSkewTableau((2,), (), [[1]]), "row 1 has the wrong number of boxes"),
    (lambda: LRSkewTableau((1,), (), [[2]]), "reading word is not Yamanouchi"),
    (lambda: associate(StandardPair(diag((1,)), Array([[0]])),
                       StandardPair(diag((1, 0)), ZEROS)), "pair sizes differ"),
    (lambda: associate_functional(TriangleFunction([[0], [0, 1]]),
                                  TriangleFunction([[0], [0, 0], [0, 0, 0]])),
     "triangle sizes differ"),
    (lambda: StandardPair(Array([[1, 0]]), Array([[0, 0]])),
     "pair components must be square and equal-sized, got 2x1 and 2x1"),
    (lambda: StandardPair(diag((1, 0)), Array([[0, 1], [0, 0]])),
     "second component is not condensed left"),
    (lambda: StandardPair(ZEROS, Array([[0, 0], [1, 0]])),
     "concatenation is not tight downwards"),
    (lambda: hive_to_pair(TriangleFunction([[0], [1, 0]])),
     "negative mixed difference -1 at (1,1); not a pair hive"),
    (lambda: enumerate_hives((Fraction(1, 2),), (Fraction(1, 2),), (1,)),
     "lam must be an integer partition"),
    (lambda: enumerate_hives((1,), (1, 0), (2, 0)),
     "the three partitions must have equal length"),
    (lambda: enumerate_standard_pairs((1, 0), (1,), (2, 0)),
     "the three partitions must have equal length"),
    (lambda: serialize.decode_array({"type": "array", "m": 3, "rows": [[1]]}),
     "declared m=3 but there are 1 rows"),
    (lambda: propagate_prism_faces(1, -1, ZERO, ZERO, ZERO), "m must be an int >= 0, got -1"),
    (lambda: propagate_prism_faces(-1, 1, ZERO, ZERO, ZERO), "n must be an int >= 0, got -1"),
    (lambda: tetra_propagate(ZERO, ZERO, -1), "n must be an int >= 0, got -1"),
    (lambda: tetra_propagate(ZERO, ZERO, 2.0), "n must be an int >= 0, got 2.0"),
    (lambda: triangle_from_points(1, {(0, 0): 0}), "no value at the point (0, 1)"),
]


@pytest.mark.parametrize("call, text", CASES, ids=[text for _, text in CASES])
def test_validation_branch_raises_its_text(call, text):
    with pytest.raises(ValidationError, match=f"^{re.escape(text)}$"):
        call()


def test_an_inner_part_past_the_outer_shape_is_not_contained():
    # the containment check once zipped inner with outer, so it never read
    # inner's parts past the outer shape's last row
    with pytest.raises(ValidationError, match="^inner shape not contained in outer$"):
        LRSkewTableau((1,), (1, 1), [[]])
    assert LRSkewTableau((1,), (0, 0), [[1]]).rows == ((1,),)


def test_lr_oracle_is_zero_when_the_sizes_do_not_add_up():
    assert lr_oracle((1,), (1,), (3,)) == 0
    assert lr_oracle((1, 0), (1, 0), (1, 1)) == 1
