"""Compare the library's results under the working tree and a parent commit.

The script draws one fixed-seed battery of library calls, exports REF's
src/ with git archive into a temporary directory (reftree.py), and runs the
battery under REF's package and under the working tree's, each in its own
interpreter.  Each call's outcome -- its result, with the type of every
value, or the type and text of the error it raised -- is reduced to one
digest, and the digests are compared case by case.  The first case that
differs is printed with both outcomes, and the script exits 1.

The battery, on integer arrays and on arrays of masses k/q, q <= 4, of
every kind of shape (square, more rows, more columns, 1 x k and k x 1):

* condense_down, condense_left, condense_right, condense_up and rsk of
  each array;
* rsk_inverse on three pairs per array: its own condensations, its down-
  condensation with the left-condensation of the last array of its shape,
  and a pair that is perturbed, transposed or not condensed at all;
* com_prime and hk_wall_h on hives of sizes 1 to 10, and on each hive
  with one value raised.

The inputs are drawn with REF's package, the reference, and handed to
both runs as data, so both see the same calls, and a fault in the working
tree cannot change them.  Usage, from the root of a checkout:

    python tools/parity.py REF
"""

import hashlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from reftree import outputs, reference

ARRAYS = 4000
HIVES_PER_SIZE = 30
SEED = 0
CONDENSATIONS = ("condense_down", "condense_left", "condense_right", "condense_up")
SHOWN = 300  # characters of each outcome printed on a difference


def encode(rows) -> list:
    """Rows of exact values as JSON: an int, or "p/q" for a Fraction."""
    return [[v if type(v) is int else f"{v.numerator}/{v.denominator}" for v in row]
            for row in rows]


def decode(rows) -> list:
    return [[Fraction(v) if type(v) is str else v for v in row] for row in rows]


def raised(rows, rng, j=None) -> list:
    """Encoded rows with one value, in row j or a random row, raised by 1/q."""
    rows = decode(rows)
    row = rows[rng.randrange(len(rows)) if j is None else j]
    row[rng.randrange(len(row))] += Fraction(1, rng.randint(1, 4))
    return encode(rows)


def array_rows(rng, k: int) -> list:
    """Rows of the k-th array: its shape kind is k mod 5, its masses are
    ints or, on odd k, multiples of 1/q."""
    a, b = rng.randint(1, 9), rng.randint(1, 9)
    m, n = [(a, a), (max(a, b), min(a, b)), (min(a, b), max(a, b)), (1, a), (a, 1)][k % 5]
    q = rng.randint(2, 4) if k % 2 else 1
    density = rng.choice((0.2, 0.6, 1.0))
    return [[Fraction(rng.randint(0, 9), q) if rng.random() < density else 0
             for _ in range(n)] for _ in range(m)]


def cases() -> list:
    """The battery as (label, function name, encoded arguments)."""
    import octarray

    rng = random.Random(SEED)
    out, previous = [], {}
    for k in range(ARRAYS):
        a = octarray.Array(array_rows(rng, k))
        label = f"array {k} ({a.m}x{a.n})"
        rows = encode(a.rows)
        out += [(label, name, [rows]) for name in CONDENSATIONS + ("rsk",)]
        d, l = (encode(x.rows) for x in octarray.rsk(a))
        odd = [("d raised", (raised(d, rng), l)),
               ("pair transposed", (list(zip(*l)), list(zip(*d)))),
               ("the array twice", (rows, rows)),
               ("pair swapped", (l, d))][k % 4]
        crossed = (d, previous.get((a.m, a.n), l))
        for what, pair in (("own pair", (d, l)), ("crossed pair", crossed), odd):
            out.append((f"{label}, {what}", "rsk_inverse", list(pair)))
        previous[a.m, a.n] = l
    for n in range(1, 11):
        for j in range(HIVES_PER_SIZE):
            h = encode(octarray.checks.random_hive(rng, n, 3, 1 + j % 4).values)
            for label, values in ((f"hive {n}.{j}", h),
                                  (f"hive {n}.{j} raised", raised(h, rng, n))):
                out += [(label, name, [values]) for name in ("com_prime", "hk_wall_h")]
    return out


def text(x) -> str:
    """An outcome as text: each value with its type."""
    if isinstance(x, tuple):
        return "(" + ", ".join(map(text, x)) + ")"
    rows = x.rows if hasattr(x, "rows") else x.values
    return type(x).__name__ + str([[f"{type(v).__name__} {v}" for v in row]
                                   for row in rows])


def run(src: str, path: str) -> None:
    """Run every case of the file at path under src's package, writing
    [digest, the outcome's first SHOWN characters] for each as one JSON
    list."""
    sys.path.insert(0, src)
    import octarray

    wrap = {"com_prime": octarray.TriangleFunction, "hk_wall_h": octarray.TriangleFunction}
    results = []
    for _, name, args in json.loads(Path(path).read_text()):
        try:
            result = text(getattr(octarray, name)(
                *(wrap.get(name, octarray.Array)(decode(rows)) for rows in args)))
        except Exception as exc:  # an error is an outcome to compare too
            result = f"{type(exc).__name__}: {exc}"
        results.append([hashlib.sha256(result.encode()).hexdigest(), result[:SHOWN]])
    json.dump(results, sys.stdout)


def main(argv) -> int:
    if argv[:1] == ["--run"]:
        run(*argv[1:3])
        return 0
    if not argv or argv[0].startswith("-"):
        raise SystemExit(__doc__)
    ref = argv[0]
    with reference(ref) as tmp:
        sys.path.insert(0, str(tmp / "ref" / "src"))
        drawn = cases()
        path = tmp / "cases.json"
        path.write_text(json.dumps(drawn))
        results = outputs(__file__, tmp, path)
    for (label, name, _), old, new in zip(drawn, *results):
        if old[0] != new[0]:
            print(f"{name} on {label}\n  {ref}: {old[1]}\n  working tree: {new[1]}")
            return 1
    pairs = sum(name == "rsk_inverse" for _, name, _ in drawn)
    print(f"{len(drawn)} cases, {pairs} of them rsk_inverse pairs: no difference")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
