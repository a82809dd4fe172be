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
  with one value raised;
* associate_functional on compatible couples of hives of sizes 1 to 10,
  the pair_to_hive of checks.random_couple, half of them with one value of
  the second hive raised;
* lr_coefficient, lr_oracle, enumerate_hives and enumerate_standard_pairs
  on LR types (lam, mu, nu): the types of random standard pairs of sizes 1
  to 6; each again with a box of nu moved from its first part to its last,
  which often makes c = 0; and a bad type made from each, with an
  unsorted, negative, Fraction or bool part, with parts of unequal
  lengths, or empty;
* lr_coefficient and lr_oracle on three larger types, with c = 1,082,
  2,611 and 303, whose searches run deep (the sizes above are 1 to 6);
* the four LR entry points on the types (2K, K, 0), (2K, K, 0),
  (3K, 2K, K) for K = 10, 50 and 200, c = K + 1, whose hive search has
  one interior point taking K + 1 values (lr_oracle on the first two only:
  at K = 200 it passes MAX_SEARCH_NODES).

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
TYPES_PER_SIZE = 40
SEED = 0
CONDENSATIONS = ("condense_down", "condense_left", "condense_right", "condense_up")
LR = ("lr_coefficient", "lr_oracle", "enumerate_hives", "enumerate_standard_pairs")
SHOWN = 300  # characters of each outcome printed on a difference
# (lam, mu, nu) with c = 1,082, 2,611 and 303, drawn after the random cases
DEEP_TYPES = [((15, 12, 5, 2, 1, 0), (15, 10, 6, 2, 2, 1), (23, 20, 13, 8, 4, 3)),
              ((15, 11, 8, 3, 1, 0), (15, 13, 8, 4, 0, 0), (26, 20, 14, 10, 7, 1)),
              ((9, 7, 5, 3, 1, 0, 0), (9, 6, 3, 2, 1, 0, 0), (15, 11, 8, 7, 2, 2, 1))]
# (lam, mu, nu) with one interior hive point and c = K + 1, drawn last
ONE_POINT_TYPES = [((2 * k, k, 0), (2 * k, k, 0), (3 * k, 2 * k, k)) for k in (10, 50, 200)]


def encode(rows) -> list:
    """Rows of exact values as JSON: an int or a bool, or "p/q" for a
    Fraction."""
    return [[v if type(v) in (int, bool) else f"{v.numerator}/{v.denominator}"
             for v in row] for row in rows]


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


def pair_type(octarray, rng, n: int) -> tuple:
    """The type of a random standard pair of size n: up to 3n unit masses
    dropped on an n x 2n array, its halves condensed left, then condensed
    down together."""
    rows = [[0] * (2 * n) for _ in range(n)]
    for _ in range(rng.randint(0, 3 * n)):
        rows[rng.randrange(n)][rng.randrange(2 * n)] += 1
    b, c = map(octarray.condense_left, octarray.split(octarray.Array(rows), n))
    pair = octarray.StandardPair(*octarray.split(octarray.condense_down(octarray.concat(b, c)), n))
    return tuple(map(tuple, pair.type()))


def moved(nu) -> tuple:
    """nu with a box moved from its first part to its last, sorted again:
    a box added if nu has one part, a part -1 if nu is zero."""
    nu = list(nu)
    nu[0], nu[-1] = nu[0] - 1, nu[-1] + 1
    return tuple(sorted(nu, reverse=True))


def bad_type(lam, mu, nu, k: int):
    """The k-th kind of bad type, made from a good one: (what, type)."""
    return [("unsorted", (lam, mu, nu[:-1] + (nu[0] + 1,))),
            ("negative", (lam, mu[:-1] + (-1,), nu)),
            ("half", ((Fraction(2 * lam[0] + 1, 2),) + lam[1:], mu, nu)),
            ("integral Fraction", (tuple(map(Fraction, lam)), mu, nu)),
            ("bool", (lam, mu[:-1] + (True,), nu)),
            ("longer mu", (lam, mu + (0,), nu)),
            ("shorter nu", (lam, mu, nu[:-1])),
            ("empty", ((), (), ()))][k % 8]


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
    for n in range(1, 11):
        for j in range(HIVES_PER_SIZE):
            f, g = (encode(octarray.pair_to_hive(p).values)
                    for p in octarray.checks.random_couple(rng, n, 3, 1 + j % 4))
            label = f"couple {n}.{j}" + (" raised" if j % 2 else "")
            out.append((label, "associate_functional", [f, raised(g, rng, n) if j % 2 else g]))
    for n in range(1, 7):
        for j in range(TYPES_PER_SIZE):
            lam, mu, nu = pair_type(octarray, rng, n)
            what, bad = bad_type(lam, mu, nu, j)
            for label, t in ((f"type {n}.{j}", (lam, mu, nu)),
                             (f"type {n}.{j}, a box moved", (lam, mu, moved(nu))),
                             (f"type {n}.{j}, {what}", bad)):
                out += [(label, name, encode(t)) for name in LR]
    for k, t in enumerate(DEEP_TYPES):
        out += [(f"deep type {k}", name, encode(t)) for name in LR[:2]]
    for t in ONE_POINT_TYPES:
        out += [(f"one-point type, K = {t[1][1]}", name, encode(t)) for name in LR
                if name != "lr_oracle" or t[1][1] < 200]
    return out


def text(x) -> str:
    """An outcome as text: each value with its type."""
    if type(x) is int:
        return f"int {x}"
    if isinstance(x, tuple):
        return "(" + ", ".join(map(text, x)) + ")"
    if isinstance(x, list):
        return "[" + ", ".join(map(text, x)) + "]"
    if type(x).__name__ == "StandardPair":
        return "StandardPair" + text((x.a, x.b))
    rows = x.rows if hasattr(x, "rows") else x.values
    return type(x).__name__ + str([[f"{type(v).__name__} {v}" for v in row]
                                   for row in rows])


def run(src: str, path: str) -> None:
    """Run every case of the file at path under src's package, writing
    [digest, the outcome's first SHOWN characters] for each as one JSON
    list."""
    sys.path.insert(0, src)
    import octarray

    wrap = dict.fromkeys(("com_prime", "hk_wall_h", "associate_functional"),
                         octarray.TriangleFunction)
    results = []
    for _, name, args in json.loads(Path(path).read_text()):
        try:
            values = decode(args) if name in LR else [
                wrap.get(name, octarray.Array)(decode(rows)) for rows in args]
            result = text(getattr(octarray, name)(*values))
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
    types = len({label for label, name, _ in drawn if name in LR})
    print(f"{len(drawn)} cases, {pairs} of them rsk_inverse pairs and {types} LR types: "
          "no difference")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
