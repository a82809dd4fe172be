"""Workloads of the octarray benchmark: inputs, operations and output checks.

Every input is derived here from the run's seed; the program only ever sees
argv and JSON text.  Inputs come in blocks.  A block covers a fixed set of
size classes in a seeded order, so every run sees the same mix of sizes and
only the contents differ between seeds.

The reference arithmetic below restates the definitions (pair condensation,
double integrals, hives of pairs, the two-dimensional commuter route) in a
few lines of plain Python.  It builds valid pairs and LR types and checks
the program's outputs; it shares no code with the program.
"""

import json
from fractions import Fraction

# -- reference arithmetic: lists of rows, bottom row first, exact scalars -----


def condense_pair(u, v):
    """Move mass from row v down to row u until the pair is tight.

    With prefix sums U, V the new bottom prefix is U(i) + max_{k<=i}
    (V(k) - U(k-1)); column sums are kept.
    """
    low = high = prev = 0
    best = None
    new_u, new_v = [], []
    for x, y in zip(u, v):
        high += y
        beta = high - low
        best = beta if best is None or beta > best else best
        low += x
        cur = low + best
        new_u.append(cur - prev)
        new_v.append(x + y - (cur - prev))
        prev = cur
    return new_u, new_v


def condense_down(rows):
    """Condense adjacent row pairs until nothing moves (the unique fixpoint)."""
    rows = [list(r) for r in rows]
    changed = True
    while changed:
        changed = False
        for j in range(len(rows) - 2, -1, -1):
            u, v = condense_pair(rows[j], rows[j + 1])
            if u != rows[j]:
                rows[j], rows[j + 1] = u, v
                changed = True
    return rows


def transpose(rows):
    return [list(col) for col in zip(*rows)]


def condense_left(rows):
    return transpose(condense_down(transpose(rows)))


def central_reverse(rows):
    return [row[::-1] for row in rows[::-1]]


def concat(*blocks):
    return [sum(parts, []) for parts in zip(*blocks)]


def split(rows, *widths):
    out, start = [], 0
    for w in widths:
        out.append([row[start:start + w] for row in rows])
        start += w
    return out


def row_sums(rows):
    return [sum(row) for row in rows]


def diag(p):
    return [[p[j] if i == j else 0 for i in range(len(p))] for j in range(len(p))]


def integrate(rows):
    """F[j][i] = mass in columns <= i and rows <= j, zero on the axes."""
    F = [[0] * (len(rows[0]) + 1)]
    for row in rows:
        acc, out = 0, [0]
        for i, x in enumerate(row, start=1):
            acc += x
            out.append(F[-1][i] + acc)
        F.append(out)
    return F


def pair_hive(a, b):
    """Hive of the pair (a, b): h(u, v) = integral of a|b over columns
    <= n + u and rows <= v."""
    n = len(a)
    F = integrate(concat(a, b))
    return [[F[v][n + u] for u in range(v + 1)] for v in range(n + 1)]


def commuted_hive_2d(h, b):
    """The commuter on the hive h of a pair with second component b, by the
    two-dimensional route: condense the reversed transpose of b, integrate,
    renormalise by the reversed diagonal increments and rotate."""
    n = len(h) - 1
    lstar = transpose(condense_down(central_reverse(transpose(b))))
    F = integrate(lstar)
    nu = [h[k][k] - h[k - 1][k - 1] for k in range(1, n + 1)]
    nuop = [0]
    for x in reversed(nu):
        nuop.append(nuop[-1] + x)
    total = sum(nu)
    return [[F[n - u][v - u] - nuop[n - u] + total for u in range(v + 1)]
            for v in range(n + 1)]


# -- JSON ---------------------------------------------------------------------


def scalar(x):
    """JSON form of an exact scalar: an int, or "p/q" in lowest terms."""
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def json_rows(rows):
    return [[scalar(x) for x in row] for row in rows]


def array_json(rows):
    return {"type": "array", "rows": json_rows(rows)}


def pair_json(a, b):
    return {"type": "pair", "kind": "standard",
            "a": array_json(a), "b": array_json(b)}


def pair_rows(obj):
    return obj["kind"], obj["a"]["rows"], obj["b"]["rows"]


# -- random inputs --------------------------------------------------------------


def random_rows(rng, n, m, max_mass, max_denom=1):
    """m rows of n masses; with max_denom > 1 each mass is k/q, q <= max_denom."""
    rows = []
    for _ in range(m):
        if max_denom == 1:
            rows.append([rng.randint(0, max_mass) for _ in range(n)])
        else:
            row = []
            for _ in range(n):
                q = rng.randint(1, max_denom)
                row.append(Fraction(rng.randint(0, max_mass * q), q))
            rows.append(row)
    return rows


def scatter(rng, n, m, total):
    """m rows of n zeros with total unit masses dropped at random boxes."""
    rows = [[0] * n for _ in range(m)]
    for _ in range(total):
        rows[rng.randrange(m)][rng.randrange(n)] += 1
    return rows


def tight_blocks(blocks):
    """Condense each n x n block left, then their concatenation down, and
    split again: consecutive blocks of the result form standard pairs."""
    n = len(blocks[0])
    parts = [condense_left(b) for b in blocks]
    return split(condense_down(concat(*parts)), *[n] * len(blocks))


def trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


# -- operations -------------------------------------------------------------------
#
# An operation's run(call) makes its CLI calls and returns their outputs; it
# is the timed part.  check(outputs) parses and verifies them afterwards and
# returns None or a description of what is wrong.


class ArraysOp:
    """condense down, rsk, then rsk --inverse on the rsk output."""

    def __init__(self, rows):
        self.rows = json_rows(rows)
        self.text = json.dumps({"type": "array", "rows": self.rows})

    def run(self, call):
        down = call(["condense", "down"], self.text)
        both = call(["rsk"], self.text)
        back = call(["rsk", "--inverse"], both)
        return [down, both, back]

    def check(self, outputs):
        down, both, back = (json.loads(x) for x in outputs)
        d = both["d"]["rows"]
        if down["rows"] != d:
            return "condense down differs from the rsk ceiling"
        if down["shape"] != [scalar(sum(Fraction(x) for x in row)) for row in d]:
            return "shape differs from the row sums of the down-condensation"
        if back["rows"] != self.rows:
            return "rsk --inverse does not recover the input"
        return None


class LROp:
    """lr lam mu nu --oracle on the type of a random standard pair."""

    def __init__(self, lam, mu, nu):
        self.argv = ["lr"] + [",".join(map(str, p)) for p in (lam, mu, nu)] + ["--oracle"]

    def run(self, call):
        return [call(self.argv, "")]

    def check(self, outputs):
        out = json.loads(outputs[0])
        if not out["coefficient"] == out["oracle"] >= 1:
            return f"coefficient {out['coefficient']}, oracle {out['oracle']}"
        return None


class HivesOp:
    """On a random couple of standard pairs (p1, p2): the hives of both
    pairs, the concavity and increments of the first, associate and its
    inverse, the functional associator on the two hives, the functional
    commuter on the first, and the prism propagation of the concatenated
    second components."""

    def __init__(self, a, b, c):
        sigma = row_sums(concat(a, b))
        self.p1, self.p2 = (a, b), (diag(sigma), c)
        self.p1_text = json.dumps(pair_json(*self.p1))
        self.p2_text = json.dumps(pair_json(*self.p2))
        self.couple_text = json.dumps({"first": pair_json(*self.p1),
                                       "second": pair_json(*self.p2)})
        self.bc_text = json.dumps(array_json(concat(b, c)))
        self.f = pair_hive(*self.p1)
        self.g = pair_hive(*self.p2)
        self.n = len(a)

    def run(self, call):
        f = call(["hive", "--from-pair"], self.p1_text)
        g = call(["hive", "--from-pair"], self.p2_text)
        shape = call(["hive"], f)
        moved = call(["associate"], self.couple_text)
        back = call(["associate", "--inverse"], moved)
        fg = call(["associate", "--functional"], '{"f": %s, "g": %s}' % (f, g))
        com = call(["commute", "--functional"], f)
        prism = call(["propagate"], self.bc_text)
        return [f, g, shape, moved, back, fg, com, prism]

    def check(self, outputs):
        f, g, shape, moved, back, fg, com, prism = (json.loads(x) for x in outputs)
        if f["rows"] != json_rows(self.f) or g["rows"] != json_rows(self.g):
            return "hive --from-pair differs from the integral of the pair"
        h = self.f
        if shape["concave"] is not True or shape["increments"]["nu"] != [
                h[k][k] - h[k - 1][k - 1] for k in range(1, self.n + 1)]:
            return "hive of a pair is not concave or has the wrong increments"
        if (pair_rows(back["first"]), pair_rows(back["second"])) != (
                ("standard",) + tuple(json_rows(x) for x in self.p1),
                ("standard",) + tuple(json_rows(x) for x in self.p2)):
            return "associate --inverse does not recover the couple"
        o1, o2 = (pair_rows(moved[k])[1:] for k in ("first", "second"))
        # thm3: the functional associator gives the hives of the moved pairs
        if fg["p"]["rows"] != json_rows(pair_hive(*o1)) or \
                fg["q"]["rows"] != json_rows(pair_hive(*o2)):
            return "functional associator differs from the hives of associate"
        # thm4: the propagation route of the commuter equals the 2d route
        if com["rows"] != json_rows(commuted_hive_2d(self.f, self.p1[1])):
            return "commute --functional differs from the two-dimensional route"
        if prism["polarized"] is not True:
            return "prism propagation is not polarized"
        # associate's first output pair is the down-condensation of b|c,
        # which the ceiling of the prism over b|c integrates
        if prism["top"] != json_rows(integrate(concat(*o1))):
            return "prism ceiling differs from the down-condensation"
        return None


# -- workloads ------------------------------------------------------------------


class Arrays:
    """Arrays on a grid of sides; one block holds every (columns, rows) pair."""

    def __init__(self, rng, sides, max_mass, max_denom):
        self.rng = rng
        self.sizes = [(n, m) for n in sides for m in sides]
        self.max_mass = max_mass
        self.max_denom = max_denom

    def block(self):
        sizes = list(self.sizes)
        self.rng.shuffle(sizes)
        return [ArraysOp(random_rows(self.rng, n, m, self.max_mass, self.max_denom))
                for n, m in sizes]


class LR:
    """Types of random standard pairs, so every coefficient is at least 1.

    A pair of size n and mass |nu| starts as |nu| unit masses dropped on an
    n x 2n grid.  A block holds one type per stratum (n, |nu|).  Types are
    distinct within a run, so no count can come from the coefficient cache."""

    STRATA = [(4, 14), (4, 16), (4, 18), (5, 10), (5, 12), (5, 14)]

    def __init__(self, rng):
        self.rng = rng
        self.seen = set()

    def _type(self, n, size):
        while True:
            a, b = tight_blocks(split(scatter(self.rng, 2 * n, n, size), n, n))
            nu = row_sums(concat(a, b))
            lam = row_sums(condense_down(a))
            mu = row_sums(condense_down(b))
            key = (trim(lam), trim(mu), trim(nu))
            if key not in self.seen:
                self.seen.add(key)
                return lam, mu, nu

    def block(self):
        strata = list(self.STRATA)
        self.rng.shuffle(strata)
        return [LROp(*self._type(n, size)) for n, size in strata]


class Hives:
    """Random couples of standard pairs, one per n in 3..10 in each block."""

    def __init__(self, rng):
        self.rng = rng

    def block(self):
        sizes = list(range(3, 11))
        self.rng.shuffle(sizes)
        return [HivesOp(*tight_blocks([random_rows(self.rng, n, n, 3) for _ in range(3)]))
                for n in sizes]


WORKLOADS = {
    "arrays-int": lambda rng: Arrays(rng, (8, 16, 24, 32, 40), 9, 1),
    "arrays-rational": lambda rng: Arrays(rng, (4, 8, 12, 16, 20), 9, 4),
    "lr": LR,
    "hives": Hives,
}
