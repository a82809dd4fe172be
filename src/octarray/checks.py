"""Verification suites.

Each randomized suite draws reproducible random instances from a seed,
checks one of the package's global identities, and returns a CheckReport.
The two count suites run over every two-row type up to a size: there
verify_commutativity and verify_associativity materialise both sets of
standard pairs (or couples) of a type, from lr's enumeration, and check
that the commuter or the associator is a bijection between them.  The CLI
``verify`` command and the acceptance tests both run these.
"""

import random
from fractions import Fraction
from itertools import product

from .arrays import (
    Array,
    _tight_rows,
    col_sums,
    concat,
    diag,
    row_sums,
    split,
    transpose,
)
from .bijections import (
    associate,
    associate_functional,
    associate_inverse,
    com_prime,
    commute,
    commute_sp,
    rho2_prime,
    tetra_of_couple,
    to_antistandard,
)
from .condense import condense_down, condense_left, condense_pair
from .hives import (
    AntiStandardPair,
    StandardPair,
    TriangleFunction,
    is_discrete_concave,
    pair_to_hive,
)
from .lr import enumerate_standard_pairs, lr_coefficient
from .octahedron import (
    TETRA_FRAME,
    is_polarized_dc,
    rsk,
    rsk_inverse,
    tetra_shadow_wall,
    tetra_slope_wall,
)
from .scalars import pad_partitions, trim
from .values import Value


class CheckReport(Value, mutable=True):
    _fields = ("name", "cases", "failures")

    def __init__(self, name: str, cases: int, failures: list = None):
        super().__init__(name, cases, [] if failures is None else failures)

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        state = "ok" if self.passed else f"{len(self.failures)} failure(s)"
        out = f"{self.name}: {self.cases} case(s), {state}"
        for f in self.failures[:10]:
            out += f"\n  - {f}"
        return out


# -- random instance builders --------------------------------------------------


def random_mass(rng, max_mass, max_denom):
    """A mass k / q with q <= max_denom and k / q <= max_mass."""
    if max_denom <= 1:
        return rng.randint(0, max_mass)
    q = rng.randint(1, max_denom)
    return Fraction(rng.randint(0, max_mass * q), q)


def random_array(rng, n, m, max_mass=6, max_denom=1) -> Array:
    return Array([[random_mass(rng, max_mass, max_denom) for _ in range(n)]
                  for _ in range(m)])


def random_arrays(rng, cases, max_n, max_m, max_mass, max_denom):
    """(k, a) for k < cases: a random array of 1..max_n columns and 1..max_m
    rows, drawn from rng only when the caller asks for the next case."""
    for k in range(cases):
        yield k, random_array(rng, rng.randint(1, max_n), rng.randint(1, max_m),
                              max_mass, max_denom)


def random_standard_pair(rng, n, max_mass=3, max_denom=1) -> StandardPair:
    b = condense_left(random_array(rng, n, n, max_mass, max_denom))
    c = condense_left(random_array(rng, n, n, max_mass, max_denom))
    x, y = split(condense_down(concat(b, c)), n)
    return StandardPair(x, y)


def random_antistandard_pair(rng, n, max_mass=3, max_denom=1) -> AntiStandardPair:
    return to_antistandard(random_standard_pair(rng, n, max_mass, max_denom))


def random_couple(rng, n, max_mass=3, max_denom=1):
    """A compatible couple of standard pairs (shared intermediate shape)."""
    parts = [condense_left(random_array(rng, n, n, max_mass, max_denom))
             for _ in range(3)]
    full = condense_down(concat(concat(parts[0], parts[1]), parts[2]))
    a, rest = split(full, n)
    b, c = split(rest, n)
    p1 = StandardPair(a, b)
    sigma = row_sums(p1.concat())
    p2 = StandardPair(diag(sigma), c)
    return p1, p2


def random_hive(rng, n, max_mass=3, max_denom=1) -> TriangleFunction:
    return pair_to_hive(random_standard_pair(rng, n, max_mass, max_denom))


# -- suites ---------------------------------------------------------------------


def check_theorem2(cases=300, seed=0, max_n=5, max_m=5, max_mass=6, max_denom=4):
    """One propagation yields both condensations at once.  condense_down and
    condense_left read the same fill as rsk, so the condensations compared
    here come from the pair sweeps of condense_down_ascending."""
    rng = random.Random(seed)
    rep = CheckReport("thm2 (propagation = both condensations)", cases)
    for k, a in random_arrays(rng, cases, max_n, max_m, max_mass, max_denom):
        d, l = rsk(a)
        if d != condense_down_ascending(a):
            rep.failures.append(f"case {k}: ceiling != down-condensation of {a}")
        if l != transpose(condense_down_ascending(transpose(a))):
            rep.failures.append(f"case {k}: wall != left-condensation of {a}")
    return rep


def check_rsk_bijection(cases=300, inv_cases=None, seed=0, max_n=5, max_m=5,
                        max_mass=6, max_denom=4):
    """The two condensations determine the array, both ways round: cases
    round trips from an array and inv_cases (cases // 3 by default) from
    its two condensations."""
    if inv_cases is None:
        inv_cases = cases // 3
    rng = random.Random(seed)
    rep = CheckReport("rsk bijection (round trips)", cases + inv_cases)
    for k, a in random_arrays(rng, cases, max_n, max_m, max_mass, max_denom):
        d, l = rsk(a)
        if rsk_inverse(d, l) != a:
            rep.failures.append(f"case {k}: inverse(rsk) != id on {a}")
    for k, a in random_arrays(rng, inv_cases, max_n, max_m, max_mass, max_denom):
        d, l = rsk(a)
        d2, l2 = rsk(rsk_inverse(d, l))
        if (d2, l2) != (d, l):
            rep.failures.append(f"inv case {k}: rsk(inverse) != id on {(d, l)}")
    return rep


def condense_down_random(a: Array, rng) -> Array:
    """The shapes suite's random schedule: condense a violating row pair
    drawn by rng until none is left; on a's ints, as tightness and
    condensation commute with positive scaling."""
    rows = list(a.ints)
    m = len(rows)
    for _ in range(1000 * m * m + 1001):
        bad = [j for j in range(m - 1) if not _tight_rows(rows[j:j + 2])]
        if not bad:
            return Array._scaled(a.D, rows)
        j = rng.choice(bad)
        rows[j], rows[j + 1] = condense_pair(rows[j], rows[j + 1])
    raise AssertionError("randomized condensation schedule did not converge")


def condense_down_ascending(a: Array) -> Array:
    """The shapes suite's ascending schedule: sweep the row pairs bottom to
    top, m + 1 times at most, until the array is tight; on a's ints, as
    condensation commutes with positive scaling."""
    rows = list(a.ints)
    for _ in range(len(rows) + 1):
        for j in range(len(rows) - 1):
            rows[j], rows[j + 1] = condense_pair(rows[j], rows[j + 1])
        if _tight_rows(rows):
            break
    return Array._scaled(a.D, rows)


def check_shapes(cases=500, seed=0, max_n=5, max_m=5, max_mass=6, max_denom=3):
    """Down and left condensations sort the same shape, and the fixpoint does
    not depend on the order in which row pairs are condensed."""
    rng = random.Random(seed)
    rep = CheckReport("shapes (well-defined, schedule-independent)", cases)
    for k, a in random_arrays(rng, cases, max_n, max_m, max_mass, max_denom):
        d = condense_down(a)
        l = condense_left(a)
        rs, cs = trim(row_sums(d)), trim(col_sums(l))
        if rs != cs:
            rep.failures.append(f"case {k}: shapes differ for {a}: {rs} vs {cs}")
        if condense_down_ascending(a) != d:
            rep.failures.append(f"case {k}: ascending schedule disagrees on {a}")
        if condense_down_random(a, rng) != d:
            rep.failures.append(f"case {k}: random schedule disagrees on {a}")
    return rep


def check_involution(cases=200, seed=0, max_n=4, max_mass=3, max_denom=1):
    """Commutation is an involution swapping the first two type entries."""
    rng = random.Random(seed)
    rep = CheckReport("involution (commuter)", cases)
    for k in range(cases):
        p = random_antistandard_pair(rng, rng.randint(1, max_n), max_mass, max_denom)
        q = commute(p)
        lam, mu, nu = p.type()
        if q.type() != (mu, lam, nu):
            rep.failures.append(f"case {k}: type not swapped for {p}")
        if commute(q) != p:
            rep.failures.append(f"case {k}: not an involution on {p}")
    return rep


def check_theorem1(cases=100, seed=0, max_n=5, max_mass=3, max_denom=1):
    """Propagation from concave ground and front wall is polarized concave,
    and the two remaining walls are concave."""
    rng = random.Random(seed)
    rep = CheckReport("thm1 (tetrahedron propagation)", cases)
    for k in range(cases):
        n = rng.randint(1, max_n)
        f, g = (pair_to_hive(p) for p in random_couple(rng, n, max_mass, max_denom))
        T = tetra_of_couple(f.values, g.values, n)
        if not is_polarized_dc(T, TETRA_FRAME):
            rep.failures.append(f"case {k}: propagation not polarized concave")
        if not is_discrete_concave(tetra_shadow_wall(T)):
            rep.failures.append(f"case {k}: shadow wall not concave")
        if not is_discrete_concave(tetra_slope_wall(T)):
            rep.failures.append(f"case {k}: slope wall not concave")
    return rep


def check_theorem3(cases=50, seed=0, n=2, max_mass=3, max_denom=1):
    """The functional associator computes the hives of the rearranged pairs."""
    rng = random.Random(seed)
    rep = CheckReport("thm3 (functional associator)", cases)
    for k in range(cases):
        p1, p2 = random_couple(rng, n, max_mass, max_denom)
        o1, o2 = associate(p1, p2)
        got = associate_functional(pair_to_hive(p1), pair_to_hive(p2))
        want = (pair_to_hive(o1), pair_to_hive(o2))
        if got != want:
            rep.failures.append(f"case {k}: functional associator differs on "
                                f"{(p1, p2)}")
    return rep


def check_theorem4(cases=100, seed=0, max_n=3, max_mass=3, max_denom=1):
    """The two-dimensional route to the functional commuter agrees with the
    propagation route."""
    rng = random.Random(seed)
    rep = CheckReport("thm4 (functional commuter, 2d route)", cases)
    for k in range(cases):
        h = random_hive(rng, rng.randint(1, max_n), max_mass, max_denom)
        if rho2_prime(h) != com_prime(h):
            rep.failures.append(f"case {k}: routes differ on {h}")
    return rep


# -- bijections between sets of standard pairs --------------------------------


def _bijection_check(name, left, right, forward, backward, back_text) -> CheckReport:
    """Check that forward maps the list left injectively into the list right,
    that backward undoes it and that the two lists have one size; back_text
    names a failure of backward.  One case per element of left."""
    right_set = set(right)
    failures = []
    if len(left) != len(right):
        failures.append(f"sizes differ: {len(left)} left, {len(right)} right")
    seen = set()
    for x in left:
        image = forward(x)
        if image not in right_set:
            failures.append(f"image of {x} not in target set")
        if image in seen:
            failures.append(f"collision at {image}")
        seen.add(image)
        if backward(image) != x:
            failures.append(f"{back_text} at {x}")
    return CheckReport(name, len(left), failures)


def verify_commutativity(lam, mu, nu) -> CheckReport:
    """Materialise both standard-pair sets and check that commutation is a
    type-swapping involution between them."""
    lam, mu, nu = pad_partitions(lam, mu, nu)
    fwd = enumerate_standard_pairs(lam, mu, nu)
    bwd = enumerate_standard_pairs(mu, lam, nu)
    return _bijection_check("commutativity", fwd, bwd, commute_sp, commute_sp,
                            "not an involution")


def _partitions(total, parts, maxpart):
    """The partitions of total into at most parts parts, each at most
    maxpart, padded with zeros to parts parts; largest first."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(min(total, maxpart), -1, -1):
        if first * parts < total:
            break
        for rest in _partitions(total - first, parts - 1, first):
            yield (first,) + rest


def verify_associativity(lam, mu, nu, pi, bound) -> CheckReport:
    """Materialise both couple sets (the intermediate shape runs over all
    partitions up to the given largest part) and check the rearrangement is
    a bijection."""
    lam, mu, nu, pi = pad_partitions(lam, mu, nu, pi)
    n = len(pi)
    left = []
    for sigma in _partitions(sum(lam) + sum(mu), n, bound):
        for p1 in enumerate_standard_pairs(lam, mu, sigma):
            for p2 in enumerate_standard_pairs(sigma, nu, pi):
                left.append((p1, p2))
    right = []
    for tau in _partitions(sum(mu) + sum(nu), n, bound):
        for q1 in enumerate_standard_pairs(mu, nu, tau):
            for q2 in enumerate_standard_pairs(lam, tau, pi):
                right.append((q1, q2))
    return _bijection_check("associativity", left, right,
                            lambda couple: associate(*couple),
                            lambda image: associate_inverse(*image),
                            "inverse fails")


def _two_row_types(*sizes):
    """Every tuple of two-row partitions of the given sizes."""
    return product(*(_partitions(t, 2, t) for t in sizes))


def check_commut_count(maxtotal=4):
    """Exhaustive two-row types: commutation is a bijection of pair sets and
    the coefficient is symmetric in the first two arguments."""
    rep = CheckReport("commut-count (exhaustive, two rows)", 0)
    for total in range(maxtotal + 1):
        for a in range(total + 1):
            for nu, lam, mu in _two_row_types(total, a, total - a):
                rep.cases += 1
                r = verify_commutativity(lam, mu, nu)
                if not r.passed:
                    rep.failures.append(f"not bijective at {(lam, mu, nu)}")
                c = lr_coefficient(lam, mu, nu)
                if c != lr_coefficient(mu, lam, nu) or c != r.cases:
                    rep.failures.append(f"counts differ at {(lam, mu, nu)}")
    return rep


def check_assoc_count(maxtotal=4):
    """Exhaustive two-row types: both parenthesisations produce couple sets
    of equal size, matched by the rearrangement."""
    rep = CheckReport("assoc-count (exhaustive, two rows)", 0)
    for total in range(maxtotal + 1):
        for a in range(total + 1):
            for b in range(total - a + 1):
                for pi, lam, mu, nu in _two_row_types(total, a, b, total - a - b):
                    rep.cases += 1
                    r = verify_associativity(lam, mu, nu, pi, bound=total)
                    if not r.passed:
                        rep.failures.append(
                            f"not bijective at {(lam, mu, nu, pi)}"
                        )
    return rep


SUITES = {
    "thm1": check_theorem1,
    "thm2": check_theorem2,
    "thm3": check_theorem3,
    "thm4": check_theorem4,
    "involution": check_involution,
    "shapes": check_shapes,
    "rsk-bijection": check_rsk_bijection,
    "assoc-count": check_assoc_count,
    "commut-count": check_commut_count,
}
