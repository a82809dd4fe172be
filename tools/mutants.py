"""The mutant list: small faults in the kernels that the tests must catch.

Each mutant replaces one piece of text in one module of the package.  For
each, the script copies src/, tests/ and pyproject.toml to a temporary
directory, applies the mutant there, and runs the test file named for it
with -x.  Only if that file passes does it run all of tier 1.  A mutant is
killed when some test fails; every run has a timeout of TIMEOUT seconds,
and a mutant that times out counts as a survivor.  The working tree is
never modified.

Usage, from the root of a checkout (exit code 1 if any mutant survives):

    python tools/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIER1 = ["--continue-on-collection-errors"]
TIMEOUT = 600  # seconds for each pytest run

# (name, module, text, replacement, test file that should kill it)
MUTANTS = [
    ("or_row takes the min", "octahedron.py",
     "v = t[i] = (q if q > p else p) - s[i - 1]", "v = t[i] = (q if q < p else p) - s[i - 1]",
     "test_octahedron.py"),
    ("condense_pair keeps the running min", "condense.py",
     "        if beta > best:", "        if beta < best:", "test_condense.py"),
    ("the flip reads the ceiling where it should read the wall", "condense.py",
     "extended_differences(wall, m)", "extended_differences(top, m)", "test_condense.py"),
    ("condense_right drops its second reversal", "condense.py",
     "_reversed(_left(_reversed(a.ints)))", "_left(_reversed(a.ints))", "test_condense.py"),
    ("the face reader keeps every layer", "octahedron.py",
     "    for top in array_layers(rows):\n", "    for top in list(array_layers(rows)):\n",
     "test_condense.py"),
    ("the wall is read at x = 0", "octahedron.py",
     "def array_faces(rows, x: int = -1)", "def array_faces(rows, x: int = 0)",
     "test_condense.py"),
    ("the row scan tolerates one unit", "arrays.py",
     "            if acc_low < acc_high:", "            if acc_low < acc_high - 1:",
     "test_arrays.py"),
    ("is_r_tight skips the central reversal", "arrays.py",
     "return _tight_rows(zip(*_reversed(a.ints)))",
     "return _tight_rows(zip(*a.ints))", "test_arrays.py"),
    ("rhombi reverses inequality (i)", "hives.py",
     "if (f0 + f3 < f1 + f2) if outer", "if (f0 + f3 > f1 + f2) if outer",
     "test_hives.py"),
    ("hive search bound loosened by one", "lr.py",
     "c in highs[i]])\n", "c in highs[i]]) + 1\n", "test_lr.py"),
    ("a rhombus kind left out of the search bounds", "lr.py",
     "_rhombus_rules((1, 0), (0, 1))", '_rhombus_rules((1, 0), (0, 1), ("i", "ii"))',
     "test_lr.py"),
    ("the boundary-only rhombi are not checked", "lr.py",
     "in fixed):\n        return [], 0\n", "in fixed):\n        pass\n", "test_lr.py"),
    ("pair search caps a cell below its column mass", "lr.py",
     "ok = x <= row_left and x <= col_left[i]", "ok = x <= row_left and x < col_left[i]",
     "test_lr.py"),
    ("row-closing d-tightness check skipped", "lr.py",
     "_tight_rows((arows[j - 1] + rows[j - 1], arows[j] + rows[j]))", "True",
     "test_lr.py"),
    ("row-closing l-tightness check skipped", "lr.py",
     "for c in range(j))):", "for c in range(0))):", "test_lr.py"),
    ("skew tableau containment skips inner parts past the outer shape", "bijections.py",
     "any(inner[len(outer):]) or ", "", "test_validation.py"),
    ("_semistandard allows equal letters in a column", "bijections.py",
     "grid[c, j + 1] <= x", "grid[c, j + 1] < x", "test_bijections.py"),
    ("_nuop_offsets does not reverse nu", "bijections.py",
     "for row in reversed(f.ints)]", "for row in f.ints]", "test_bijections.py"),
    ("the forward fill starts two columns late", "octahedron.py",
     "min(y + 1, len(h)) if over_array", "min(y + 2, len(h)) if over_array",
     "test_octahedron.py"),
    ("the copied triangle is one column short", "octahedron.py",
     "here = [here[:] if y else", "here = [here[:y - 1] + [0] * (len(here) - y + 1) if y else",
     "test_octahedron.py"),
    ("tetrahedron edge check skips x = 0", "octahedron.py",
     "        if normalize(frontwall(x, 0)) != L[x][x][0]:",
     "        if x and normalize(frontwall(x, 0)) != L[x][x][0]:", "test_octahedron.py"),
    ("the ground lands at x in its prism row", "octahedron.py",
     "L[x + y][x + y][y] = normalize(ground(x, y))",
     "L[x + y][x + y][x] = normalize(ground(x, y))", "test_octahedron.py"),
    ("shared-edge check is one-sided", "octahedron.py",
     "if fd[j][n] != fl[m][min(j, n)]:", "if fd[j][n] < fl[m][min(j, n)]:",
     "test_octahedron.py"),
    ("associate_inverse builds its first pair from c", "bijections.py",
     "    p1 = StandardPair._built(out2.a, b)\n", "    p1 = StandardPair._built(out2.a, c)\n",
     "test_bijections.py"),
    ("the associator's edge check skips the apex", "bijections.py",
     "if [row[-1] for row in F] != [row[0] for row in G]:",
     "if [row[-1] for row in F][1:] != [row[0] for row in G][1:]:",
     "test_bijections.py"),
    ("_couple reads the other block", "bijections.py",
     "trim(col_sums(p2.b if inverse else p2.a))", "trim(col_sums(p2.a if inverse else p2.b))",
     "test_bijections.py"),
    ("tableau limit off by one", "bijections.py",
     "    if total > MAX_TABLEAU_LETTERS:", "    if total > MAX_TABLEAU_LETTERS + 1:",
     "test_cli.py"),
    ("is_polarized skips its comparison", "octahedron.py",
     "            if top != or_step(pts[p], fa, fa2, fb, fb2):",
     "            if False and top != or_step(pts[p], fa, fa2, fb, fb2):",
     "test_octahedron.py"),
    ("the array check skips its sign check", "arrays.py",
     "        if min(map(min, rows)) < 0:", "        if False and min(map(min, rows)) < 0:",
     "test_row_gate.py"),
    ("the all-int gate admits bool", "scalars.py",
     "<= {int}:\n        return 1, rows", "<= {int, bool}:\n        return 1, rows",
     "test_scalars.py"),
    ("read_scalar reads a Fraction as an integer", "scalars.py",
     "        return x.numerator, x.denominator\n", "        return x.numerator, 1\n",
     "test_scalars.py"),
    ("check_partition accepts a non-integral part", "scalars.py",
     "    if not exact and any(type(x) is not int for x in seq):",
     "    if False and any(type(x) is not int for x in seq):", "test_scalars.py"),
    ("the exact-int path skips the order check", "scalars.py",
     "    if list(seq) != sorted(seq, reverse=True)",
     "    if not exact and list(seq) != sorted(seq, reverse=True)", "test_scalars.py"),
    ("a size mismatch between the two sides is not reported", "checks.py",
     "    if len(left) != len(right):", "    if False:", "test_checks.py"),
    ("the writer skips the gcd reduction", "scalars.py",
     "    g = gcd(v, D)", "    g = 1", "test_serialize.py"),
    ("rsk --inverse scales l by d's D", "octahedron.py",
     "    d, l = _over(d, D), _over(l, D)\n",
     "    d, l = _over(d, D), _over(l, D // d.D * l.D)\n", "test_cli.py"),
    ("the state skips its gcd reduction", "arrays.py",
     "        if g != 1:\n", "        if False:\n", "test_state.py"),
    ("pair_to_hive slices one column off", "hives.py",
     "[row[n:n + v + 1] for v, row in enumerate(f)]",
     "[row[n:n + v] for v, row in enumerate(f)]", "test_hives.py"),
    ("the shared view skips its divide-back by D", "arrays.py",
     "        return unscale_rows(self.ints, self.D)\n", "        return self.ints\n",
     "test_state.py"),
    ("increments returns the scaled ints", "hives.py",
     "HiveType(*unscale_rows([tuple(map(sub, s[1:], s)) for s in sides], h.D))",
     "HiveType(*[tuple(map(sub, s[1:], s)) for s in sides])", "test_hives.py"),
    ("type() reads an anti-standard first block unreversed", "hives.py",
     'HiveType(lam if self.side == "left" else lam[::-1],', "HiveType(lam,",
     "test_acceptance.py"),
    ("rsk reads the ceiling with the input checker", "octahedron.py",
     "    d = _differences(top)\n", "    d = _mixed_differences(top, a.D)\n",
     "test_octahedron.py"),
    ("rsk_inverse returns the transposed slope untransposed", "octahedron.py",
     "_mixed_differences(list(zip(*slope)) if flip else slope, D)",
     "_mixed_differences(slope, D)", "test_octahedron.py"),
    ("rsk fills the long side", "octahedron.py",
     "    flip = a.m > a.n\n", "    flip = a.m < a.n\n", "test_octahedron.py"),
    ("rsk_inverse writes the wall at column n", "octahedron.py",
     "[[v] + zeros for v in fl[z - 1][:z]]", "[zeros + [v] for v in fl[z - 1][:z]]",
     "test_octahedron.py"),
    ("rsk_inverse reads the slope unturned", "octahedron.py",
     "slope = [row[::-1] for row in reversed(turned)]", "slope = turned[::-1]",
     "test_octahedron.py"),
    ("rsk_inverse checks the shadow at column 0", "octahedron.py",
     "if any(row[n] for row in below):", "if any(row[0] for row in below):",
     "test_octahedron.py"),
    ("the backward fill keeps every layer", "octahedron.py",
     "        here = below\n", "        here = below\n        fl.append(below)\n",
     "test_condense.py"),
    ("the template cache is keyed without the indent", "cli.py",
     "@functools.lru_cache(maxsize=256)\ndef _template(shape, pad):\n",
     "def _template(shape, pad, _seen={}):\n"
     "    if shape not in _seen:\n"
     "        _seen[shape] = _built(shape, pad)\n"
     "    return _seen[shape]\n\n\n"
     "def _built(shape, pad):\n", "test_emit.py"),
    ("a string cell is written unencoded", "cli.py",
     "encode_basestring_ascii(v) if type(v) is str else v for v in values",
     "v for v in values", "test_emit.py"),
    ("the propagate template swaps y and z", "cli.py",
     'row % (x, y, z, "%s")', 'row % (x, z, y, "%s")', "test_emit.py"),
    ("the partition pattern admits a leading +", "cli.py",
     'r"(?:(?:-?[0-9]+)?,)*(?:-?[0-9]+)?"', 'r"(?:(?:[-+]?[0-9]+)?,)*(?:[-+]?[0-9]+)?"',
     "test_cli.py"),
    ("the argv reader skips the choice check", "cli.py",
     "if choices and word not in choices:", "if False:", "test_cli.py"),
    ("the argv reader does not demand the last positional", "cli.py",
     "    if wanted or cmd is None:\n", "    if len(wanted) > 1 or cmd is None:\n",
     "test_cli.py"),
    ("the argv reader keeps switches set in the call before", "cli.py",
     "values = {_dest(flag): False for flag in cmd.switches}",
     "values = _read_argv.__dict__.setdefault(name, {_dest(f): False for f in cmd.switches})",
     "test_cli.py"),
    ("the least check is off by one", "cli.py",
     "value is not None and value < least:", "value is not None and value < least - 1:",
     "test_cli.py"),
    ("the switch-pair check takes either switch", "cli.py",
     "if cmd.excludes and all(", "if cmd.excludes and any(", "test_cli.py"),
]


def pytest(tmp: Path, args, timeout: float) -> str:
    """Run pytest in the copy: "passed", "failed" or "timeout"."""
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"] + args
    env = dict(os.environ, PYTHONPATH=str(tmp / "src"))
    try:
        proc = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout"
    if proc.returncode not in (0, 1, 2):  # pytest's own error, not a test's
        raise SystemExit(f"pytest exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    return "passed" if proc.returncode == 0 else "failed"


def check(mutant, timeout: float) -> str:
    """Apply one mutant to a fresh copy and say what became of it."""
    name, module, text, replacement, test_file = mutant
    with tempfile.TemporaryDirectory(prefix="octarray-mutant-") as tmp:
        tmp = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tmp / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tmp)
        path = tmp / "src" / "octarray" / module
        source = path.read_text()
        if source.count(text) != 1:
            raise SystemExit(f"{name}: the text to mutate occurs "
                             f"{source.count(text)} times in {module}")
        path.write_text(source.replace(text, replacement))
        outcome = pytest(tmp, ["tests/" + test_file], timeout)
        if outcome == "failed":
            return f"killed by {test_file}"
        if outcome == "passed":
            outcome = pytest(tmp, TIER1, timeout)
            if outcome == "failed":
                return "killed by tier 1"
        return "survived" if outcome == "passed" else "timed out (a survivor)"


def main() -> int:
    survivors = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        outcome = check(mutant, TIMEOUT)
        survivors += not outcome.startswith("killed")
        print(f"{mutant[0]}: {outcome} ({time.perf_counter() - start:.1f} s)", flush=True)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
