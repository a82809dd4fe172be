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
    ("or_step takes the min", "octahedron.py",
     "return (q if q > p else p) - f0", "return (q if q < p else p) - f0",
     "test_octahedron.py"),
    ("condense_pair keeps the running min", "condense.py",
     "        if beta > best:", "        if beta < best:", "test_condense.py"),
    ("insertion schedule skips the bottom pair", "condense.py",
     "for j in range(k - 1, -1, -1):", "for j in range(k - 1, 0, -1):",
     "test_condense.py"),
    ("the row scan tolerates one unit", "arrays.py",
     "            if acc_low < acc_high:", "            if acc_low < acc_high - 1:",
     "test_arrays.py"),
    ("is_r_tight skips the central reversal", "arrays.py",
     "return _tight_rows(zip(*(row[::-1] for row in a.rows[::-1])))",
     "return _tight_rows(zip(*a.rows))", "test_arrays.py"),
    ("rhombi reverses inequality (i)", "hives.py",
     'if (f0 + f3 < f1 + f2) if kind == "i"', 'if (f0 + f3 > f1 + f2) if kind == "i"',
     "test_hives.py"),
    ("hive search bound loosened by one", "lr.py",
     "            tops[k] = top\n", "            tops[k] = top + 1\n", "test_lr.py"),
    ("pair search caps a cell below its column mass", "lr.py",
     "ok = x <= row_left and x <= col_left[i]", "ok = x <= row_left and x < col_left[i]",
     "test_lr.py"),
    ("_semistandard allows equal letters in a column", "bijections.py",
     "grid[c, j + 1] <= x", "grid[c, j + 1] < x", "test_bijections.py"),
    ("_nuop_offsets does not reverse nu", "bijections.py",
     "partial_sums(nu[::-1])", "partial_sums(nu)", "test_bijections.py"),
    ("tetrahedron edge check skips x = 0", "octahedron.py",
     "        if normalize(frontwall(x, 0)) != F[x, 0, 0]:",
     "        if x and normalize(frontwall(x, 0)) != F[x, 0, 0]:", "test_octahedron.py"),
    ("shared-edge check is one-sided", "octahedron.py",
     "if fd[j][n] != fl[m][min(j, n)]:", "if fd[j][n] < fl[m][min(j, n)]:",
     "test_octahedron.py"),
    ("associate_inverse builds its first pair from c", "bijections.py",
     "    p1 = StandardPair._built(out2.a, b)\n", "    p1 = StandardPair._built(out2.a, c)\n",
     "test_bijections.py"),
    ("tableau limit off by one", "bijections.py",
     "    if total > MAX_TABLEAU_LETTERS:", "    if total > MAX_TABLEAU_LETTERS + 1:",
     "test_cli.py"),
    ("is_polarized skips its comparison", "octahedron.py",
     "            if top != or_step(pts[p], fa, fa2, fb, fb2):",
     "            if False and top != or_step(pts[p], fa, fa2, fb, fb2):",
     "test_octahedron.py"),
    ("the scaled reader skips its sign check", "serialize.py",
     "    if min(map(min, rows)) < 0:", "    if False and min(map(min, rows)) < 0:",
     "test_cli.py"),
    ("the writer skips the gcd reduction", "scalars.py",
     "    g = gcd(v, D)", "    g = 1", "test_serialize.py"),
    ("rsk --inverse scales l by d's D", "cli.py",
     "_rescaled(l, D // Dl)", "_rescaled(l, D // Dd)", "test_cli.py"),
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
