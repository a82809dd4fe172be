"""Compare how the working tree and a parent commit read the same argvs.

The script exports REF's src/ with git archive into a temporary directory
(reftree.py).  It then runs REF's cli.main and the working tree's
cli.main, each in its own interpreter, on the same fixed-seed argvs, and
compares exit code, stdout and stderr argv by argv.  The argvs draw on the working tree's command
table (commands, choices, switches and int options), on values and junk,
on -h and --help and on words of 29 characters or more; each comes with a
small JSON text on stdin.  Every verify suite is replaced by a stub that
prints the keywords it was given, so a run takes seconds.

Two kinds of difference are counted and not failed:

* order: both exit 2 on a value below its option's least value, and they
  name different options.  Of two such values REF reported --n first; the
  working tree reports them in the table's order, --cases first.
* echo: the exit codes, stdout and error kinds agree, and the two error
  texts differ in one stretch only, which the working tree cut with "...".

The first other difference is printed, and the script exits 1.  Usage, from
the root of a checkout:

    python tools/argv_parity.py REF
"""

import io
import json
import os
import random
import re
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

from reftree import ROOT, outputs, reference

COUNT = 20_000
SEED = 0

VALUES = ["0", "1", "-1", "3", "01", "2,1", "1,2", "3,1,0", "1/2", "x", "1,2,3,4,5,6,7",
          "1,,2", ",", "-0", "-0,1", "2_0", "+2", "٢,1"]
JUNK = ["extra", "-x", "--nosuch", "--func", "--seed=3", "-iarray.json", "-hh", "--",
        "--input", "-i", "-", "missing.json"]
LONG = ["x" * 29, "9" * 41, "-" + "9" * 45, "1," + "9" * 45, "--" + "y" * 30,
        "9" * 5000, "z" * 3000]
HELP = ["-h", "--help"]


def inputs():
    """The stdin texts: an array, a pair, a triangle, the two couples and
    text that is not JSON."""
    from octarray import checks, pair_to_hive, serialize

    p1, p2 = checks.random_couple(random.Random(3), 3)
    f, g = (serialize.encode_triangle(pair_to_hive(p)) for p in (p1, p2))
    docs = [{"type": "array", "rows": [[2, 3, 1], [1, 1, 5], [1, 2, 2]]},
            serialize.encode_pair(p1), f, {"f": f, "g": g},
            {"first": serialize.encode_pair(p1), "second": serialize.encode_pair(p2)}]
    return [json.dumps(doc) for doc in docs] + ["not json"]


def cases(count: int) -> list:
    """count (argv, stdin) pairs drawn with a fixed seed."""
    from octarray.cli import build_parser

    table = build_parser()
    rng = random.Random(SEED)
    texts = inputs()
    commands = list(table)
    anywhere = sorted({w for c in table.values() for w in (*c.switches, *c.ints)}
                      | {w for c in table.values() for _, ch in c.positionals
                         for w in ch or ()})
    anywhere += commands + VALUES + JUNK
    out = []
    for _ in range(count):
        name = rng.choice(commands)
        command = table[name]
        own = [*command.switches, *command.ints, *VALUES]
        own += [w for _, choices in command.positionals for w in choices or ()]
        argv = [] if rng.random() < 0.05 else [name]
        if rng.random() < 0.7:  # the positionals first, most often valid
            argv += [rng.choice(choices or VALUES[:7])
                     for _, choices in command.positionals]
        if rng.random() < 0.1:
            argv[:0] = [rng.choice(["--input", "-i"]), rng.choice(["-", "missing.json"])]
        for _ in range(rng.randint(0, 4)):
            r = rng.random()
            pool = own if r < 0.7 else anywhere if r < 0.9 else LONG if r < 0.98 else HELP
            argv.append(rng.choice(pool))
            if argv[-1] in command.ints and rng.random() < 0.8:  # most often a value
                argv.append(rng.choice(VALUES + LONG[1:3]))
        out.append((argv, rng.choice(texts)))
    return out


class StubSuite:
    """A verify suite that takes the keywords the real one declares (cli
    reads them from __code__) and reports them."""

    def __init__(self, name, suite):
        self.name, self.__code__ = name, suite.__code__

    def __call__(self, **kwargs):
        text = f"stub {self.name}: {sorted(kwargs.items())}"
        return SimpleNamespace(summary=lambda: text, passed=True)


def run(src: str, path: str) -> None:
    """Run src's cli.main on every case of the file at path, writing
    [exit code, stdout, stderr] for each as one JSON list."""
    sys.path.insert(0, src)
    from octarray import checks, cli

    for name, suite in list(checks.SUITES.items()):
        checks.SUITES[name] = StubSuite(name, suite)
    streams = sys.stdin, sys.stdout, sys.stderr
    results = []
    for argv, text in json.loads(Path(path).read_text()):
        sys.stdin = io.StringIO(text)
        sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a result to compare too
            code = f"raised {type(exc).__name__}: {exc}"
        results.append([code, sys.stdout.getvalue(), sys.stderr.getvalue()])
    sys.stdin, sys.stdout, sys.stderr = streams
    json.dump(results, sys.stdout)


LEAST = re.compile(r"(--[a-z-]+) must be at least \d+, got .*")


def _error(result):
    """The error object a result wrote to stderr, or None."""
    try:
        return json.loads(result[2])
    except ValueError:
        return None


def kind(ref, new):
    """"same", "order" or "echo" (module docstring), or None."""
    if ref == new:
        return "same"
    old, doc = _error(ref), _error(new)
    if ref[:2] != new[:2] or not doc or not old or old["error"] != doc["error"]:
        return None
    a, b = old["detail"], doc["detail"]
    flags = [m and m.group(1) for m in map(LEAST.fullmatch, (a, b))]
    if ref[0] == 2 and all(flags) and flags[0] != flags[1]:
        return "order"
    start = len(os.path.commonprefix([a, b]))
    end = len(os.path.commonprefix([a[start:][::-1], b[start:][::-1]]))
    return "echo" if "..." in b[start:len(b) - end] else None


def main(argv) -> int:
    if argv[:1] == ["--run"]:
        run(*argv[1:3])
        return 0
    if not argv or argv[0].startswith("-"):
        raise SystemExit(__doc__)
    ref = argv[0]
    sys.path.insert(0, str(ROOT / "src"))
    with reference(ref) as tmp:
        drawn = cases(COUNT)
        path = tmp / "cases.json"
        path.write_text(json.dumps(drawn))
        results = outputs(__file__, tmp, path)
    counts = Counter()
    for (words, _), ref_result, new_result in zip(drawn, *results):
        label = kind(ref_result, new_result)
        if label is None:
            print(f"argv {words!r}\n  {ref}: {ref_result!r}\n"
                  f"  working tree: {new_result!r}")
            return 1
        counts[label] += 1
    print(f"{len(drawn)} argvs:", ", ".join(f"{n} {k}" for k, n in sorted(counts.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
