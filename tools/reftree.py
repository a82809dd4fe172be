"""Run one script's battery under a parent commit's src/ and under the
working tree's, for the sameness checks argv_parity.py and parity.py.

reference(ref) exports REF's src/ with git archive into a temporary
directory; outputs(script, tmp, path) then runs `python script --run SRC
path` there once with REF's src/ and once with the working tree's, each in
its own interpreter, and returns the two parsed JSON outputs, REF's first.
"""

import contextlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@contextlib.contextmanager
def reference(ref: str):
    """A temporary directory that holds REF's src/ under ref/."""
    with tempfile.TemporaryDirectory(prefix="octarray-parity-") as tmp:
        tmp = Path(tmp)
        archive = tmp / "ref.tar"
        subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", "-o",
                        str(archive), ref, "src"], check=True)
        (tmp / "ref").mkdir()
        subprocess.run(["tar", "-xf", str(archive), "-C", str(tmp / "ref")], check=True)
        yield tmp


def outputs(script: str, tmp: Path, path: Path) -> list:
    """The JSON that `script --run SRC path` prints, under REF's src/ and
    then under the working tree's."""
    results = []
    for src in (tmp / "ref" / "src", ROOT / "src"):
        proc = subprocess.run([sys.executable, script, "--run", str(src), str(path)],
                              cwd=tmp, capture_output=True, text=True, check=True)
        results.append(json.loads(proc.stdout))
    return results
