"""Check that every benchmark run ends in a result line of numbers.

For each workload of BENCHMARK.json, untraced and traced (--trace 0 and 1),
the script runs bench/run.py for SECONDS and reads the last line of
its stdout.  That line must be strict JSON (NaN and Infinity are refused),
the run must report correct, and every metric value must be a number: a
traced metric whose wrapped functions are all gone reads null.

Usage, from the root of a checkout (exit code 1 if a line fails):

    python tools/result_lines.py
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SECONDS = 2  # length of each run


def _refuse(constant):
    raise ValueError(f"not strict JSON: {constant}")


def faults(workload: str, trace: int) -> list:
    """What is wrong with the result line of one run, or []."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
            "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode or not proc.stdout.strip():
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    try:
        result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_refuse)
    except ValueError as exc:
        return [f"last line: {exc}"]
    out = [] if result.get("correct") is True else ["not correct"]
    return out + [f"{name} = {m['value']!r}" for name, m in result["metrics"].items()
                  if type(m["value"]) not in (int, float)]


def main() -> int:
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())
                 ["workloads"]]
    failed = 0
    for workload in workloads:
        for trace in (0, 1):
            found = faults(workload, trace)
            failed += bool(found)
            print(f"{workload} --trace {trace}: {'; '.join(found) or 'ok'}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
