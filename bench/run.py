"""Benchmark of the octarray command line, driven in-process.

Usage (from the root of a checkout):

    python3 bench/run.py --workload arrays-int --seed 1 --seconds 25 --trace 0

One closed-loop client calls ``octarray.cli.main(argv)`` with JSON text on
stdin, one operation (a few CLI calls) at a time, until ``--seconds`` have
passed at the end of a block of operations.  Outputs are checked outside
the timed region.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the line before it describes the
run (Python version, CPU count, sample counts).  With ``--trace 1`` every
other operation runs under the tracer and the metrics are the per-layer
ones; see README.md in this directory.
"""

import argparse
import functools
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import Tracer, metric
from workloads import WORKLOADS, condense_down

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_LAUNCHES = 7


class OpFailed(Exception):
    pass


def cli_call(argv, text):
    """Run one CLI call with text on stdin; return stdout, or raise OpFailed
    on a non-zero exit code or an exception escaping main."""
    from octarray import cli

    saved = sys.stdin, sys.stdout, sys.stderr
    out, err = io.StringIO(), io.StringIO()
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(text), out, err
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code
    except Exception as exc:  # an escaped exception is a failed operation
        raise OpFailed(f"{' '.join(argv)}: {type(exc).__name__}: {exc}") from exc
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    if code != 0:
        raise OpFailed(f"{' '.join(argv)}: exit {code}: {err.getvalue().strip()[:300]}")
    return out.getvalue()


def run_op(op, tamper=None):
    """Time one operation and check it.  Returns (seconds, error or None)."""
    start = time.perf_counter()
    try:
        outputs = op.run(cli_call)
    except OpFailed as exc:
        return time.perf_counter() - start, str(exc)
    elapsed = time.perf_counter() - start
    if tamper is not None:
        outputs = tamper(outputs)
    try:
        return elapsed, op.check(outputs)
    except Exception as exc:  # unparsable or malformed output
        return elapsed, f"output not as expected: {type(exc).__name__}: {exc}"


# A fixed piece of pure-Python work that shares no code with the program.
# Run after every operation, it tracks the speed of the machine, which swings
# by up to half on a shared host; every operation time is scaled by
# CALIBRATION_S / (the median kernel time of the five nearest operations).
CALIBRATION_S = 0.0012
CALIBRATION_ROWS = [[(7 * i + 3 * j) % 10 for i in range(16)] for j in range(16)]


def calibration_kernel():
    """Seconds taken by a reference condensation and a prism-shaped dict fill."""
    start = time.perf_counter()
    condense_down(CALIBRATION_ROWS)
    grid = {}
    for z in range(16):
        for y in range(z + 1):
            for x in range(17):
                grid[(x, y, z)] = max(x + y, z) - y
    return time.perf_counter() - start


class Loop:
    """Runs blocks of operations until the time is up, collecting latencies
    and failures; with a tracer, every other operation is traced."""

    def __init__(self, workload, seconds, tracer=None, tamper=None):
        self.workload = workload
        self.seconds = seconds
        self.tracer = tracer
        self.tamper = tamper  # tamper(index, outputs) -> outputs, for self-tests
        self.records = []  # (traced, seconds, calibration kernel seconds)
        self.errors = []
        self.attempted = 0

    def run(self):
        """Run whole blocks, at least one, until the time is up."""
        start = time.perf_counter()
        while True:
            for op in self.workload.block():
                self.step(op)
            if time.perf_counter() - start >= self.seconds:
                break
        self.wall = time.perf_counter() - start

    def step(self, op):
        index = self.attempted
        self.attempted += 1
        traced = self.tracer is not None and index % 2 == 1
        tamper = self.tamper and functools.partial(self.tamper, index)
        if traced:
            self.tracer.install(index)
        try:
            elapsed, error = run_op(op, tamper)
        finally:
            if traced:
                self.tracer.uninstall()
        self.records.append((traced, elapsed, calibration_kernel()))
        if error is not None:
            self.errors.append(f"op {index}: {error}")

    def latencies(self, traced, calibrated=True):
        cal = [c for _, _, c in self.records]
        out = []
        for i, (was_traced, elapsed, _) in enumerate(self.records):
            if was_traced == traced:
                scale = CALIBRATION_S / statistics.median(cal[max(i - 2, 0):i + 3])
                out.append(elapsed * scale if calibrated else elapsed)
        return out


def end_to_end(loop, setup_s):
    lat = loop.latencies(traced=False)
    ok = len(lat) - len(loop.errors)
    return {
        "ops_per_s": metric(ok / sum(lat), "1/s"),
        "op_p50_ms": metric(1000 * statistics.median(lat), "ms"),
        "op_p90_ms": metric(1000 * statistics.quantiles(lat, n=10)[8], "ms"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(loop):
    traced = loop.latencies(traced=True, calibrated=False)
    out = loop.tracer.metrics(len(traced), sum(traced))
    out["trace.overhead_ratio"] = metric(
        statistics.fmean(loop.latencies(traced=True))
        / statistics.fmean(loop.latencies(traced=False)), "ratio")
    out["trace.ops"] = metric(len(traced), "count")
    out["error_rate"] = metric(len(loop.errors) / loop.attempted, "ratio")
    return out


SETUP_CODE = """
import sys, time
start = time.perf_counter()
import octarray.cli
elapsed = time.perf_counter() - start
sys.path.insert(0, {bench!r})
from run import calibration_kernel
print(elapsed, min(calibration_kernel() for _ in range(3)))
"""


def measure_setup():
    """Median time for a fresh interpreter to import octarray.cli, each
    launch scaled by the calibration kernel timed in the same process."""
    code = SETUP_CODE.format(bench=str(BENCH))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # import as an installed package does
    samples = []
    for launch in range(SETUP_LAUNCHES + 1):
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        elapsed, cal = map(float, done.stdout.split())
        if launch:  # the first launch also writes the bytecode cache
            samples.append(elapsed * CALIBRATION_S / cal)
    return statistics.median(samples)


def write_spans(tracer, workload, seed):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-{seed}.jsonl"
    with path.open("w") as fh:
        fh.write("# span id, parent id, operation, bucket, start s, end s\n")
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    return path


def load_program():
    """Put the checkout's sources first on the path and import the CLI, so
    that no operation pays for the import."""
    if not (SRC / "octarray" / "cli.py").is_file():
        sys.exit(f"octarray sources not found under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import octarray.cli  # noqa: F401


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    setup_s = None if args.trace else measure_setup()
    tracer = Tracer() if args.trace else None
    loop = Loop(WORKLOADS[args.workload](random.Random(args.seed)), args.seconds, tracer)
    loop.run()

    for error in loop.errors[:10]:
        print(error, file=sys.stderr)
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "ops": loop.attempted, "wall_s": loop.wall,
        "samples": len(loop.latencies(traced=False)),
        "traced_samples": len(loop.latencies(traced=True)),
        "calibration_s": statistics.median(c for _, _, c in loop.records),
        "raw_op_s": sum(loop.latencies(traced=False, calibrated=False)),
    }
    if tracer is not None:
        info["spans_file"] = str(write_spans(tracer, args.workload, args.seed)
                                 .relative_to(ROOT))
    print(json.dumps({"info": info}))
    metrics = per_layer(loop) if tracer is not None else end_to_end(loop, setup_s)
    print(json.dumps({
        "correct": not loop.errors,
        "attempted": loop.attempted,
        "failed": len(loop.errors),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
