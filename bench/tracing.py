"""Per-layer tracing for the benchmark, from outside the program.

The package's modules import each other's functions by name, so a call is
observed by rebinding the name in the module that makes it, for example
``octarray.condense.condense_pair`` for the calls from ``condense_down``.
``Tracer.install`` rebinds every target that exists and ``uninstall`` puts
the originals back, so untraced operations run the unmodified program.

Three kinds of wrapper:

* span: coarse calls.  Each call is recorded as (id, parent id, operation
  id, name, start, end), kept in memory and written out when the run ends.
* timed: hot calls whose time matters (tight checks, rhombus checks).  They
  are timed and counted like spans but not recorded one by one.
* counter: the hottest kernels (``or_step``, ``condense_pair``,
  ``normalize``).  Only counted; their time stays in the enclosing span.

A bucket's self time is the time its calls ran minus the time covered by
the wrapped calls they made.  A bucket none of whose targets exists any
more is reported as absent (None), not as zero work.
"""

import functools
import importlib
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter

SPAN, TIMED = "span", "timed"

CONDENSE = ("condense_down", "condense_left", "condense_right", "condense_up",
            "shape", "schutzenberger")

# (modules making the calls, function names, wrapper kind, bucket)
TIMED_TARGETS = [
    (["cli"], ["main"], SPAN, "cli.self"),
    (["cli"], ["build_parser"], SPAN, "cli.build_parser"),
    (["serialize"], ["decode_array", "decode_triangle", "decode_pair", "decode"],
     SPAN, "serialize.decode"),
    (["serialize"], ["encode_array", "encode_triangle", "encode_pair"],
     SPAN, "serialize.encode"),
    (["cli"], ["scalar_to_json"], TIMED, "serialize.encode"),
    (["arrays", "condense", "hives", "octahedron", "bijections", "lr"],
     ["is_d_tight"], TIMED, "arrays.tight_check"),
    (["condense", "cli", "bijections", "hives"], CONDENSE, SPAN, "condense.self"),
    (["cli"], ["rsk"], SPAN, "octahedron.rsk"),
    (["cli", "bijections"], ["rsk_inverse"], SPAN, "octahedron.rsk_inverse"),
    (["octahedron", "cli", "bijections"], ["prism_propagate"], SPAN,
     "octahedron.prism"),
    (["bijections"], ["tetra_propagate"], SPAN, "octahedron.tetra"),
    (["cli", "octahedron"], ["is_polarized", "is_polarized_dc"], SPAN,
     "octahedron.polarized"),
    (["hives"], ["rhombus_violations"], TIMED, "hives.rhombus"),
    (["cli", "bijections"], ["pair_to_hive", "hive_to_pair"], SPAN,
     "hives.pair_hive"),
    (["cli"], ["associate", "associate_inverse"], SPAN, "bijections.associate"),
    (["cli"], ["associate_functional"], SPAN, "bijections.associate_functional"),
    (["bijections"], ["com_prime"], SPAN, "bijections.com_prime"),
    (["lr"], ["enumerate_hives"], SPAN, "lr.hive_enum"),
    (["lr"], ["enumerate_standard_pairs"], SPAN, "lr.pair_enum"),
    (["cli"], ["lr_oracle"], SPAN, "lr.oracle"),
]

# (modules making the calls, function names, counter)
COUNTED_TARGETS = [
    (["cli"], ["main"], "cli.calls"),
    (["arrays", "condense", "hives", "octahedron", "bijections", "lr"],
     ["is_d_tight"], "arrays.tight_checks"),
    (["condense"], ["is_d_tight"], "condense.scans"),
    (["condense"], ["condense_pair"], "condense.pair_calls"),
    (["octahedron"], ["or_step"], "octahedron.or_steps"),
    (["hives"], ["rhombus_violations"], "hives.rhombus_calls"),
    (["scalars", "arrays", "hives", "octahedron"], ["normalize"],
     "scalars.normalize_calls"),
    (["lr"], ["is_discrete_concave"], "lr.hive_candidates"),
    (["lr"], ["is_l_tight"], "lr.pair_candidates"),
]

# counters fed from a wrapped function's result: (modules, names, counter, fn)
RESULT_TARGETS = [
    (["scalars", "arrays", "hives", "octahedron"], ["normalize"],
     "scalars.fraction_results", lambda r: isinstance(r, Fraction)),
    (["lr"], ["enumerate_hives"], "lr.hives_kept", len),
    (["lr"], ["enumerate_standard_pairs"], "lr.pairs_kept", len),
]

# ratio metrics: name -> (numerator counter, denominator counter)
RATIOS = {
    "scalars.fraction_share": ("scalars.fraction_results", "scalars.normalize_calls"),
    "lr.hive_yield": ("lr.hives_kept", "lr.hive_candidates"),
    "lr.pair_yield": ("lr.pairs_kept", "lr.pair_candidates"),
}


def metric(value, unit):
    return {"value": value, "unit": unit}


class Tracer:
    def __init__(self):
        self.counts = Counter()
        self.self_time = defaultdict(float)
        self.spans = []
        self.op = None
        self._stack = []   # per open call: [time covered by children, span id]
        self._next_id = 0
        self._patches = []  # (module, name, wrapper, original)
        self.present = set()  # buckets and counters with a target installed
        self._build()

    # -- wrappers ---------------------------------------------------------------

    def _timed(self, fn, bucket, record):
        stack, self_time, spans = self._stack, self.self_time, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][1] if stack else None
            frame = [0.0, span_id]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self_time[bucket] += end - start - frame[0]
                if stack:
                    stack[-1][0] += end - start
                if record:
                    spans.append((span_id, parent, self.op, bucket, start, end))

        return wrapper

    def _counted(self, fn, counter):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observed(self, fn, counter, measure):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[counter] += measure(result)
            return result

        return wrapper

    # -- installation -----------------------------------------------------------

    def _targets(self):
        """(module, name, label, wrap) for every target, innermost first:
        result observers, then counters, then timers."""
        for mods, names, counter, measure in RESULT_TARGETS:
            for mod in mods:
                for name in names:
                    yield mod, name, counter, lambda fn, c=counter, f=measure: \
                        self._observed(fn, c, f)
        for mods, names, counter in COUNTED_TARGETS:
            for mod in mods:
                for name in names:
                    yield mod, name, counter, lambda fn, c=counter: \
                        self._counted(fn, c)
        for mods, names, kind, bucket in TIMED_TARGETS:
            for mod in mods:
                for name in names:
                    yield mod, name, bucket, lambda fn, b=bucket, k=kind: \
                        self._timed(fn, b, k == SPAN)

    def _build(self):
        grouped = {}
        for mod, name, label, wrap in self._targets():
            grouped.setdefault((mod, name), []).append((label, wrap))
        for (mod, name), wraps in grouped.items():
            try:
                module = importlib.import_module(f"octarray.{mod}")
            except ImportError:
                continue
            original = getattr(module, name, None)
            if not callable(original):
                continue
            fn = original
            for label, wrap in wraps:
                fn = wrap(fn)
                self.present.add(label)
            self._patches.append((module, name, fn, original))

    def metrics(self, ops, op_time):
        """Per-layer metrics of ops traced operations that took op_time
        seconds: per bucket its self time per operation and its share of
        op_time, each counter per operation, and the ratios."""
        out = {}
        for bucket in dict.fromkeys(target[-1] for target in TIMED_TARGETS):
            present = bucket in self.present
            seconds = self.self_time[bucket]
            out[bucket + "_s"] = metric(seconds / ops if present else None, "s/op")
            out[bucket + "_share"] = metric(
                seconds / op_time if present else None, "ratio")
        for counter in dict.fromkeys(target[-1] for target in COUNTED_TARGETS):
            present = counter in self.present
            out[counter] = metric(self.counts[counter] / ops if present else None, "1/op")
        for name, (num, den) in RATIOS.items():
            value = None
            if num in self.present and den in self.present:
                value = self.counts[num] / self.counts[den] if self.counts[den] else 0.0
            out[name] = metric(value, "ratio")
        return out

    def install(self, op):
        self.op = op
        for module, name, wrapper, _ in self._patches:
            setattr(module, name, wrapper)

    def uninstall(self):
        for module, name, _, original in self._patches:
            setattr(module, name, original)
        self.op = None
