"""Self-test of the benchmark harness.

Runs one block of operations of every workload, traced and untraced, and
checks that every metric named in BENCHMARK.json is emitted, that no
operation fails on the program as it is, and that a deliberately corrupted
output is counted as a failure.  Run from the root of a checkout:

    python3 bench/selftest.py
"""

import json
import random
import unittest

import run
from tracing import Tracer
from workloads import WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bump_last_int(text):
    """Add one to the last integer in a JSON document."""
    doc = json.loads(text)
    path = []

    def walk(node, here):
        items = node.items() if isinstance(node, dict) else (
            enumerate(node) if isinstance(node, list) else ())
        for key, value in items:
            if isinstance(value, int) and not isinstance(value, bool):
                path[:] = here + [key]
            walk(value, here + [key])

    walk(doc, [])
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] += 1
    return json.dumps(doc)


def one_block(workload, tracer=None, tamper=None):
    loop = run.Loop(WORKLOADS[workload](random.Random(7)), 0, tracer, tamper)
    loop.run()
    return loop


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.load_program()
        cls.setup_s = run.measure_setup()

    def test_workloads_match_the_record(self):
        self.assertEqual(sorted(WORKLOADS), sorted(w["name"] for w in SPEC["workloads"]))

    def test_every_metric_is_emitted_and_nothing_fails(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                loop = one_block(workload)
                self.assertEqual(loop.errors, [])
                metrics = run.end_to_end(loop, self.setup_s)
                self.assertEqual(sorted(metrics), sorted(m["name"] for m in SPEC["end_to_end"]))
                self.assertTrue(all(m["value"] > 0 for m in metrics.values()))

                loop = one_block(workload, Tracer())
                self.assertEqual(loop.errors, [])
                metrics = run.per_layer(loop)
                self.assertEqual(sorted(metrics), sorted(m["name"] for m in SPEC["per_layer"]))
                self.assertTrue(all(m["value"] is not None for m in metrics.values()))
                self.assertEqual(metrics["error_rate"]["value"], 0)

    def test_layers_are_separated(self):
        lr = run.per_layer(one_block("lr", Tracer()))
        self.assertLess(lr["lr.hive_yield"]["value"], 0.2)
        self.assertEqual(lr["condense.pair_calls"]["value"], 0)
        arrays = run.per_layer(one_block("arrays-int", Tracer()))
        self.assertEqual(arrays["scalars.fraction_share"]["value"], 0)
        rational = run.per_layer(one_block("arrays-rational", Tracer()))
        self.assertGreater(rational["scalars.fraction_share"]["value"], 0)

    def test_a_corrupted_output_is_a_failure(self):
        def corrupt_first(index, outputs):
            if index == 0:
                outputs = outputs[:-1] + [bump_last_int(outputs[-1])]
            return outputs

        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                loop = one_block(workload, tamper=corrupt_first)
                self.assertEqual(len(loop.errors), 1)
                self.assertTrue(loop.errors[0].startswith("op 0:"))


if __name__ == "__main__":
    unittest.main()
