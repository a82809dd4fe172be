"""The benchmark's tracer finds every function it wraps.

bench/tracing.py wraps package functions by module and name, and reports a
bucket or counter none of whose names is bound as absent: its metric reads
null and the benchmark's result line is no longer all numbers.  So renaming
or removing a wrapped name (cli.build_parser, cli.main, lr's imports kept
for the tracer, ...) must fail here, in tier 1."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_bucket_and_counter_of_the_tracer_has_a_target():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    labels = [target[-1] for target in tracing.TIMED_TARGETS]
    labels += [target[-1] for target in tracing.COUNTED_TARGETS]
    labels += [target[2] for target in tracing.RESULT_TARGETS]
    missing = sorted(set(labels) - tracer.present)
    assert not missing, f"traced names no longer bound: {missing}"


def test_installing_the_tracer_leaves_the_cli_working_and_uninstall_restores_it(
        capsys):
    from octarray import cli

    tracer = load_tracing().Tracer()
    main, build_parser = cli.main, cli.build_parser
    tracer.install(0)
    try:
        assert cli.build_parser is not build_parser
        assert cli.main(["lr", "2,1", "1", "2,2"]) == 0
    finally:
        tracer.uninstall()
    assert (cli.main, cli.build_parser) == (main, build_parser)
    assert capsys.readouterr().out == '{\n  "coefficient": 1\n}\n'
    assert tracer.counts["cli.calls"] == 1
    assert tracer.self_time["cli.build_parser"] > 0
