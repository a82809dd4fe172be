import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import octarray
from octarray import checks, pair_to_hive, serialize
from octarray.cli import MAX_JSON_DEPTH, MalformedInput, _partition_arg, main
from octarray.errors import ValidationError
from octarray.scalars import _quoted, parse_scalar

ARRAY = {"type": "array", "rows": [[2, 3, 1], [1, 1, 5], [1, 2, 2]]}


@pytest.fixture
def cli(capsys, monkeypatch):
    def run(argv, payload=None):
        if payload is not None:
            import io

            monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
        code = main(argv)
        out, err = capsys.readouterr()
        return code, out, err

    return run


def test_condense(cli):
    code, out, err = cli(["condense", "down"], ARRAY)
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"] == [[4, 3, 4], [0, 3, 3], [0, 0, 1]]
    assert doc["shape"] == [11, 6, 1]


def test_rsk_and_inverse(cli):
    code, out, _ = cli(["rsk"], ARRAY)
    assert code == 0
    doc = json.loads(out)
    code, out, _ = cli(["rsk", "--inverse"], doc)
    assert code == 0
    assert json.loads(out)["rows"] == ARRAY["rows"]


def test_propagate(cli):
    code, out, _ = cli(["propagate"], ARRAY)
    assert code == 0
    doc = json.loads(out)
    assert doc["polarized"] is True
    assert doc["top"][-1] == [0, 4, 10, 18]


def test_hive_round_trip(cli, f4):
    code, out, _ = cli(["hive", "--to-pair"], f4["triangle"])
    assert code == 0
    pair = json.loads(out)
    code, out, _ = cli(["hive", "--from-pair"], pair)
    assert code == 0
    assert json.loads(out)["rows"] == f4["triangle"]["rows"]


def test_hive_report(cli, f4):
    code, out, _ = cli(["hive"], f4["triangle"])
    assert code == 0
    doc = json.loads(out)
    assert doc["concave"] is True
    assert doc["increments"]["lam"] == [3, 2, 0]


def test_commute(cli, f3):
    code, out, _ = cli(["commute"], f3["pair"])
    assert code == 0
    assert json.loads(out)["a"]["rows"] == f3["expected"]["commute"]["a"]["rows"]


def test_commute_functional(cli, f4):
    code, out, _ = cli(["commute", "--functional"], f4["triangle"])
    assert code == 0
    assert json.loads(out)["rows"] == f4["expected"]["com_prime"]["rows"]



def _couple_inputs():
    p1, p2 = checks.random_couple(random.Random(3), 3)
    f, g = (serialize.encode_triangle(pair_to_hive(p)) for p in (p1, p2))
    return serialize.encode_pair(p1), {"f": f, "g": g}


@pytest.mark.parametrize("argv, which", [
    (["associate", "--functional", "--inverse"], 1),
    (["hive", "--from-pair", "--to-pair"], 0),
], ids=["associate", "hive"])
def test_conflicting_switches_exit_2_before_reading_input(cli, argv, which):
    # the input is valid for the first switch alone, which used to run it
    payload = _couple_inputs()[which]
    code, out, err = cli(argv, payload)
    assert (code, out) == (2, "")
    doc = json.loads(err)
    assert doc["error"] == "malformed input"
    assert doc["detail"] == f"{argv[1]} and {argv[2]} exclude each other"
    assert json.loads(sys.stdin.read()) == payload

def test_lr(cli):
    code, out, _ = cli(["lr", "2,1,0", "2,1,0", "3,2,1", "--oracle"])
    assert code == 0
    doc = json.loads(out)
    assert doc["coefficient"] == 2 == doc["oracle"]


ZEROS_31 = ",".join(["0"] * 31)


@pytest.mark.parametrize("argv", [["lr", "0", "1200", "1200", "--oracle"],
                                  ["lr", ZEROS_31, ZEROS_31, ZEROS_31]],
                         ids=["oracle-1200-boxes", "pairs-31-parts"])
def test_lr_searches_run_past_the_recursion_limit(cli, argv):
    # searches too deep for a recursive search under the interpreter's
    # default recursion limit of 1000
    code, out, _ = cli(argv)
    assert code == 0
    assert set(json.loads(out).values()) == {1}


def test_hive_search_runs_past_the_recursion_limit(cli):
    # the hive search keeps one stack entry for each of the (n - 1)(n - 2)/2
    # interior points, 1,176 at 50 parts, each bounded by the rhombi it closes
    zeros = ",".join(["0"] * 50)
    code, out, _ = cli(["lr", zeros, zeros, zeros])
    assert code == 0
    assert json.loads(out) == {"coefficient": 1}


def test_tableau(cli, f1, f1_array):
    code, out, _ = cli(["tableau"], f1["array"])
    assert code == 0
    rows = [[int(x) for x in line.split()] for line in out.splitlines()]
    assert rows == f1["expected"]["ssyt_rows"][::-1]


def test_tableau_pair(cli, f3):
    pair = dict(f3["pair"])
    pair = json.loads(json.dumps(pair))
    pair["kind"] = "antistandard"
    code, out, err = cli(["tableau"], pair)
    assert code == 1  # anti-standard pairs are rejected
    code, out, err = cli(["verify", "thm4", "--cases", "3"])
    assert code == 0


def test_malformed_input_exit_2(cli):
    code, out, err = cli(["condense", "down"], {"rows": "nope"})
    assert code == 2
    assert json.loads(err)["error"] == "malformed input"


@pytest.mark.parametrize("argv, payload", [
    (["condense", "down"], [1]),
    (["rsk"], [1]),
    (["rsk", "--inverse"], {"d": [1], "l": [2]}),
    (["hive", "--from-pair"], {"type": "pair", "kind": "standard", "a": [1], "b": [2]}),
    (["tableau"], [1]),
    (["tableau"], "x"),
    (["tableau"], {"type": [1]}),
    (["tableau"], {"type": "solid"}),
])
def test_non_object_input_exit_2(cli, argv, payload):
    code, out, err = cli(argv, payload)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "malformed input"


@pytest.mark.parametrize("payload", [[1], "x"])
def test_tableau_of_a_non_object_names_the_missing_type(cli, payload):
    code, out, err = cli(["tableau"], payload)
    assert json.loads(err) == {"error": "malformed input",
                               "detail": "bad input object: 'type'"}


def test_integer_literal_over_the_digit_limit_exit_2(capsys, monkeypatch):
    import io

    text = '{"type": "array", "rows": [[%s]]}' % ("7" * 5000)
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert main(["condense", "down"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err)["error"] == "malformed input"


@pytest.mark.parametrize("scalar", ["1e5000", "0.5", "1e3"])
def test_decimal_and_exponent_scalar_strings_exit_1(cli, scalar):
    for argv in (["condense", "down"], ["rsk"], ["propagate"]):
        code, out, err = cli(argv, {"type": "array", "rows": [[scalar, 1]]})
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "validation",
                                   "detail": f"bad scalar string {scalar!r}"}


def test_rational_output_past_the_digit_limit_exit_1(cli):
    limit = sys.get_int_max_str_digits()
    third = "8" * limit + "/3"  # the longest numerator JSON reads; twice it is longer
    for argv in (["condense", "down"], ["rsk"], ["propagate"]):
        code, out, err = cli(argv, {"type": "array", "rows": [[third], [third]]})
        assert (code, out) == (1, "")
        assert json.loads(err) == {
            "error": "validation",
            "detail": f"an output integer has more than {limit} digits"}


def test_rational_output_at_the_digit_limit_is_written(cli):
    limit = sys.get_int_max_str_digits()
    third = "8" * limit + "/3"  # in lowest terms: 8 * limit is not a multiple of 3
    array = {"type": "array", "rows": [[third], [0]]}
    code, out, err = cli(["condense", "down"], array)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert (doc["rows"], doc["shape"]) == ([[third], [0]], [third, 0])
    code, out, err = cli(["rsk"], array)
    assert (code, err) == (0, "")
    assert json.loads(out)["d"]["rows"] == json.loads(out)["l"]["rows"] == [[third], [0]]
    code, out, err = cli(["rsk", "--inverse"], {"d": array, "l": array})
    assert (code, err) == (0, "")
    assert json.loads(out)["rows"] == [[third], [0]]


def test_a_negative_mass_is_quoted_reduced_and_unscaled(cli):
    for rows, first in (([[1, "-2/4"], ["1/3", -1]], "-1/2"),
                        ([["1/3", 2], [0, "-4/2"]], "-2"),
                        ([[0, 1], [-3, "1/2"]], "-3")):
        array = {"type": "array", "n": 7, "rows": rows}  # the sign comes before n
        for argv, doc in ((["condense", "down"], array), (["rsk"], array),
                          (["rsk", "--inverse"], {"d": ARRAY, "l": array})):
            code, out, err = cli(argv, doc)
            assert (code, out) == (1, "")
            assert json.loads(err) == {"error": "validation",
                                       "detail": f"negative mass {first}"}


def test_rsk_inverse_takes_d_and_l_over_different_denominators(cli):
    d = {"type": "array", "rows": [["1/2", 1, "2/4"], [0, "1/2", "3/6"]]}
    l = {"type": "array", "rows": [["4/3", 0, 0], ["2/3", "3/3", 0]]}
    code, out, err = cli(["rsk", "--inverse"], {"d": d, "l": l})
    assert (code, err) == (0, "")
    assert json.loads(out)["rows"] == [["1/2", "1/2", "1/3"], [0, 1, "2/3"]]
    code, out, err = cli(["rsk", "--inverse"], {"d": l, "l": d})
    assert (code, out) == (1, "")


def test_array_commands_make_no_fraction(cli):
    """The array commands read, condense, propagate and write in scaled
    ints: no code of the fractions module runs, so no Fraction is made."""
    import fractions

    def fraction_calls(fn, *args):
        calls = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_filename == fractions.__file__:
                calls.append(frame.f_code.co_name)

        outer = sys.getprofile()
        sys.setprofile(profile)
        try:
            result = fn(*args)
        finally:
            sys.setprofile(outer)
        return calls, result

    assert fraction_calls(fractions.Fraction, 1, 2)[0]  # the counter sees one
    array = {"type": "array", "rows": [["1/2", 1, "2/3"], [0, "5/4", "6/4"]]}
    calls, (code, out, err) = fraction_calls(cli, ["rsk"], array)
    assert (calls, code, err) == ([], 0, "")
    both = json.loads(out)
    for argv, doc in [(["rsk", "--inverse"], both), (["propagate"], array)] + [
            (["condense", direction], array) for direction in ("down", "left", "right", "up")]:
        calls, (code, out, err) = fraction_calls(cli, argv, doc)
        assert (calls, code, err) == ([], 0, ""), argv
    assert json.loads(out)["rows"] != array["rows"]


def test_output_past_the_digit_limit_exit_1(cli):
    limit = sys.get_int_max_str_digits()
    big = 10 ** limit - 1  # the longest int JSON reads; twice it is one digit longer
    for argv in (["condense", "down"], ["rsk"], ["propagate"]):
        code, out, err = cli(argv, {"type": "array", "rows": [[big, big]]})
        assert (code, out) == (1, "")
        doc = json.loads(err)
        assert doc["error"] == "validation"
        assert f"more than {limit} digits" in doc["detail"]


TOO_DEEP = {"error": "malformed input",
            "detail": f"JSON input nests deeper than MAX_JSON_DEPTH = {MAX_JSON_DEPTH}"}


def _nested(depth: int) -> str:
    """An array object whose one mass is a list: the object, the rows and
    the row nest three levels, and the mass nests the rest, depth in all."""
    k = depth - 3
    return '{"type": "array", "rows": [[%s]]}' % ("[" * k + "]" * k)


def _stdin_call(capsys, monkeypatch, argv, text):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, json.loads(err) if err else None


def test_json_nested_past_the_recursion_limit_exit_2(capsys, monkeypatch):
    # past where the decoder of any interpreter gives up, and past 3.11's
    # but not 3.13's: the same exit code and text on every interpreter
    for text in ("[" * 100_000 + "]" * 100_000, _nested(5003)):
        got = _stdin_call(capsys, monkeypatch, ["condense", "down"], text)
        assert got == (2, "", TOO_DEEP)


def test_json_nested_at_the_depth_limit_is_read(capsys, monkeypatch):
    # the reader sees the mass and rejects it, quoting only its outer levels
    code, out, err = _stdin_call(capsys, monkeypatch, ["condense", "down"],
                                 _nested(MAX_JSON_DEPTH))
    assert (code, out, err["error"]) == (1, "", "validation")
    assert err["detail"] == "bad scalar [[[[[[[...]]]]]]]"


@pytest.mark.parametrize("argv", [["condense", "down"], ["rsk", "--inverse"], ["hive"]])
def test_json_nested_past_the_depth_limit_exit_2(capsys, monkeypatch, argv):
    for text in (_nested(MAX_JSON_DEPTH + 1),
                 # where no command looks, and before the error the command gives
                 '{"type": "bogus", "junk": %s}' % ("[" * 99 + "{}" + "]" * 99)):
        assert _stdin_call(capsys, monkeypatch, argv, text) == (2, "", TOO_DEEP)


def test_brackets_inside_json_strings_do_not_nest(capsys, monkeypatch):
    # a string of 301 opening brackets, an escaped quote and a backslash
    text = json.dumps({"type": "array", "rows": [["[{" * 150 + '["\\']]})
    code, out, err = _stdin_call(capsys, monkeypatch, ["condense", "down"], text)
    assert (code, out, err["error"]) == (1, "", "validation")
    # the error quotes the two ends of the 303-character string only
    assert err["detail"] == r"""bad scalar string '[{[{[{[{[{[{...{[{[{[{[{["\\'"""


def test_an_oversized_declared_size_is_quoted_as_bad_scalars_are(capsys, monkeypatch):
    text = json.dumps({"type": "array", "rows": [[1]], "n": "x" * 100_000})
    code, out, err = _stdin_call(capsys, monkeypatch, ["condense", "down"], text)
    assert (code, out, err["error"]) == (1, "", "validation")
    assert err["detail"] == f"declared n='{'x' * 12}...{'x' * 13}' but rows have 1 columns"


def test_a_recursion_error_of_the_decoder_gives_the_depth_text(capsys, monkeypatch):
    import io

    def too_deep(text):
        raise RecursionError("maximum recursion depth exceeded")

    with monkeypatch.context() as patched:
        patched.setattr(json, "loads", too_deep)
        patched.setattr(sys, "stdin", io.StringIO(json.dumps(ARRAY)))
        code = main(["condense", "down"])
    out, err = capsys.readouterr()
    assert (code, out, json.loads(err)) == (2, "", TOO_DEEP)


def test_tableau_of_a_triangle_exit_1(cli):
    for argv in (["tableau"], ["tableau", "--wall"]):
        code, out, err = cli(argv, {"type": "triangle", "rows": [[0], [0, 0]]})
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "validation"


@pytest.mark.parametrize("a, b", [("1/2", 2), (1, "1/2")], ids=["a", "b"])
def test_tableau_of_a_pair_with_a_non_integral_block_exit_1(cli, a, b):
    pair = {"type": "pair", "kind": "standard", "a": {"type": "array", "rows": [[a]]},
            "b": {"type": "array", "rows": [[b]]}}
    code, out, err = cli(["tableau"], pair)
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "validation", "detail": "pair is not integral"}


def test_validation_error_exit_1(cli):
    code, out, err = cli(["condense", "down"],
                         {"type": "array", "rows": [[1, -2]]})
    assert code == 1
    assert json.loads(err)["error"] == "validation"


def test_entry_point_runs():
    # the child imports the package from where this process found it
    src = str(Path(octarray.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "octarray.cli", "lr", "1", "1", "1,1"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["coefficient"] == 1


@pytest.mark.parametrize("argv, report", [
    (["verify", "thm3", "--n", "2", "--cases", "2", "--seed", "3"],
     lambda: checks.check_theorem3(cases=2, seed=3, n=2)),
    (["verify", "assoc-count", "--max-mass", "2", "--cases", "9", "--n", "4"],
     lambda: checks.check_assoc_count(maxtotal=2)),
    (["verify", "involution", "--n", "2", "--cases", "3", "--max-mass", "1"],
     lambda: checks.check_involution(cases=3, seed=0, max_n=2, max_mass=1)),
])
def test_verify_passes_each_suite_the_flags_it_takes(cli, argv, report):
    code, out, err = cli(argv)
    assert (code, err) == (0, "")
    assert out == report().summary() + "\n"


def test_verify_exits_1_and_lists_the_failures_of_a_broken_suite(capsys, monkeypatch):
    # thm2 compares the wall with the sweeps run on the transpose; with the
    # transposes skipped, every case whose two condensations differ fails
    monkeypatch.setattr(checks, "transpose", lambda a: a)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "thm2", "--cases", "3", "--n", "2"])
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    first, *failures = out.splitlines()
    head = "thm2 (propagation = both condensations): 3 case(s), "
    assert first.startswith(head) and first.endswith(" failure(s)")
    k = int(first[len(head):-len(" failure(s)")])
    assert k >= 1 and len(failures) == k
    assert all(line.startswith("  - case ") for line in failures)
    assert err == ""


def test_input_reads_a_file_or_stdin(cli, tmp_path):
    path = tmp_path / "array.json"
    path.write_text(json.dumps(ARRAY))
    want = cli(["condense", "down"], ARRAY)
    assert want[0] == 0
    assert cli(["--input", str(path), "condense", "down"]) == want
    assert cli(["-i", "-", "condense", "down"], ARRAY) == want
    missing = tmp_path / "missing.json"
    code, out, err = cli(["--input", str(missing), "condense", "down"])
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": "malformed input",
        "detail": f"[Errno 2] No such file or directory: {str(missing)!r}",
    }


@pytest.mark.parametrize("cases, total", [(0, 0), (3, 4)])
def test_verify_rsk_bijection_draws_a_third_more_inverse_cases(cli, cases, total):
    code, out, err = cli(["verify", "rsk-bijection", "--cases", str(cases)])
    assert (code, out, err) == (0, f"rsk bijection (round trips): {total} case(s), ok\n", "")


def test_main_gives_the_same_output_after_an_argument_error(cli):
    first = cli(["condense", "down"], ARRAY)
    code, out, err = cli(["condense", "sideways"])
    assert (code, out) == (2, "")
    assert "invalid choice" in json.loads(err)["detail"]
    assert cli(["condense", "down"], ARRAY) == first
    assert first[0] == 0


@pytest.mark.parametrize("argv, detail", [
    (["lr", "1,2"], "the following arguments are required: mu, nu"),
    ([], "the following arguments are required: command"),
    (["transpose"], "argument command: invalid choice: 'transpose' (choose from "
     "'condense', 'rsk', 'propagate', 'hive', 'commute', 'associate', 'lr', "
     "'tableau', 'verify')"),
    (["condense", "sideways"], "argument direction: invalid choice: 'sideways' "
     "(choose from 'down', 'left', 'right', 'up')"),
    (["verify", "thm1", "--cases", "x"], "argument --cases: invalid int value: 'x'"),
    (["verify", "nosuch"], "argument suite: invalid choice: 'nosuch' (choose from "
     + ", ".join(map(repr, sorted(checks.SUITES))) + ")"),
    (["rsk", "--inverse", "extra"], "unrecognized arguments: extra"),
    (["--input"], "argument --input/-i: expected one argument"),
])
def test_usage_errors_exit_2_with_json_on_stderr(cli, argv, detail):
    code, out, err = cli(argv)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "malformed input", "detail": detail}


@pytest.mark.parametrize("argv", [["--help"], ["lr", "-h"]])
def test_help_goes_to_stdout_and_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: octarray") and err == ""


# argvs a command table can read differently from argparse; the last six
# are forms argparse took and the table does not (an abbreviation, an
# attached value, short flags glued to a value or to each other and the
# end-of-options marker)
@pytest.mark.parametrize("argv, detail", [
    (["verify", "thm1", "--seed"], "argument --seed: expected one argument"),
    (["verify", "thm1", "--seed", "--cases", "1"], "argument --seed: expected one argument"),
    (["lr", "1", "2", "3", "4"], "unrecognized arguments: 4"),
    (["condense", "down", "--input", "array.json"],
     "unrecognized arguments: --input array.json"),
    (["lr", "--func", "1", "1", "1"], "unrecognized arguments: --func"),
    (["lr", "-1,2", "1", "0"], "the following arguments are required: nu"),
    (["--oracle", "lr", "1", "1"], "the following arguments are required: nu"),
    (["--oracle", "lr", "1", "1", "2"], "unrecognized arguments: --oracle"),
    (["verify", "-1", "thm1"], "argument suite: invalid choice: '-1' (choose from "
     + ", ".join(map(repr, sorted(checks.SUITES))) + ")"),
    (["associate", "--func"], "unrecognized arguments: --func"),
    (["verify", "thm2", "--seed=3"], "unrecognized arguments: --seed=3"),
    (["-iarray.json", "condense", "down"], "unrecognized arguments: -iarray.json"),
    (["-hh", "condense", "down"], "unrecognized arguments: -hh"),
    (["condense", "down", "-hx"], "unrecognized arguments: -hx"),
    (["--", "condense", "down"], "unrecognized arguments: --"),
])
def test_usage_errors_of_the_command_table(cli, argv, detail):
    code, out, err = cli(argv)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "malformed input", "detail": detail}


def test_a_switch_may_repeat_and_is_off_again_in_the_next_call(cli):
    first = cli(["rsk"], ARRAY)
    assert first[0] == 0
    code, out, err = cli(["rsk", "--inverse", "--inverse"], json.loads(first[1]))
    assert (code, err) == (0, "")
    assert json.loads(out)["rows"] == ARRAY["rows"]
    assert cli(["rsk"], ARRAY) == first


@pytest.mark.parametrize("name", ["condense", "rsk", "propagate", "hive", "commute",
                                  "associate", "lr", "tableau", "verify"])
def test_help_after_each_command_prints_its_usage(capsys, name):
    with pytest.raises(SystemExit) as exc:
        main([name, "-h"])
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith(f"usage: octarray {name} [-h]") and err == ""


@pytest.mark.parametrize("argv, flag", [
    (["verify", "thm2", "--n", "0"], "--n"),
    (["verify", "thm1", "--max-mass", "-1"], "--max-mass"),
    (["verify", "involution", "--cases", "-2"], "--cases"),
])
def test_verify_rejects_out_of_range_flags(cli, argv, flag):
    code, out, err = cli(argv)
    assert (code, out) == (2, "")
    doc = json.loads(err)
    assert doc["error"] == "malformed input"
    assert doc["detail"].startswith(flag + " must be at least")


@pytest.mark.parametrize("suite", sorted(checks.SUITES))
def test_verify_accepts_the_smallest_flags(cli, suite):
    code, out, err = cli(["verify", suite, "--n", "1", "--max-mass", "0",
                          "--cases", "2"])
    assert (code, err) == (0, "")


def test_internal_error_exit_3(cli, monkeypatch):
    from octarray import cli as cli_module

    def broken(a):
        raise AssertionError("invariant broken")

    monkeypatch.setattr(cli_module, "condense_down", broken)
    code, out, err = cli(["condense", "down"], ARRAY)
    assert (code, out) == (3, "")
    assert json.loads(err) == {"error": "internal", "detail": "invariant broken"}


def test_a_fault_of_the_rsk_fill_exit_3(cli, monkeypatch):
    from octarray import octahedron

    def min_row(t, s, u, w, start):
        for i in range(start, len(t)):
            t[i] = min(t[i - 1] + s[i], u[i] + w[i - 1]) - s[i - 1]

    monkeypatch.setattr(octahedron, "or_row", min_row)
    code, out, err = cli(["rsk"], {"type": "array", "rows": [[1, 0], [0, 0]]})
    assert (code, out) == (3, "")
    assert json.loads(err) == {
        "error": "internal",
        "detail": "the ceiling or the wall has a negative mixed difference"}


def test_tableau_over_the_letter_limit_exit_1(cli):
    from octarray.bijections import MAX_TABLEAU_LETTERS

    code, out, err = cli(["tableau"], {"type": "array", "rows": [[3000000]]})
    assert (code, out) == (1, "")
    doc = json.loads(err)
    assert doc["error"] == "validation"
    assert "MAX_TABLEAU_LETTERS = 100000" in doc["detail"]
    code, out, err = cli(["tableau"], {"type": "array",
                                       "rows": [[MAX_TABLEAU_LETTERS // 2] * 2]})
    assert (code, err) == (0, "")
    assert len(out.split()) == MAX_TABLEAU_LETTERS


NOT_ASCII_INTEGERS = ["2_0", "٢", " 2", "+2", "1/2", "4/2", "x", "9" * 5000]
# an error quotes a text of 28 characters or fewer whole, and cuts a longer
# one to its first 12 and last 13 characters
CUT = {"9" * 5000: "'999999999999...9999999999999'",
       "9" * 5000 + ",1": "'999999999999...99999999999,1'"}


@pytest.mark.parametrize("text", NOT_ASCII_INTEGERS, ids=repr)
def test_lr_partition_parts_take_ascii_integers_only(cli, text):
    code, out, err = cli(["lr", f"{text},1", "1,0", "2,1"])
    assert (code, out) == (2, "")
    quoted = CUT.get(text + ",1", repr(text + ",1"))
    assert json.loads(err) == {"error": "malformed input",
                               "detail": f"bad partition argument {quoted}"}


LIMIT = sys.get_int_max_str_digits()
PARTITION_ALPHABET = "0123456789,-+/_ \u0663"  # \u0663 is the Arabic-Indic digit three
PARTITION_EDGES = {"empty": "", "comma": ",", "empty parts": "1,,2,", "minus zero": "-0",
                   "leading zeros": "007", "at the digit limit": "1," + "9" * LIMIT,
                   "past the digit limit": "9" * (LIMIT + 1) + ",1"}


def partition_by_parse_scalar(text):
    """The partition argument's reference reader: each non-empty part read
    by parse_scalar, "/" refused; the tuple of ints or the error text."""
    try:
        if "/" not in text:
            return tuple(parse_scalar(x) for x in text.split(",") if x)
    except ValidationError:
        pass
    return f"bad partition argument {_quoted(text)}"


def partition_read(text):
    try:
        parts = _partition_arg(text)
    except MalformedInput as exc:
        return str(exc)
    assert all(type(x) is int for x in parts)
    return parts


try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # a seeded loop instead
    def partition_texts(test):
        def run():
            rng = random.Random(0)
            for _ in range(500):
                test("".join(rng.choices(PARTITION_ALPHABET, k=rng.randint(0, 10))))

        run.__name__ = test.__name__
        return run
else:
    def partition_texts(test):
        return settings(max_examples=500, deadline=None, database=None)(
            given(st.text(PARTITION_ALPHABET, max_size=10))(test))


@partition_texts
def test_a_partition_argument_reads_as_parse_scalar_reads_its_parts(text):
    assert partition_read(text) == partition_by_parse_scalar(text)


@pytest.mark.parametrize("text", PARTITION_EDGES.values(), ids=PARTITION_EDGES)
def test_partition_argument_edges_read_as_parse_scalar_reads_them(text):
    assert partition_read(text) == partition_by_parse_scalar(text)


def test_a_partition_part_past_the_digit_limit_exit_2_quoted_cut(cli):
    code, out, err = cli(["lr", "1", "9" * (LIMIT + 1), "1"])
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "malformed input", "detail":
                               "bad partition argument '999999999999...9999999999999'"}
    code, out, err = cli(["lr", "9" * LIMIT, "0", "9" * LIMIT, "--oracle"])
    assert (code, err) == (0, "")
    assert json.loads(out) == {"coefficient": 1, "oracle": 1}


@pytest.mark.parametrize("flag", ["--seed", "--cases", "--n", "--max-mass"])
@pytest.mark.parametrize("text", NOT_ASCII_INTEGERS, ids=repr)
def test_verify_integer_flags_take_ascii_integers_only(cli, flag, text):
    code, out, err = cli(["verify", "thm2", "--cases", "1", flag, text])
    assert (code, out) == (2, "")
    quoted = CUT.get(text, repr(text))
    assert json.loads(err) == {"error": "malformed input",
                               "detail": f"argument {flag}: invalid int value: {quoted}"}


@pytest.mark.parametrize("argv, code, detail", [
    (["condense", "x" * 3000], 2, "argument direction: invalid choice: "
     "'xxxxxxxxxxxx...xxxxxxxxxxxxx' (choose from 'down', 'left', 'right', 'up')"),
    (["z" * 3000], 2, "argument command: invalid choice: 'zzzzzzzzzzzz...zzzzzzzzzzzzz' "
     "(choose from 'condense', 'rsk', 'propagate', 'hive', 'commute', 'associate', "
     "'lr', 'tableau', 'verify')"),
    (["verify", "thm1", "--n", "-" + "9" * 4000], 2,
     "--n must be at least 1, got -99999999999999999...9999999999999999999"),
    (["verify", "thm1", "--seed", "9" * 5000], 2,
     "argument --seed: invalid int value: '999999999999...9999999999999'"),
    (["lr", "1," + "9" * 4000, "1", "2"], 1, "argument 0 is not weakly decreasing "
     "non-negative: (1, 999999999999999999...9999999999999999999)"),
    (["rsk", "x" * 28, "y" * 29, "--" + "w" * 3000], 2, "unrecognized arguments: "
     + "x" * 28 + " 'yyyyyyyyyyyy...yyyyyyyyyyyyy' '--wwwwwwwwww...wwwwwwwwwwwww'"),
], ids=["choice", "command", "least", "int", "partition", "unrecognized"])
def test_an_error_quotes_a_long_argument_cut(cli, argv, code, detail):
    status, out, err = cli(argv)
    assert (status, out) == (code, "")
    assert json.loads(err)["detail"] == detail
    assert len(detail) < 200


@pytest.mark.parametrize("argv, detail", [
    # least values are checked once the argv is read: after an unrecognized
    # argument and a value that is no int, in the table's order
    (["verify", "thm1", "--n", "0", "extra"], "unrecognized arguments: extra"),
    (["verify", "thm1", "--n", "0", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
    (["verify", "thm1", "--n", "0", "--cases", "-1"], "--cases must be at least 0, got -1"),
    (["verify", "thm1", "--max-mass", "-1", "--n", "0"], "--n must be at least 1, got 0"),
    # switches that exclude each other lose to an unrecognized argument
    (["associate", "--inverse", "--seed", "1", "--functional"],
     "unrecognized arguments: --seed 1"),
], ids=["unrecognized-before-least", "bad-int-before-least", "least-in-table-order",
        "n-before-max-mass", "unrecognized-before-pair"])
def test_which_usage_error_wins(cli, argv, detail):
    code, out, err = cli(argv)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "malformed input", "detail": detail}


@pytest.mark.parametrize("argv", [
    ["verify", "thm1", "--n", "0", "--n", "2", "--cases", "0"],
    ["verify", "thm1", "--cases", "-1", "--cases", "0"],
    ["verify", "thm1", "--max-mass", "-1", "--max-mass", "1", "--cases", "0"],
])
def test_the_last_value_of_a_repeated_option_is_checked(cli, argv):
    code, out, err = cli(argv)
    assert (code, err) == (0, "")
    assert out == "thm1 (tetrahedron propagation): 0 case(s), ok\n"


@pytest.mark.parametrize("argv", [["verify", "thm1", "--n", "0", "-h"],
                                  ["hive", "--from-pair", "--to-pair", "-h"]])
def test_a_later_help_wins_over_a_least_value_and_a_switch_pair(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: octarray {argv[0]} [-h]")


def test_integer_arguments_keep_signs_and_leading_zeros(cli):
    code, out, _ = cli(["lr", "02,01", "1", "3,1,0"])
    assert (code, json.loads(out)) == (0, {"coefficient": 1})
    code, out, err = cli(["lr", "-1", "1", "0"])  # reaches the partition check
    assert (code, json.loads(err)["error"]) == (1, "validation")
    code, out, err = cli(["verify", "thm2", "--n", "-1"])
    assert json.loads(err)["detail"] == "--n must be at least 1, got -1"
    code, out, err = cli(["verify", "thm2", "--seed", "-7", "--cases", "01"])
    assert (code, err) == (0, "")


def _couple_json(p1, p2):
    return {"first": serialize.encode_pair(p1), "second": serialize.encode_pair(p2)}


@pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
@pytest.mark.parametrize("which", ["first", "second", "both"])
def test_associate_rejects_antistandard_pairs(cli, inverse, which):
    from octarray.bijections import associate, to_antistandard

    p1, p2 = checks.random_couple(random.Random(41), 3)
    if inverse:
        p1, p2 = associate(p1, p2)
    if which != "second":
        p1 = to_antistandard(p1)
    if which != "first":
        p2 = to_antistandard(p2)
    code, out, err = cli(["associate"] + ["--inverse"] * inverse, _couple_json(p1, p2))
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "validation",
                               "detail": "association expects a couple of standard pairs"}


def test_tableau_letter_limit_is_exact(cli):
    from octarray.bijections import MAX_TABLEAU_LETTERS as limit

    half = limit // 2
    code, out, err = cli(["tableau"], {"type": "array", "rows": [[half, limit - half]]})
    assert (code, err, len(out.split())) == (0, "", limit)
    code, out, err = cli(["tableau"], {"type": "array", "rows": [[half, limit - half + 1]]})
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "validation", "detail": f"tableau would have "
                               f"{limit + 1} letters, more than MAX_TABLEAU_LETTERS = {limit}"}


def test_associate_forward_inverse_and_functional_succeed(cli):
    from octarray.bijections import associate, associate_functional

    p1, p2 = checks.random_couple(random.Random(43), 3, 3, 2)
    o1, o2 = associate(p1, p2)
    code, out, err = cli(["associate"], _couple_json(p1, p2))
    assert (code, err, json.loads(out)) == (0, "", _couple_json(o1, o2))
    code, out, err = cli(["associate", "--inverse"], json.loads(out))
    assert (code, err, json.loads(out)) == (0, "", _couple_json(p1, p2))
    f, g = pair_to_hive(p1), pair_to_hive(p2)
    fp, fq = associate_functional(f, g)
    code, out, err = cli(["associate", "--functional"],
                         {"f": serialize.encode_triangle(f),
                          "g": serialize.encode_triangle(g)})
    assert (code, err) == (0, "")
    assert json.loads(out) == {"p": serialize.encode_triangle(fp),
                               "q": serialize.encode_triangle(fq)}


def test_tableau_of_a_standard_pair(cli):
    from octarray.bijections import pair_to_lr_tableau, render_skew

    p1, _ = checks.random_couple(random.Random(44), 3)
    code, out, err = cli(["tableau"], serialize.encode_pair(p1))
    assert (code, err) == (0, "")
    assert out == render_skew(pair_to_lr_tableau(p1)) + "\n"


def test_hive_rejects_a_triangle_whose_declared_n_is_not_its_size(cli):
    triangle = {"type": "triangle", "rows": [[0], [1, 2]], "n": 7}
    for argv in (["hive"], ["hive", "--to-pair"], ["commute", "--functional"]):
        code, out, err = cli(argv, triangle)
        assert (code, out) == (1, "")
        assert json.loads(err) == {
            "error": "validation",
            "detail": "declared n=7 but the rows make a triangle of size 1"}
    code, out, _ = cli(["hive"], dict(triangle, n=1))
    assert code == 0 and json.loads(out)["increments"]["nu"] == [2]
