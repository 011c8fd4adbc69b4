"""Command line behavior: outputs, exit codes, JSON, stdin."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time

import pytest

from oracles import double_factorial_odd
from surfops.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval(capsys):
    code, out, _ = run(capsys, "eval", "[ a #1 b #2 ; (#1 #2) ]")
    assert code == 0
    assert out.strip() == "{ ( a ) ( b ) }^0"


def test_eval_json(capsys):
    code, out, _ = run(capsys, "eval", "[ #1 #2 ; (#1 #2) ]", "--json")
    assert code == 0
    assert json.loads(out) == {"cycles": [[], []], "g": 0}


def test_glue(capsys):
    code, out, _ = run(capsys, "glue", "{ ( a 1 b 2 ) }^0", "a", "b")
    assert code == 0
    assert out.strip() == "{ ( 1 ) ( 2 ) }^0"


def test_compose_and_rename(capsys):
    code, out, _ = run(capsys, "compose", "{ ( c 1 2 ) }^0", "c", "{ ( 3 cp ) }^0", "cp")
    assert (code, out.strip()) == (0, "{ ( 1 2 3 ) }^0")
    code, out, _ = run(capsys, "rename", "{ ( a b ) }^1", "a x, b y")
    assert (code, out.strip()) == (0, "{ ( x y ) }^1")


def test_canon_round_trip(capsys):
    code, out, _ = run(capsys, "canon", "{ ( 1 ) ( 2 ) }^1")
    assert code == 0
    assert out.strip() == "[ #1 2 #2 #3 #4 #5 #6 1 ; (#1 #2) (#3 #5) (#4 #6) ]"
    code, out, _ = run(capsys, "eval", out.strip())
    assert (code, out.strip()) == (0, "{ ( 1 ) ( 2 ) }^1")


def test_canon_all(capsys):
    code, out, _ = run(capsys, "canon", "{ ( 1 2 ) }^0", "--all")
    assert code == 0
    assert len(out.strip().splitlines()) == 2


def test_canon_all_is_limited(capsys):
    operand = "{ ( a b c ) ( d e f ) ( g h i ) ( j k l ) ( m n o ) ( p q r ) ( s t u ) ( v w x ) }^0"
    start = time.perf_counter()
    code, out, err = run(capsys, "canon", "--all", operand)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == ("error: the surface has 264539520 canonical presentations; "
                   "enumerating them is limited to 100000\n")


@pytest.mark.parametrize("argv, pool, size", [
    (["check-axioms", "--max-labels", "7"], "surface pool of max_labels = 7, max_g = 1", "27400"),
    (["check-axioms", "--max-labels", "1000000000"], "surface pool of max_labels = 1000000000, max_g = 1",
     "more than 27400"),
    (["check-axioms", "--max-g", "1000000000"], "surface pool of max_labels = 2, max_g = 1000000000", "5000000005"),
    (["check-axioms", "--target", "terminal", "--max-labels", "1000000000"],
     "terminal pool of max_labels = 1000000000, max_g = 1", "more than 512"),
    (["check-axioms", "--target", "terminal", "--max-labels", "3", "--max-g", "1000000000"],
     "terminal pool of max_labels = 3, max_g = 1000000000", "16000000016"),
    (["check-envelope", "--max-labels", "6", "--max-g", "1"], "surface pool of max_labels = 6, max_g = 1", "3914"),
    (["check-envelope", "--max-labels", "1000000000"], "surface pool of max_labels = 1000000000, max_g = 1",
     "more than 27400"),
    (["check-envelope", "--max-g", "1000000000"], "surface pool of max_labels = 3, max_g = 1000000000",
     "16000000016"),
])
def test_large_pools_are_refused_at_once(capsys, argv, pool, size):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == (f"error: the {pool} would hold {size} elements; "
                   f"pools are limited to 1000 elements on at most 6 labels\n")


@pytest.mark.parametrize("operand", ['{"cycles": [["a"]], "g": 99999999999999999999999}',
                                     "{ ( a ) }^99999999999999999999999"])
def test_canon_of_a_huge_genus_is_refused_at_once(capsys, operand):
    start = time.perf_counter()
    code, out, err = run(capsys, "canon", operand)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == ("error: the surface has grade 199999999999999999999998; "
                   "a canonical presentation is limited to 200000 arcs\n")


def test_canon_json(capsys):
    code, out, _ = run(capsys, "canon", "{ ( a ) }^1", "--json")
    data = json.loads(out)
    assert code == 0 and "diagram" in data


def test_surface_json_input(capsys):
    code, out, _ = run(capsys, "glue", '{"cycles": [["a", "x", "b"]], "g": 0}', "a", "b")
    assert code == 0
    assert out.strip() == "{ ( ) ( x ) }^0"


def test_stdin_operand(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("[ a #1 b #2 ; (#1 #2) ]"))
    code, out, _ = run(capsys, "eval", "-")
    assert (code, out.strip()) == (0, "{ ( a ) ( b ) }^0")


def test_equal_verdicts(capsys):
    code, out, _ = run(
        capsys, "equal", "[ #1 #2 #3 #4 ; (#1 #3) (#2 #4) ]", "[ #1 #2 #3 #4 ; (#1 #2) (#3 #4) ]"
    )
    assert code == 3 and out.strip() == "inequivalent"
    code, out, _ = run(
        capsys, "equal", "[ a b #1 c #2 ; (#1 #2) ]", "[ b a #1 c #2 ; (#1 #2) ]", "--certificate"
    )
    assert code == 0
    assert "1 move" in out


def test_certificate_inequivalent_at_default_depth(capsys):
    # Same items and arcs: three handles (genus 3) against two handles and two split-off cycles.
    arcs = "(#1 #3) (#2 #4) (#5 #7) (#6 #8) (#9 #11) (#10 #12)"
    three_handles = f"[ a #1 #2 #3 #4 b #5 #6 #7 #8 c #9 #10 #11 #12 ; {arcs} ]"
    two_handles = f"[ a #1 #3 #2 #4 b #5 #6 #7 #8 c #9 #10 #11 #12 ; {arcs} ]"
    code, out, _ = run(capsys, "equal", "--certificate", three_handles, two_handles)
    assert (code, out) == (3, "inequivalent\n")


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "eval", "[ a #1 ; ]")
    assert code == 1
    assert "parse error" in err


def test_precondition_exit_code(capsys):
    code, _, err = run(capsys, "glue", "{ ( a ) }^0", "a", "a")
    assert code == 2
    assert "error" in err


def test_usage_exit_code(capsys):
    assert run(capsys, "now-such-command")[0] == 1
    assert run(capsys)[0] == 1
    code, _, err = run(capsys, "hz-table")
    assert code == 1  # missing required --chords


def test_check_axioms_cli(capsys):
    code, out, _ = run(capsys, "check-axioms", "--target", "terminal", "--max-labels", "2",
                       "--max-g", "1", "--budget", "50")
    assert code == 0
    assert "PASS" in out
    code, out, _ = run(capsys, "check-axioms", "--max-labels", "1", "--max-g", "0",
                       "--random", "45", "--seed", "9", "--json")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_check_axioms_default_marks_vacuous_families(capsys):
    code, out, _ = run(capsys, "check-axioms")
    assert code == 0
    lines = out.splitlines()
    vacuous = [line.split()[0] for line in lines if line.endswith("VACUOUS")]
    assert vacuous == ["contract_commutativity", "contract_compose_exchange", "contract_factor_left",
                       "contract_factor_right", "compose_associativity"]
    assert all(" 0 checked " in line for line in lines if line.endswith("VACUOUS"))
    assert lines[-1] == "  total: 110 checked, 0 failed -> PASS (5 of 9 families vacuous)"
    code, out, _ = run(capsys, "check-axioms", "--json")
    assert code == 0
    assert json.loads(out)["vacuous"] == vacuous


def test_envelope_total_counts_vacuous_families(capsys):
    code, out, _ = run(capsys, "check-envelope", "--max-labels", "1", "--max-g", "0")
    assert code == 0
    assert out.splitlines()[-1] == "  total: 36 checked, 0 failed -> PASS (8 of 22 families vacuous)"
    code, out, _ = run(capsys, "check-envelope", "--json")
    assert json.loads(out)["vacuous"] == []


@pytest.mark.parametrize("argv", [
    ["check-axioms", "--max-labels", "-1"],
    ["check-axioms", "--max-g", "-1"],
    ["check-axioms", "--budget", "-5"],
    ["check-axioms", "--random", "-2"],
    ["check-envelope", "--max-labels", "-1"],
    ["check-envelope", "--max-g", "-1"],
    ["check-envelope", "--budget", "-1"],
    ["equal", "--certificate", "--depth", "-3", "[ a ; ]", "[ a ; ]"],
    ["hz-table", "--chords", "-1"],
    ["hz-table", "--chords", "\u0663"],  # ARABIC-INDIC DIGIT THREE
    ["hz-table", "--chords", "1_0"],
    ["hz-table", "--chords", " 2"],
])
def test_negative_numeric_options_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "nonnegative integer" in err


@pytest.mark.parametrize("seed", ["\u0661", " 1_0", "+1", "1.0", ""])  # \u0661: ARABIC-INDIC DIGIT ONE
def test_seed_takes_ascii_digits_with_an_optional_minus(capsys, seed):
    code, out, err = run(capsys, "check-axioms", "--max-labels", "1", "--max-g", "0", "--random", "2",
                         "--seed", seed)
    assert (code, out) == (1, "")
    assert err == f"surfops check-axioms: argument --seed: expected an integer, got {seed!r}\n"


def test_negative_seed(capsys):
    code, out, _ = run(capsys, "check-axioms", "--max-labels", "1", "--max-g", "0", "--random", "2",
                       "--seed", "-3")
    assert code == 0
    assert out.splitlines()[-1] == "  total: 8 checked, 0 failed -> PASS (7 of 9 families vacuous)"


def test_json_surface_errors_exit_1(capsys):
    for operand in ['{"cycles": [["a","b"]]}', '{"cycles": "ab", "g": 0}', '{"cycles": [["a", 1]], "g": 0}']:
        code, out, err = run(capsys, "canon", operand)
        assert (code, out) == (1, "")
        assert err.startswith("parse error")


GLUE_IN_JSON = "parse error: line 1, col 1: glue tokens are not allowed in this context\n"


@pytest.mark.parametrize("argv, err", [
    (["canon", '{"cycles": [["#1", "a"]], "g": 1}'], GLUE_IN_JSON),
    (["canon", "--all", '{"cycles": [["#2"], ["a"]], "g": 0}'], GLUE_IN_JSON),
    (["rename", "{ ( a b ) }^0", "a #1, b c"], "parse error: line 1, col 3: label '#1' contains reserved character '#'\n"),
    (["rename", "{ ( a b ) }^0", "a (, b c"], "parse error: line 1, col 3: label '(' contains reserved character '('\n"),
    (["rename", "{ ( a b ) }^0", "a x,\nb #2"], "parse error: line 2, col 3: label '#2' contains reserved character '#'\n"),
])
def test_glue_tokens_and_bad_names_are_parse_errors(capsys, argv, err):
    assert run(capsys, *argv) == (1, "", err)


def test_check_envelope_cli(capsys):
    code, out, _ = run(capsys, "check-envelope", "--max-labels", "2", "--max-g", "1")
    assert code == 0
    assert "PASS" in out


def test_hz_table(capsys):
    code, out, _ = run(capsys, "hz-table", "--chords", "2")
    assert code == 0
    assert out.strip() == "g=0: 2\ng=1: 1\ntotal: 3"
    code, out, _ = run(capsys, "hz-table", "--chords", "3", "--json")
    assert json.loads(out)["counts"] == {"0": 5, "1": 10}


def test_hz_table_census_limit(capsys):
    code, out, err = run(capsys, "hz-table", "--chords", "1001")
    assert (code, out) == (2, "")
    assert err == ("error: the census of n = 1001 chords is limited to n <= 1000, which keeps its total (2n-1)!! "
                   "inside Python's 4300-digit limit for printing an int\n")


def test_hz_table_at_the_census_limit(capsys):
    code, out, _ = run(capsys, "hz-table", "--chords", "1000", "--json")
    assert code == 0
    assert json.loads(out)["total"] == double_factorial_odd(1000)


def test_render(capsys):
    code, out, _ = run(capsys, "render", "[ a #1 b #2 ; (#1 #2) ]")
    assert code == 0
    assert out.startswith("graph ") and "dashed" in out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "surfops", "eval", "[ x ; ]"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "{ ( x ) }^0"


def test_seeded_random_reproducible(capsys):
    args = ["check-axioms", "--max-labels", "1", "--max-g", "0", "--random", "27", "--seed", "3", "--json"]
    first = run(capsys, *args)
    second = run(capsys, *args)
    assert first == second


SEEDED_RANDOM_REPORT = """\
axiom check against target 'surfaces'
  compose_symmetry                 3 checked    0 failed  ok
  rename_functoriality             9 checked    0 failed  ok
  compose_equivariance             3 checked    0 failed  ok
  contract_equivariance            3 checked    0 failed  ok
  contract_commutativity           3 checked    0 failed  ok
  contract_compose_exchange        3 checked    0 failed  ok
  contract_factor_left             3 checked    0 failed  ok
  contract_factor_right            3 checked    0 failed  ok
  compose_associativity            3 checked    0 failed  ok
  total: 33 checked, 0 failed -> PASS
"""


def test_seeded_random_report_adds_to_the_exhaustive_one(capsys):
    # the exhaustive title and family order, with the random counts added family by family
    argv = ["check-axioms", "--max-labels", "1", "--max-g", "0", "--random", "27", "--seed", "3"]
    assert run(capsys, *argv) == (0, SEEDED_RANDOM_REPORT, "")


def test_closed_stdout_exits_1_without_a_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the child writes anything
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "surfops", "check-axioms", "--json"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr
    assert (proc.returncode, proc.stderr) == (1, "")


# main calls of the tests above, plus usage errors and every --help: main reuses one parser
# per process, so a call must not depend on the calls made before it.
TABLE = [
    ["eval", "[ a #1 b #2 ; (#1 #2) ]"],
    ["eval", "[ #1 #2 ; (#1 #2) ]", "--json"],
    ["eval", "[ a #1 ; ]"],
    ["eval"],
    ["eval"],
    ["glue", "{ ( a 1 b 2 ) }^0", "a", "b"],
    ["glue", "{ ( a ) }^0", "a", "a"],
    ["glue", '{"cycles": [["a", "x", "b"]], "g": 0}', "a", "b"],
    ["compose", "{ ( c 1 2 ) }^0", "c", "{ ( 3 cp ) }^0", "cp"],
    ["compose", "{ ( c 1 2 ) }^0", "c", "{ ( 3 cp ) }^0", "cp", "--json"],
    ["rename", "{ ( a b ) }^1", "a x, b y"],
    ["rename", "{ ( a b ) }^0", "a #1, b c"],
    ["canon", "{ ( 1 ) ( 2 ) }^1"],
    ["canon", "{ ( 1 2 ) }^0", "--all", "--annotate"],
    ["canon", "{ ( a ) }^1", "--json"],
    ["canon", '{"cycles": [["#1", "a"]], "g": 1}'],
    ["equal", "[ #1 #2 #3 #4 ; (#1 #3) (#2 #4) ]", "[ #1 #2 #3 #4 ; (#1 #2) (#3 #4) ]"],
    ["equal", "[ a b #1 c #2 ; (#1 #2) ]", "[ b a #1 c #2 ; (#1 #2) ]", "--certificate"],
    ["equal", "[ a b #1 c #2 ; (#1 #2) ]", "[ b a #1 c #2 ; (#1 #2) ]", "--certificate", "--depth", "0"],
    ["equal", "--certificate", "--depth", "-3", "[ a ; ]", "[ a ; ]"],
    ["check-axioms", "--max-labels", "1", "--max-g", "0", "--random", "27", "--seed", "3", "--json"],
    ["check-axioms", "--max-labels", "1", "--max-g", "0", "--random", "27", "--seed", "3"],
    ["check-axioms", "--target", "terminal", "--max-labels", "2", "--max-g", "1", "--budget", "50"],
    ["check-axioms", "--json"],
    ["check-axioms"],
    ["check-axioms", "--max-labels", "-1"],
    ["check-axioms", "--seed", "\u0661"],
    ["check-envelope", "--max-labels", "1", "--max-g", "0"],
    ["check-envelope", "--max-labels", "1", "--max-g", "0", "--json"],
    ["hz-table", "--chords", "3", "--json"],
    ["hz-table", "--chords", "2"],
    ["hz-table", "--chords", "10"],
    ["hz-table", "--chords", "\u0663"],
    ["hz-table"],
    ["render", "[ a #1 b #2 ; (#1 #2) ]"],
    ["render", "[ a #1 b #2 ; (#1 #2) ]", "--format", "svg"],
    ["now-such-command"],
    [],
    ["--help"],
    *[[command, "--help"] for command in ("eval", "canon", "compose", "glue", "rename", "equal",
                                          "check-axioms", "check-envelope", "hz-table", "render")],
]


def call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # --help
            code = f"SystemExit({exc.code})"
    return code, out.getvalue(), err.getvalue()


def test_repeated_calls_match_a_fresh_parser():
    fresh = []
    for argv in TABLE:
        build_parser.cache_clear()
        fresh.append(call(argv))
    assert build_parser() is build_parser()
    assert [call(argv) for argv in TABLE] == fresh
    assert [call(argv) for argv in reversed(TABLE)] == fresh[::-1]
    assert fresh[3] == fresh[4] == (1, "", "surfops eval: the following arguments are required: diagram\n")
    assert fresh[TABLE.index(["--help"])][0] == "SystemExit(0)"
    assert json.loads(fresh[TABLE.index(["check-axioms", "--json"])][1])["passed"] is True
    assert fresh[TABLE.index(["check-axioms"])][1].endswith("-> PASS (5 of 9 families vacuous)\n")


@pytest.mark.parametrize("mapping, err", [
    ("a x, b", "renaming needs an even list: old new, old new, ..."),
    ("", "renaming must not be empty"),
])
def test_rename_list_shape_is_a_parse_error(capsys, mapping, err):
    assert run(capsys, "rename", "{ ( a b ) }^0", mapping) == (1, "", f"parse error: line 1, col 1: {err}\n")


def test_certificate_for_two_layouts_of_one_diagram(capsys):
    argv = ["equal", "--certificate", "[ a #1 b #2 ; (#1 #2) ]", "[ b #2 a #1 ; (#2 #1) ]"]
    assert run(capsys, *argv) == (0, "equivalent (diagrams are identical)\n", "")


def test_certificate_search_with_no_successors(capsys):
    argv = ["equal", "--certificate", "[ #1 #2 a ; (#1 #2) ]", "[ #1 a #2 ; (#1 #2) ]"]
    assert run(capsys, *argv) == (0, "equivalent (no certificate found within depth 4)\n", "")
