"""End-to-end CLI behavior: reports, exit codes, determinism."""

import argparse
import json
import time

import pytest

import eulersym.cli
import eulersym.groebner
from eulersym import format_symbol_file, system_from_file
from eulersym.cli import build_parser, bundled_text, main
from helpers import dense_frame


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejects the invocation
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_pass(capsys):
    code, out, _ = run(capsys, "validate", "epr.sys")
    assert code == 0
    assert "result: PASS" in out
    assert "component dims (1, 3, 3, 1)" in out


def test_validate_fail_lists_diagnostics(tmp_path, capsys):
    bad = tmp_path / "bad.sys"
    bad.write_text("vars: x1 x2\nrank: 3\nF2: x2^2\nF3: x1^3\n")
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 1
    assert "[fail] structure" in out
    assert "contracting x1^3 by e1" in out


def test_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.sys"
    bad.write_text("vars: x1\nrank: 2\nF2: x1^2 +\n")
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert out == ""
    assert "line 3" in err


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "order", "nosuch.sys")
    assert code == 2
    assert "not a file and not a bundled example" in err


def test_order_and_baselocus(capsys):
    code, out, _ = run(capsys, "order", "rnc.sys")
    assert code == 0
    assert "[info] order: 3" in out
    code, out, _ = run(capsys, "baselocus", "epr.sys")
    assert code == 0
    assert "saturated ideal of F2 = (x1)" in out


def test_saturated_exit_codes(capsys):
    code, out, _ = run(capsys, "saturated", "triple.sys")
    assert code == 0
    assert "[info] saturated: TRUE" in out
    code, out, _ = run(capsys, "saturated", "epr.sys")
    assert code == 1
    assert "[info] saturated: FALSE" in out
    assert "[fail] prolongation-exactness" in out
    code, out, _ = run(capsys, "saturated", "veronese.sys")
    assert code == 1
    assert "order 2" in out


@pytest.mark.parametrize("argv,expected", [
    (["validate"], 0), (["prolong"], 0), (["order"], 0), (["baselocus"], 0),
    (["saturated"], 1), (["model"], 0), (["act-check"], 0), (["curve-degrees"], 0),
    (["implicitize", "--degree", "2"], 0), (["report"], 0),
    (["ff", "--chart"], 0), (["cartan", "--chart"], 0)])
def test_rank_one_system(tmp_path, capsys, argv, expected):
    # a valid system of order 1 whose F^2 is zero: saturation is undefined
    path = tmp_path / "line.sys"
    path.write_text("vars: x1\nrank: 1\n")
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert code == expected
    assert "Traceback" not in err
    if argv[0] == "saturated":
        assert "[fail] F2: the saturation predicate needs a nonzero F2" in out
    if argv[0] == "report":
        assert "[info] saturated: predicate not defined for F2 = 0, skipped" in out


def test_saturated_point_cross_check(tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    pts.write_text("0,1,0\n0,0,1\n0,1,1\n0,1,-1\n0,1,2\n0,2,1\n")
    code, out, _ = run(capsys, "saturated", "epr.sys", "--points", str(pts))
    assert "[pass] point-cross-check" in out
    off = tmp_path / "off.txt"
    off.write_text("1,1,1\n")
    code, out, _ = run(capsys, "saturated", "epr.sys", "--points", str(off))
    assert code == 1
    assert "[fail] point-cross-check" in out


def test_model_block_listing(capsys):
    code, out, _ = run(capsys, "model", "epr.sys")
    assert code == 0
    assert "[info] block-2: u2_1 u2_2 u2_3 (torus weight 2)" in out


def test_act_check(capsys):
    code, out, _ = run(capsys, "act-check", "quadric.sys", "--trials", "5")
    assert code == 0
    assert "[pass] group-law: 5/5 random instances exact" in out
    assert "[pass] translation-equivariance: 5/5 random instances exact" in out
    assert "[pass] euler-scaling: 5/5 random instances exact" in out
    assert "[pass] torus-normalization: 5/5 random instances exact" in out


def test_curve_degrees(capsys):
    code, out, _ = run(capsys, "curve-degrees", "epr.sys")
    assert code == 0
    assert "[pass] max-degree: largest sampled orbit degree 3, rank 3" in out
    assert "[pass] min-degree: smallest sampled orbit degree 1, order 1" in out


@pytest.mark.parametrize("name,lo", [("epr.sys", 3), ("triple.sys", 2)])
def test_curve_degrees_in_a_dense_frame_report_a_miss(tmp_path, capsys, name, lo):
    # the sampler zeroes coordinates of the input frame, so in a dense frame
    # it misses a base locus that is not a coordinate subspace; the sampled
    # minimum then stays inside [order, rank], which is no failed check
    path = tmp_path / name
    path.write_text(format_symbol_file(dense_frame(system_from_file(bundled_text(name)), 1)))
    code, out, _ = run(capsys, "curve-degrees", str(path))
    assert code == 0
    assert "[fail]" not in out
    assert "[pass] max-degree: largest sampled orbit degree 3, rank 3" in out
    assert (f"[info] min-degree: smallest sampled orbit degree {lo}, order 1 "
            "(sampling may have missed the base locus") in out


@pytest.mark.parametrize("degree", [0, 4])
def test_orbit_degrees_outside_order_and_rank_fail(monkeypatch, capsys, degree):
    # every orbit degree lies in [order, rank] = [1, 3] for epr.sys
    monkeypatch.setattr(eulersym.cli, "orbit_curve_degree", lambda model, w: degree)
    code, out, _ = run(capsys, "curve-degrees", "epr.sys")
    assert code == 1
    assert f"[fail] max-degree: largest sampled orbit degree {degree}, rank 3" in out
    assert f"[fail] min-degree: smallest sampled orbit degree {degree}, order 1" in out
    code, out, _ = run(capsys, "report", "epr.sys")
    assert code == 1
    assert f"[fail] max-degree: largest sampled orbit degree {degree}, rank 3" in out


def test_implicitize(capsys):
    code, out, _ = run(capsys, "implicitize", "quadric.sys", "--degree", "2")
    assert code == 0
    assert "dim 1" in out
    assert "[info] generator-1: z1*z2 - z0*u2_1" in out


def test_implicitize_verification_is_exact(capsys):
    code, out, _ = run(capsys, "implicitize", "epr.sys", "--degree", "2")
    assert code == 0
    assert "seed:" not in out
    assert ("[pass] verification: every generator pulls back through the chart "
            "to the zero polynomial") in out


@pytest.mark.parametrize("argv", [
    ["implicitize", "quadric.sys", "--degree", "-1"],
    ["act-check", "quadric.sys", "--trials", "-1"],
    ["act-check", "quadric.sys", "--trials", "0"],
    ["curve-degrees", "epr.sys", "--trials", "0"],
    ["cartan", "quadric.par", "--trials", "0"],
    ["cartan", "quadric.par", "--trials", "-2"],
    ["prolong", "epr.sys", "--degree", "-1"],
    ["prolong", "epr.sys", "--degree", "0"],
    ["curve-degrees", "epr.sys", "--trials", "ten"],
    ["implicitize", "quadric.sys", "--degree", "2.5"],
    ["act-check", "veronese.sys", "--trials", "1000000"],
    ["curve-degrees", "epr.sys", "--trials", "10001"],
    ["cartan", "quadric.par", "--trials", "10001"],
    ["cartan", "quadric.par", "--trials", "9" * 5000],
])
def test_bad_counts_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "error: argument" in err
    assert "Traceback" not in err


def test_ff_has_no_degree_option(capsys):
    # the jet filtration is computed exactly and in full, so its length is
    # read off the input; a truncation degree could only turn it into a failure
    code, out, err = run(capsys, "ff", "quadric.par", "--degree", "3")
    assert code == 2
    assert out == ""
    assert "error: unrecognized arguments: --degree 3" in err
    assert "Traceback" not in err


def test_prolong_degree_above_rank_exits_2(capsys):
    code, out, err = run(capsys, "prolong", "epr.sys", "--degree", "4")
    assert code == 2
    assert out == ""
    assert "error: --degree 4 is out of range 1..3" in err


@pytest.mark.parametrize("at,message", [
    ("1e999999", "line 1, col 1: expected a rational number, found '1e999999'"),
    ("1.5", "line 1, col 1: expected a rational number, found '1.5'"),
    ("inf", "line 1, col 1: expected a rational number, found 'inf'"),
    ("1/0", "line 1, col 3: zero denominator"),
    ("-" + "3" * 5000, "line 1, col 1: digit count 5000 exceeds the cap 1000"),
    ("1,2", "line 1, col 1: --at needs 1 coordinates, got 2"),
    ("", "line 1, col 1: --at needs 1 coordinates, got 0"),
])
def test_bad_at_exits_2(capsys, at, message):
    # --at follows the grammar of a .par `at:` line, caps included
    start = time.perf_counter()
    code, out, err = run(capsys, "ff", "cubiccurve.par", "--at=" + at)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_empty_at_is_not_the_default_base_point(capsys):
    for argv in (["--at="], ["--at", ""]):
        code, out, err = run(capsys, "ff", "quadric.par", *argv)
        assert (code, out) == (2, "")
        assert err == "error: line 1, col 1: --at needs 2 coordinates, got 0\n"


def test_implicitize_degree_cap_exits_2(capsys):
    # 8 ambient coordinates: C(47, 40) degree-40 monomials, past MAX_AMBIENT
    start = time.perf_counter()
    code, out, err = run(capsys, "implicitize", "epr.sys", "--degree", "40")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err == ("error: --degree 40: 62891499 monomials of degree 40 in 8 coordinates "
                   "exceed the cap 5000\n")


BAD_FILES = {
    "zero-denominator-at": ("bad.par", b"vars: z\ncoords: z, z^2\nat: 1/0\n",
                            ["ff", "FILE"], "line 3, col 7: zero denominator"),
    "zero-denominator-points": ("pts.txt", b"0, 1, 0\n1/0, 1, 1\n",
                                ["saturated", "epr.sys", "--points", "FILE"],
                                "line 2, col 3: zero denominator"),
    "non-utf8-system": ("bad.sys", b"vars: x1 x2\nrank: 2\nF2: x1\xff*x2\n",
                        ["validate", "FILE"], "line 3, col 7: bad.sys is not UTF-8"),
    "non-utf8-points": ("pts.txt", b"\xfe0, 1, 0\n",
                        ["saturated", "epr.sys", "--points", "FILE"],
                        "line 1, col 1: pts.txt is not UTF-8"),
    "degenerate-everywhere": ("flat.par", b"vars: s t\ncoords: s, s, s^2\n",
                              ["cartan", "FILE"],
                              "could not find enough nondegenerate base points"),
    "rank-cap": ("big.sys", b"vars: x1 x2\nrank: 50000000\n",
                 ["validate", "FILE"], "line 2, col 7: rank 50000000 exceeds the cap 32"),
    "exponent-cap": ("big.sys", b"vars: x1 x2\nrank: 2\nF2: x1^99999999\n",
                     ["report", "FILE"],
                     "line 3, col 8: term degree 99999999 exceeds the cap 64"),
    "term-degree-cap": ("big.par", b"vars: z\ncoords: z^64*z^64, z\n", ["cartan", "FILE"],
                        "line 2, col 13: term degree 128 exceeds the cap 64"),
    "superscript-rank": ("bad.sys", "vars: x1 x2\nrank: \u00b2\n".encode(), ["validate", "FILE"],
                         "line 2, col 7: rank must be a positive integer"),
    "ambient-cap": ("big.sys", b"rank: 3\nvars: " + b" ".join(b"x%d" % i for i in range(40))
                    + b"\n", ["validate", "FILE"],
                    "line 1, col 7: ambient size (forms of degree <= 3 in 40 variables) "
                    "12341 exceeds the cap 5000"),
    "long-numerator": ("big.sys", b"vars: x1 x2\nrank: 2\nF2: " + b"1" * 5000 + b"*x1^2\n",
                       ["validate", "FILE"], "line 3, col 5: digit count 5000 exceeds the cap 1000"),
    "long-denominator": ("big.sys", b"vars: x1 x2\nrank: 2\nF2: 1/" + b"7" * 5000 + b"*x1^2\n",
                         ["validate", "FILE"],
                         "line 3, col 7: digit count 5000 exceeds the cap 1000"),
    "long-component-degree": ("big.sys", b"vars: x1 x2\nrank: 2\nF" + b"1" * 5000 + b": x1\n",
                              ["validate", "FILE"],
                              "line 3, col 2: digit count 5000 exceeds the cap 1000"),
    "long-point": ("pts.txt", b"0, 1, -" + b"3" * 5000 + b"\n",
                   ["saturated", "epr.sys", "--points", "FILE"],
                   "line 1, col 7: digit count 5000 exceeds the cap 1000"),
}


@pytest.mark.parametrize("case", sorted(BAD_FILES))
def test_bad_input_files_exit_2(tmp_path, capsys, case):
    filename, data, argv, message = BAD_FILES[case]
    path = tmp_path / filename
    path.write_bytes(data)
    start = time.perf_counter()
    code, out, err = run(capsys, *[str(path) if a == "FILE" else a for a in argv])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert f"error: {message}" in err
    assert "Traceback" not in err


def test_ff_flex_demonstration(capsys):
    code, out, _ = run(capsys, "ff", "cubiccurve.par")
    assert code == 1
    assert "[info] filtration: dims by vanishing order (1, 1, 0, 1)" in out
    assert "[fail] closure" in out
    code, out, _ = run(capsys, "ff", "cubiccurve.par", "--at", "2")
    assert code == 0
    assert "[pass] closure" in out
    code, out, _ = run(capsys, "ff", "cubiccurve.par", "--at=-3/7")
    assert code == 0
    assert "[info] base-point: (-3/7)" in out


def test_ff_degenerate_chart_names_its_flat_direction(tmp_path, capsys):
    degen = tmp_path / "degen.par"
    degen.write_text("vars: x1 x2\ncoords: x1, x1\n")
    code, out, err = run(capsys, "ff", str(degen))
    assert code == 1
    assert ("[fail] extraction: the first coordinate functions are degenerate at this "
            "base point; flat directions: (0, 1)\n") in out
    assert "Fraction" not in out and err == ""


def test_ff_degenerate_chart_at_a_nonzero_base(tmp_path, capsys):
    # the Jacobian at (1, 5) is [[0, 0], [3, 1]], read from the derivatives there
    degen = tmp_path / "degen.par"
    degen.write_text("vars: z1 z2\ncoords: z1^2 - 2*z1, z2 + z1^3, z1*z2\n")
    code, out, err = run(capsys, "ff", str(degen), "--at=1,5")
    assert code == 1
    assert ("[fail] extraction: the first coordinate functions are degenerate at this "
            "base point; flat directions: (-1/3, 1)\n") in out
    assert err == ""


def test_ff_chart(capsys):
    code, out, _ = run(capsys, "ff", "epr.sys", "--chart")
    assert code == 0
    assert "[info] G2: dim 3 = span(x1^2, x1*x2, x1*x3)" in out


def test_cartan(capsys):
    code, out, _ = run(capsys, "cartan", "quadric.par", "--trials", "3")
    assert code == 0
    assert out.count("[pass] point-") == 3


def test_report_battery(capsys):
    code, out, _ = run(capsys, "report", "triple.sys")
    assert code == 0
    assert "[pass] actions: 10/10 random instances of every action identity exact" in out
    assert "[pass] chart-extraction" in out
    assert "[pass] cartan" in out


@pytest.mark.parametrize("command,runs", [
    ("order", 2), ("saturated", 2), ("report", 2), ("baselocus", 2)])
def test_order_is_computed_once_per_system(monkeypatch, capsys, command, runs):
    # triple.sys has rank 3: `order` prints all three base loci, and the
    # axioms answer F^1 = W*, so it runs on F^2 and F^3; the other commands
    # take the cached order (one run, on F^2) and then saturate F^2: one run
    # in the l_1 frame, which certifies J = I, whose reduced basis is the
    # completion the order already made
    calls = []
    buchberger = eulersym.groebner.buchberger

    def counting(*args, **kwargs):
        calls.append(args)
        return buchberger(*args, **kwargs)

    monkeypatch.setattr(eulersym.groebner, "buchberger", counting)
    code, _, _ = run(capsys, command, "triple.sys")
    assert code == 0
    assert len(calls) == runs


def test_examples_listing_and_printing(capsys):
    code, out, _ = run(capsys, "examples")
    assert code == 0
    for name in ("epr.sys", "quadric.par"):
        assert name in out
    code, out, _ = run(capsys, "examples", "quadric.sys")
    assert code == 0
    assert "F2: x1*x2" in out
    code, _, err = run(capsys, "examples", "nope.sys")
    assert code == 2


def test_json_output(capsys):
    code, out, _ = run(capsys, "order", "quadric.sys", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "order"
    assert doc["result"] == "PASS"
    assert {"status": "info", "tag": "order", "detail": "1"} in doc["entries"]


def test_reports_are_deterministic(capsys):
    first = run(capsys, "report", "quadric.sys")
    second = run(capsys, "report", "quadric.sys")
    assert first == second
    third = run(capsys, "curve-degrees", "triple.sys", "--seed", "9")
    fourth = run(capsys, "curve-degrees", "triple.sys", "--seed", "9")
    assert third == fourth


# The options of every subcommand, as the parser had them before the
# per-command steps moved into `main`.
OPTIONS = {
    "validate": ["-h", "--help", "--json", "file"],
    "prolong": ["-h", "--help", "--json", "file", "--degree"],
    "order": ["-h", "--help", "--json", "file"],
    "baselocus": ["-h", "--help", "--json", "file"],
    "saturated": ["-h", "--help", "--json", "file", "--points"],
    "model": ["-h", "--help", "--json", "file"],
    "act-check": ["-h", "--help", "--json", "file", "--trials", "--seed"],
    "curve-degrees": ["-h", "--help", "--json", "file", "--trials", "--seed"],
    "implicitize": ["-h", "--help", "--json", "file", "--degree"],
    "ff": ["-h", "--help", "--json", "file", "--chart", "--at"],
    "cartan": ["-h", "--help", "--json", "file", "--chart", "--trials", "--seed"],
    "report": ["-h", "--help", "--json", "file", "--seed"],
    "examples": ["-h", "--help", "--json", "name"],
}


def _subparsers():
    parser = build_parser()
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_subcommands_are_the_listed_ones():
    assert sorted(_subparsers()) == sorted(OPTIONS)


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_subcommand_options_and_help(capsys, command):
    sub = _subparsers()[command]
    got = [s for a in sub._actions for s in (a.option_strings or [a.dest])]
    assert got == OPTIONS[command]
    code, out, err = run(capsys, command, "--help")
    assert code == 0
    assert out.startswith(f"usage: eulersym {command}")
    assert err == ""


@pytest.mark.parametrize("command,trials", [
    ("act-check", 20), ("curve-degrees", 40), ("cartan", 5),
])
def test_trials_defaults(command, trials):
    assert build_parser().parse_args([command, "x"]).trials == trials


def test_main_runs_the_handler_bound_in_the_module(monkeypatch, capsys):
    # perfbench's tracer wraps cli.cmd_* in the module namespace; main must
    # look each handler up there when it runs, not hold an earlier reference
    # (after the first traced pass, so against an already built parser)
    seen = []

    def fake(args, report, system):
        seen.append(system.rank)
        report.add("info", "patched", "yes")

    assert run(capsys, "order", "rnc.sys")[0] == 0
    monkeypatch.setattr(eulersym.cli, "cmd_order", fake)
    code, out, _ = run(capsys, "order", "rnc.sys")
    assert code == 0
    assert seen == [3]
    assert "[info] patched: yes" in out
    assert "base-locus" not in out


def test_main_builds_its_parser_once(monkeypatch, capsys):
    calls = [("prolong", "epr.sys", "--degree", "0"),  # argparse rejects it: exit 2
             ("order", "quadric.sys", "--json"),
             ("act-check", "triple.sys", "--seed", "7", "--trials", "2"),
             ("ff", "cubiccurve.par", "--at=2"),
             ("validate", "rnc.sys")]
    lone = []
    for argv in calls:
        eulersym.cli._parser.cache_clear()
        lone.append(run(capsys, *argv))
    assert [code for code, _, _ in lone] == [2, 0, 0, 0, 0]
    assert run(capsys, "model", "epr.sys")[0] == 0  # warm
    built = []
    add_subparsers = argparse.ArgumentParser.add_subparsers

    def counted(self, *args, **kwargs):
        built.append(self.prog)
        return add_subparsers(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counted)
    for _ in range(2):
        for argv, expected in zip(calls, lone):
            assert run(capsys, *argv) == expected
    assert built == []
    eulersym.cli._parser.cache_clear()
    assert run(capsys, *calls[-1]) == lone[-1]
    assert built == ["eulersym"]
