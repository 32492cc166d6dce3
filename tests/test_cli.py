import argparse
import csv
import io
import json
import math
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from nonresidue import cli, explicit_formula as ef
from nonresidue.arith import is_prime
from nonresidue.characters import character_group, primitive_characters
from nonresidue.lfunctions import FINITE_METHOD, HURWITZ_METHOD, SERIES_METHOD, l_at_1, re_b
from nonresidue.cli import (
    CSV_FIELDS,
    EXIT_FAIL,
    EXIT_NOT_FOUND,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    emit_reports,
    exit_code,
    main,
)
from nonresidue.bounds import BoundReport

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_main(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_exit_code_aggregation():
    ok = BoundReport("f", 1, "t", 1.0, 2.0, 1.0, True, "pass")
    na = BoundReport("f", 1, "t", 1.0, 2.0, 1.0, False, "not-applicable")
    nf = BoundReport("f", 1, "t", None, 2.0, None, True, "not-found")
    bad = BoundReport("f", 1, "t", 3.0, 2.0, -1.0, True, "fail")
    assert exit_code([ok, na]) == EXIT_OK
    assert exit_code([ok, nf]) == EXIT_NOT_FOUND
    assert exit_code([ok, nf, bad]) == EXIT_FAIL


def test_scan_qnr_csv():
    code, out = run_main(["scan", "qnr", "--qmin", "5", "--qmax", "50", "--format", "csv"])
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "formula_id,q,target,measured,bound,margin,applicable,verdict"
    assert all(line.endswith("pass") for line in lines[1:])
    assert len(lines) == 1 + 13  # primes in [5, 50]


def test_scan_json_lines():
    code, out = run_main(["scan", "ap", "--qmin", "4", "--qmax", "12", "--format", "json"])
    assert code == EXIT_OK
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert all(r["verdict"] == "pass" for r in rows)
    assert {r["q"] for r in rows} == set(range(4, 13))


def test_scan_not_found_exit_status():
    code, out = run_main(
        ["scan", "ap", "--q", "7", "--ceiling", "10", "--format", "csv", "--per-class"]
    )
    assert code == EXIT_NOT_FOUND
    assert "not-found" in out


def test_usage_errors():
    assert main(["scan", "qnr"]) == EXIT_USAGE  # no range
    assert main(["nonsense"]) == EXIT_USAGE
    assert main(["lemma", "2.2", "--x", "100"]) == EXIT_USAGE  # missing --q
    # a range starting below 0 is the value of --q, not an unknown option
    code, out = run_main(["scan", "qnr", "--q", "-5..10", "--format", "csv"])
    assert (code, out) == run_main(["scan", "qnr", "--q=-5..10", "--format", "csv"])
    assert code == EXIT_OK
    assert [line.split(",")[1] for line in out.strip().splitlines()[1:]] == ["5", "7"]


@pytest.mark.parametrize("spec", ["powers:abc", "powers:", "powers:2,3", "gens:", "gens:2,x", "cubes"])
def test_malformed_subgroup_specs_are_usage_errors(spec, capsys):
    code, out = run_main(["scan", "subgroup", "--q", "3000", "--subgroup", spec, "--format", "csv"])
    assert code == EXIT_USAGE and out == ""
    err = capsys.readouterr().err
    assert f"unknown subgroup spec {spec!r}: expected squares | powers:K | gens:a,b | trivial" in err


@pytest.mark.parametrize("spec, g", [("gens:7", 7), ("gens:3,14", 14)])
def test_non_unit_generator_is_named_as_given(spec, g, capsys):
    code, out = run_main(["scan", "subgroup", "--q", "7", "--subgroup", spec, "--format", "csv"])
    assert code == EXIT_USAGE and out == ""
    assert f"generator {g} is not a unit mod 7" in capsys.readouterr().err


def test_eval_commands():
    code, out = run_main(["eval", "alpha", "--h", "2", "--format", "csv"])
    assert code == EXIT_OK and "0.42" in out
    code, out = run_main(["eval", "cor16", "--q", "1e11", "--format", "csv"])
    assert code == EXIT_OK
    assert "9052" in out
    code, out = run_main(["eval", "thm11", "--q", "3001", "--format", "csv"])
    assert code == EXIT_OK and "thm11" in out


def test_kernel_command():
    code, out = run_main(
        ["kernel", "fejer", "--alpha", "1", "--l1", "--weighted", "1", "--format", "csv"]
    )
    assert code == EXIT_OK
    assert "2.0" in out  # l1 = 2 alpha
    code, out = run_main(["kernel", "gamma", "--l1", "--format", "csv"])
    assert "0.291" in out
    code, out = run_main(["kernel", "gamma", "--mellin", "1.0", "--format", "csv"])
    assert code == EXIT_OK and "pass" in out
    code, out = run_main(["kernel", "fejer", "--l1", "--optimize", "--h", "2", "--format", "csv"])
    values = [float(line.split(",")[4]) for line in out.splitlines()[1:]]  # no np.float64(...) text
    assert code == EXIT_OK and len(values) == 3 and abs(values[0] - 2.0) < 1e-8


def test_gamma_mellin_check_at_extreme_u():
    for u in ("1e300", "1e-300"):
        code, out = run_main(["kernel", "gamma", "--mellin", u, "--format", "csv"])
        assert code == EXIT_OK and out.splitlines()[1].endswith(",pass"), u


def test_kernel_flags_reject_nan_and_nonpositive_values(capsys):
    for argv, reason in (
        (["kernel", "gamma", "--weighted", "nan"], "--weighted: not a number > 0 or inf"),
        (["kernel", "gamma", "--weighted", "0"], "--weighted: not a number > 0 or inf"),
        (["kernel", "fejer", "--alpha", "nan", "--l1"], "--alpha: not a finite number > 0"),
        (["kernel", "fejer", "--alpha", "inf", "--l1"], "--alpha: not a finite number > 0"),
        (["kernel", "fejer", "--alpha", "-1", "--l1"], "--alpha: not a finite number > 0"),
        (["kernel", "gamma", "--prop62", "--lam", "nan"], "--lam: not a number > 0 or inf"),
        (["kernel", "gamma", "--prop62", "--lam", "-2"], "--lam: not a number > 0 or inf"),
        (["kernel", "gamma", "--mellin", "nan"], "--mellin: not a finite number > 0"),
        (["kernel", "gamma", "--mellin", "inf"], "--mellin: not a finite number > 0"),
        (["kernel", "gamma", "--mellin", "0"], "--mellin: not a finite number > 0"),
        (["kernel", "gamma", "--mellin", "-1"], "--mellin: not a finite number > 0"),
    ):
        code, out = run_main(argv + ["--format", "csv"])
        assert code == EXIT_USAGE and out == "", argv
        assert reason in capsys.readouterr().err, argv
    code, out = run_main(["kernel", "gamma", "--weighted", "oo", "--format", "csv"])
    assert code == EXIT_OK and "gamma:W(inf),,1.7724538509" in out


def fmt_cell(v) -> str:
    """The CSV cell rule: "" for None, true/false for a bool, repr for a
    float, str for anything else.  A numpy float is written as the plain
    float it holds, never as its repr `np.float64(...)`."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def test_csv_cells_follow_the_cell_rule():
    reports = [
        BoundReport("cor16", 10**11, "h-lower", None, 1.5, None, False, "not-applicable"),
        BoundReport("cor12", 1009, "least qnr", 11, 25.3, 14.3, True, "pass"),
        BoundReport("cor15", 7, "a=3", None, 12.0, None, True, "not-found"),
        BoundReport("thm11", 13, "gens:2,3", -0.0, math.inf, 1e-300, True, "fail"),
        BoundReport("kernel", 0, 'say "hi"', np.float64(0.1), np.float64(-2.5e-17), -math.inf, False, "pass"),
    ]
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    for r in reports:
        writer.writerow([fmt_cell(getattr(r, f)) for f in ("formula", *CSV_FIELDS[1:])])
    got = io.StringIO()
    emit_reports(reports, "csv", got)
    assert got.getvalue() == expected.getvalue()
    assert got.getvalue().splitlines()[2] == "cor12,1009,least qnr,11,25.3,14.3,true,pass"


def test_reproduce_quick_cells_are_plain_numbers():
    code, out = run_main(["reproduce-paper", "--quick", "--format", "csv"])
    assert code == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) > 1000
    for row in rows:
        for field in ("q", "measured", "bound", "margin"):
            if row[field]:
                float(row[field])  # a bool cell would be written True and fail here


def test_lemma_command():
    code, out = run_main(["lemma", "2.1", "--x", "1e4,1e6", "--format", "csv"])
    assert code == EXIT_OK
    assert out.count("pass") == 2
    code, out = run_main(["lemma", "3.1", "--m", "30", "--x", "100", "--format", "csv"])
    assert code == EXIT_OK and out.count("pass") == 2
    code, out = run_main(["lemma", "2.3", "--q", "5", "--x", "100", "--format", "csv"])
    assert code == EXIT_OK and "pass" in out


def test_lvalue_and_classnum_commands():
    code, out = run_main(["lvalue", "--q", "5", "--format", "csv"])
    assert code == EXIT_OK and "agree" in out
    # |L(1, chi)| is a reported value, so it sits in the bound column
    values = [r for r in csv.DictReader(io.StringIO(out)) if r["target"].endswith(":hurwitz-euler-maclaurin")]
    assert len(values) == 3
    assert all(r["measured"] == "" and float(r["bound"]) > 0 and r["verdict"] == "not-applicable" for r in values)
    code, out = run_main(["classnum", "--q", "163", "--format", "csv"])
    assert code == EXIT_OK and "pass" in out


def test_lemma31_command_writes_the_checklist_rows():
    code, out = run_main(["lemma", "3.1", "--m", "30", "--x", "10,100", "--format", "csv"])
    assert code == EXIT_OK
    (check,) = [c for c in cli.CHECKS if c.id == "lemma31"]
    checklist = io.StringIO()
    emit_reports([r for r in check.run("quick", 1) if r.q == 30], "csv", checklist)
    assert out == checklist.getvalue()
    assert [line.split(",")[2] for line in out.splitlines()[1:]] == [
        "x=10:log-weighted", "x=10:harmonic", "x=100:log-weighted", "x=100:harmonic"
    ]


@pytest.mark.parametrize("variant", ["subgroup", "subgroup-clean"])
def test_subgroup_scan_writes_not_applicable_where_h_is_the_whole_group(variant):
    # the cubes are all of (Z/3000Z)*: no prime 1 mod 3 divides 3000, nor does 9
    code, out = run_main(["scan", variant, "--q", "3000..3100", "--subgroup", "powers:3", "--format", "csv"])
    assert code == EXIT_OK
    rows = {r["q"]: r for r in csv.DictReader(io.StringIO(out))}
    assert len(rows) == 101
    whole = rows["3000"]
    assert (whole["target"], whole["measured"], whole["margin"]) == ("outside:powers:3", "", "")
    assert (whole["applicable"], whole["verdict"]) == ("false", "not-applicable")
    assert float(whole["bound"]) > 0
    assert rows["3001"]["verdict"] == "pass"  # 3 | 3000 = phi(3001)


@pytest.mark.parametrize(
    "argv",
    [
        ["lemma", "3.1", "--m", "6", "--x", "1e20"],
        ["lemma", "2.1", "--x", "nan"],
        ["lemma", "2.1", "--x", "inf"],
        ["lemma", "2.3", "--q", "5", "--x", "1e300"],
    ],
)
def test_prime_power_sums_refuse_x_at_or_above_2_53(argv, capsys):
    # the walk is exact only below 2^53: beyond it, a usage error before any work
    code, out = run_main([*argv, "--format", "csv"])
    assert (code, out) == (EXIT_USAGE, "")
    assert "2^53" in capsys.readouterr().err


def test_json_output_deterministic_and_parsable():
    args = ["scan", "qnr", "--qmin", "5", "--qmax", "200", "--format", "json"]
    code1, out1 = run_main(args)
    code2, out2 = run_main(args)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    rows = [json.loads(line) for line in out1.strip().splitlines()]
    assert all(set(r) == {"formula_id", "q", "target", "measured", "bound", "margin", "applicable", "verdict"} for r in rows)


def test_verify_stream_unknown_formula():
    import pytest
    from nonresidue.bounds import verify_stream

    # also over an empty range: the formula is checked before the first q
    for qs in ([10], [], range(5, 5)):
        with pytest.raises(ValueError, match="unknown formula 'nope'"):
            list(verify_stream("nope", qs))


def _sub_parsers(parser: argparse.ArgumentParser) -> dict:
    """parser's sub-parsers by name, or {} when it takes none."""
    return next((a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)), {})


def test_readme_synopsis_names_exactly_the_parsed_commands():
    # the fenced block under "## CLI": one line per command or variant,
    # a {a,b} group standing for each of its variants
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```\n", 2)[1]
    named = set()
    for line in block.splitlines():
        prog, command, word, *_ = line.split() + [""]
        assert prog == "nonresidue", line
        variants = word.strip("{}").split(",") if word[:1] not in ("-", "[", "(") else [None]
        named.update((command, v) for v in variants)
    accepted = {(c, v) for c, p in _sub_parsers(build_parser()).items() for v in (_sub_parsers(p) or [None])}
    assert named == accepted


def test_scan_deterministic_bytes(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        code = main(
            ["scan", "classnum", "--qmin", "5", "--qmax", "200", "--format", "csv", "--out", str(path)]
        )
        assert code == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_worker_count_does_not_change_bytes(tmp_path):
    one = tmp_path / "w1.csv"
    many = tmp_path / "w8.csv"
    base = ["scan", "qnr", "--qmin", "5", "--qmax", "400", "--format", "csv"]
    assert main(base + ["--workers", "1", "--out", str(one)]) == EXIT_OK
    assert main(base + ["--workers", "8", "--out", str(many)]) == EXIT_OK
    assert one.read_bytes() == many.read_bytes()


def test_blas_thread_count_does_not_change_classnum_bytes():
    # Each process fixes its OpenBLAS thread count at start-up.  A class
    # formula summed in floats by a BLAS dot product follows that count in
    # its summation order, which moved the margins of q = 20003, 20004,
    # 20008 and 20011.  On a one-CPU host OpenBLAS may cap both runs at one
    # thread, and this test then compares like with like.
    outs = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "nonresidue", "scan", "classnum", "--q", "20003..20011", "--format", "csv"],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin", "OPENBLAS_NUM_THREADS": threads},
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert outs[0].count(",0.0,true,pass") == 4


def test_console_entry_point_subprocess():
    for module in ("nonresidue.cli", "nonresidue"):
        proc = subprocess.run(
            [sys.executable, "-m", module, "eval", "alpha", "--h", "3", "--format", "csv"],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, (module, proc.stderr)
        assert "0.49" in proc.stdout


def test_classnum_rejects_missing_or_non_fundamental_q(capsys):
    code, out = run_main(["classnum", "--format", "csv"])
    assert code == EXIT_USAGE and out == ""
    assert "one of the arguments --q --qmax is required" in capsys.readouterr().err
    for q in ("12", "4", "3"):
        code, out = run_main(["classnum", "--q", q, "--format", "csv"])
        assert code == EXIT_USAGE, q
        assert out == ""
        assert f"fundamental discriminant; there is none in {q}..{q}" in capsys.readouterr().err
    code, out = run_main(["classnum", "--q", "-3", "--format", "csv"])
    assert code == EXIT_USAGE and out == ""
    err = capsys.readouterr().err
    assert "there is none in -3..-3" in err and "--3" not in err
    # a range scan still skips non-fundamental q without complaint
    code, out = run_main(["scan", "classnum", "--q", "8..12", "--format", "csv"])
    assert code == EXIT_OK
    assert [line.split(",")[1] for line in out.strip().splitlines()[1:]] == ["8", "11"]


def test_classnum_above_the_modulus_ceiling_is_a_usage_error(capsys):
    # 10000019 is prime and -q fundamental: the ceiling stops it before any array
    code, out = run_main(["classnum", "--q", "10000019", "--format", "csv"])
    assert code == EXIT_USAGE and out == ""
    assert "error: q=10000019 exceeds the ceiling 10000000" in capsys.readouterr().err


def test_integer_flags_are_parsed_exactly(capsys):
    big = "100000000000000003"  # prime; its float is 10^17
    code, out = run_main(["scan", "qnr", "--q", big, "--format", "csv"])
    assert code == EXIT_OK
    assert out.splitlines()[1].startswith(f"cor12,{big},qnr,2,")
    code, out = run_main(["eval", "thm11", "--q", big, "--format", "csv"])
    assert code == EXIT_OK
    assert out.splitlines()[1].split(",")[1] == big
    code, out = run_main(["scan", "qnr", "--qmin", "1e5", "--qmax", "100010", "--format", "csv"])
    assert code == EXIT_OK
    assert [line.split(",")[1] for line in out.strip().splitlines()[1:]] == ["100003"]
    for argv in (["scan", "qnr", "--q", "1.5"], ["scan", "qnr", "--q", "5..1e1.5"], ["eval", "thm11", "--q", "1.5"]):
        assert main(argv) == EXIT_USAGE, argv
        assert "not an integer" in capsys.readouterr().err


def test_flags_a_command_ignores_are_rejected(capsys):
    for argv, flag in (
        (["classnum", "--q", "23", "--ceiling", "10"], "--ceiling"),
        (["eval", "alpha", "--h", "2", "--tolerance", "1e-3"], "--tolerance"),
        (["kernel", "gamma", "--l1", "--ceiling", "10"], "--ceiling"),
        (["scan", "subgroup", "--q", "3001", "--tolerance", "1e-3"], "--tolerance"),
        (["scan", "qnr", "--q", "23", "--ceiling", "100"], "--ceiling"),
        (["scan", "classnum", "--q", "23", "--ceiling", "100"], "--ceiling"),
        (["scan", "elementary", "--q", "23", "--ceiling", "100"], "--ceiling"),
    ):
        code, out = run_main(argv)
        assert code == EXIT_USAGE and out == "", argv
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err, argv
    assert main(["scan", "ap", "--q", "7", "--ceiling", "10.5"]) == EXIT_USAGE
    code, out = run_main(["scan", "ap", "--q", "7", "--ceiling", "1e1", "--format", "csv"])
    assert code == EXIT_NOT_FOUND and "not-found" in out


def test_moduli_at_or_above_2_63_are_usage_errors(capsys):
    too_big = str(2**63)
    for argv in (
        ["scan", "qnr", "--q", "18446744073709551629"],  # a prime near 2^64
        ["scan", "qnr", "--q", f"5..{too_big}"],
        ["scan", "ap", "--qmin", "5", "--qmax", too_big],
        ["scan", "ap", "--qmin", too_big, "--qmax", "1e19"],
        ["eval", "thm11", "--q", "1e19"],
        ["lemma", "3.1", "--m", too_big, "--x", "100"],
        ["lvalue", "--q", too_big],
        ["classnum", "--q", too_big],
    ):
        code, out = run_main(argv + ["--format", "csv"])
        assert code == EXIT_USAGE and out == "", argv
        assert "not below 2^63" in capsys.readouterr().err, argv
    code, out = run_main(["eval", "thm11", "--q", str(2**63 - 25), "--format", "csv"])  # largest prime below 2^63
    assert code == EXIT_OK and out.splitlines()[1].split(",")[1] == str(2**63 - 25)


def test_h_parsed_once_for_eval_and_kernel(capsys):
    code, out = run_main(["eval", "thm14", "--q", "20001", "--h", "inf", "--format", "csv"])
    assert code == EXIT_USAGE and out == ""
    assert "thm14 needs a finite --h" in capsys.readouterr().err
    for h in ("inf", "oo"):
        code, out = run_main(["eval", "largeh", "--h", h, "--format", "csv"])
        assert code == EXIT_OK
        assert out.splitlines()[1].split(",")[4] == "0.25"
    code, out = run_main(["eval", "thm14", "--q", "20001", "--h", "2e0", "--format", "csv"])
    assert code == EXIT_OK and "at h=2," in out
    code, out = run_main(["kernel", "gamma", "--prop62", "--h", "inf", "--lam", "3.9", "--format", "csv"])
    assert code == EXIT_OK and "h=inf" in out
    for argv in (["eval", "alpha", "--h", "2.5"], ["kernel", "gamma", "--optimize", "--h", "x"]):
        assert main(argv) == EXIT_USAGE, argv
        assert "not an integer" in capsys.readouterr().err


def test_eval_thm14_requires_h(capsys):
    code, out = run_main(["eval", "thm14", "--q", "20001", "--format", "csv"])
    assert code == EXIT_USAGE and out == ""
    assert "the following arguments are required: --h" in capsys.readouterr().err
    for h in ("1", "0"):
        code, out = run_main(["eval", "thm14", "--q", "20001", "--h", h, "--format", "csv"])
        assert code == EXIT_USAGE and out == ""
        assert "index h must be at least 2" in capsys.readouterr().err
    code, out = run_main(["eval", "thm14", "--q", "20001", "--h", "2", "--format", "csv"])
    assert code == EXIT_OK and out.splitlines()[1].startswith("thm14,20001,")


def test_runs_with_nothing_to_check_are_usage_errors(capsys):
    for argv, reason in (
        (["lemma", "2.2", "--q", "5"], "lemma 2.2: error: the following arguments are required: --x"),
        (["lemma", "2.1"], "lemma 2.1: error: the following arguments are required: --x"),
        (["lemma", "3.1", "--m", "30"], "lemma 3.1: error: the following arguments are required: --x"),
        (["lemma", "5.1", "--q", "5", "--x", ""], "argument --x: not a comma separated list of numbers: ''"),
        (["lemma", "2.3", "--x", "100"], "lemma 2.3: error: the following arguments are required: --q"),
        (["lemma", "5.1", "--x", "100"], "lemma 5.1: error: the following arguments are required: --q"),
        (["lemma", "3.1", "--x", "100"], "lemma 3.1: error: the following arguments are required: --m"),
        (["lvalue", "--q", "1"], "no primitive character mod 1"),
        (["lvalue", "--q", "2"], "no primitive character mod 2"),
        (["lvalue", "--q", "6"], "no primitive character mod 6"),
        (["lemma", "2.2", "--q", "6", "--x", "100"], "no primitive character mod 6"),
        (["scan", "qnr", "--q", "0..3"], "prime q >= 5; there is none in 0..3"),
        (["scan", "qnr", "--qmin", "8", "--qmax", "10"], "there is none in 8..10"),
        (["scan", "classnum", "--q", "9..10"], "fundamental discriminant; there is none in 9..10"),
    ):
        code, out = run_main(argv + ["--format", "csv"])
        assert code == EXIT_USAGE, argv
        assert out == "", argv
        assert reason in capsys.readouterr().err, argv


# Each variant with a valid invocation of it and the flags it would ignore
# that another variant of the command reads: 63 pairs (scan 10, eval 19,
# lemma 30, kernel 3, lvalue 1).
_UNREAD = {
    **{("scan", v): (["--q", "23"], ["--subgroup gens:2", "--per-class"]) for v in ("qnr", "classnum", "elementary")},
    ("scan", "ap"): (["--q", "23"], ["--subgroup gens:2"]),
    **{("scan", v): (["--q", "23"], ["--per-class"]) for v in ("subgroup", "subgroup-clean", "coset")},
    **{("eval", v): (["--q", "3001"], ["--h 3", "--workers 2"]) for v in ("thm11", "thm12", "cor15", "thm15", "cor16", "sec43")},
    ("eval", "thm14"): (["--q", "20001", "--h", "2"], ["--workers 2"]),
    **{("eval", v): (["--h", "2"], ["--q 7", "--workers 2"]) for v in ("alpha", "limit", "largeh")},
    **{("lemma", v): (["--x", "100"], ["--q 7", "--m 30", "--grid 3", "--workers 2"]) for v in ("2.1", "2.4", "2.6")},
    **{("lemma", v): (["--x", "100", "--q", "5"], ["--m 30", "--grid 3", "--workers 2"]) for v in ("2.2", "2.3", "2.5", "5.1")},
    ("lemma", "3.1"): (["--x", "100", "--m", "30"], ["--q 7", "--grid 3", "--workers 2"]),
    ("lemma", "trig"): ([], ["--q 7", "--m 30", "--workers 2"]),
    ("kernel", "gamma"): (["--l1"], ["--alpha 3", "--workers 2"]),
    ("kernel", "fejer"): (["--l1"], ["--workers 2"]),
    ("lvalue",): (["--q", "5"], ["--workers 2"]),
}
_UNREAD_PAIRS = [(list(cmd), base, flag.split()) for cmd, (base, flags) in _UNREAD.items() for flag in flags]


@pytest.mark.parametrize(
    "cmd, base, flag", _UNREAD_PAIRS, ids=[" ".join(c + f[:1]) for c, _, f in _UNREAD_PAIRS]
)
def test_every_flag_a_variant_would_ignore_is_a_usage_error(cmd, base, flag, capsys):
    build_parser().parse_args(cmd + base)  # the variant's own flags parse
    code, out = run_main(cmd + base + flag)
    assert code == EXIT_USAGE and out == ""
    assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["reproduce-paper", "--quick", "--full"], "--full"),
        (["kernel", "gamma", "--l1", "--h", "3"], "--h"),
        (["kernel", "gamma", "--optimize", "--lam", "5"], "--lam"),
    ],
)
def test_flags_read_only_with_another_are_usage_errors(argv, flag, capsys):
    code, out = run_main(argv)
    assert code == EXIT_USAGE and out == ""
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("q", ["0", "2", "101", "3001"])
def test_eval_and_scan_agree_on_thm12_applicability(q, capsys):
    for argv in (["eval", "thm12"], ["scan", "subgroup-clean"]):
        code, out = run_main(argv + ["--q", q, "--format", "csv"])
        if int(q) < 3:
            assert code == EXIT_USAGE and out == "", argv
            assert "error: q >= 3 required" in capsys.readouterr().err, argv
        else:
            assert code == EXIT_OK, argv
            assert out.splitlines()[1].split(",")[6] == ("true" if q == "3001" else "false"), argv


def test_options_follow_the_variant():
    assert main(["scan", "--q", "7", "qnr"]) == EXIT_USAGE
    assert run_main(["scan", "qnr", "--q", "7", "--format", "csv"])[0] == EXIT_OK


def test_q_excludes_qmin_and_qmax(capsys):
    for extra in (["--qmin", "5", "--qmax", "100"], ["--qmin", "5"], ["--qmax", "100"]):
        code, out = run_main(["scan", "qnr", "--q", "7", *extra, "--format", "csv"])
        assert code == EXIT_USAGE and out == "", extra
        assert "pass one of --q Q, --q A..B, or --qmin A --qmax B" in capsys.readouterr().err
    # classnum --qmax N is the range 5..N, and takes no --qmin
    assert run_main(["classnum", "--qmax", "200", "--format", "csv"]) == run_main(
        ["scan", "classnum", "--qmin", "5", "--qmax", "200", "--format", "csv"]
    )
    code, out = run_main(["classnum", "--qmax", "200", "--qmin", "7"])
    assert code == EXIT_USAGE and out == ""
    assert "unrecognized arguments: --qmin" in capsys.readouterr().err
    code, out = run_main(["classnum", "--qmax", "6", "--format", "csv"])
    assert code == EXIT_USAGE and out == ""
    assert "there is none in 5..6" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["scan", "qnr", "--q", "5..50"], ["classnum", "--q", "163"], ["reproduce-paper", "--quick"]],
    ids=["scan", "classnum", "reproduce-paper"],
)
@pytest.mark.parametrize("workers", ["0", "-3", "1.5"])
def test_workers_below_one_are_usage_errors(argv, workers, capsys):
    code, out = run_main(argv + ["--workers", workers, "--format", "csv"])
    assert code == EXIT_USAGE and out == ""
    assert "--workers" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["0", "1", "2", "-5"])
def test_trig_grid_below_three_is_a_usage_error(grid, capsys):
    # 1 or 2 points are {0} or {0, 2 pi}, where the polynomial is 0 by construction
    code, out = run_main(["lemma", "trig", "--grid", grid, "--format", "csv"])
    assert code == EXIT_USAGE and out == ""
    assert "--grid: not an integer >= 3" in capsys.readouterr().err


@pytest.mark.parametrize("x", ["nan", "inf", "99"])
def test_trig_x_must_be_finite_and_at_least_100(x, capsys):
    code, out = run_main(["lemma", "trig", "--x", x, "--format", "csv"])
    assert code == EXIT_USAGE and out == ""
    assert f"x = {x} must be a finite number >= 100" in capsys.readouterr().err


def test_trig_grid_is_an_exact_integer():
    code, out = run_main(["lemma", "trig", "--grid", "1e3", "--format", "csv"])
    assert code == EXIT_OK and (code, out) == run_main(["lemma", "trig", "--grid", "1000", "--format", "csv"])


class _FakePool:
    """Stands in for ProcessPoolExecutor: records max_workers and maps in
    this process, so no process starts."""

    started: list[int] = []
    mapped: list[list] = []

    def __init__(self, max_workers):
        self.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        items = list(items)
        self.mapped.append(items)
        return map(fn, items)


def test_scan_pool_is_no_larger_than_cpus_or_moduli(monkeypatch):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _FakePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    _FakePool.started.clear()
    qs = [5, 7, 11, 13, 17, 19]
    serial = cli.run_scan("cor12", qs)
    assert _FakePool.started == []
    for workers, qs_, started in ((10**6, qs, 3), (2, qs, 2), (10**6, qs[:4], 3), (10**6, qs[:3], None)):
        _FakePool.started.clear()
        assert cli.run_scan("cor12", qs_, workers=workers) == serial[: len(qs_)]
        assert _FakePool.started == ([] if started is None else [started]), (workers, qs_)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    _FakePool.started.clear()
    cli.run_scan("cor12", qs[:5], workers=10**6)
    assert _FakePool.started == [5]


@pytest.mark.parametrize("qs", [range(5, 3001), list(range(5, 300))])
def test_scan_pool_maps_contiguous_slices(monkeypatch, qs):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _FakePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    serial = cli.run_scan("cor12", qs)
    _FakePool.mapped.clear()
    assert cli.run_scan("cor12", qs, workers=2) == serial
    (items,) = _FakePool.mapped
    # slices of qs in order, not one item per modulus
    assert len(items) < len(qs) and all(type(part) is type(qs) for part in items)
    assert [q for part in items for q in part] == list(qs)


def test_serial_scan_is_one_verify_stream_call(monkeypatch):
    calls = []
    stream = cli.bounds.verify_stream

    def counted(*args, **kwargs):
        calls.append(args)
        return stream(*args, **kwargs)

    monkeypatch.setattr(cli.bounds, "verify_stream", counted)
    rows = cli.run_scan("cor12", range(5, 3001))
    assert len(calls) == 1
    assert [r.q for r in rows] == [q for q in range(5, 3001) if is_prime(q)]


# ----------------------------------------------------------------------
# Branches no other test runs: each case's rows are computed here from
# the library, as (target, verdict) pairs in output order
# ----------------------------------------------------------------------


def _twisted_expected(lemma: str, q: int, xs: list[float]) -> list[tuple[str, str]]:
    """Lemma 2.2, 2.3 or 2.5 mod q, built per character from the per-row
    functions; also checks that cli.sec2_rows gives the same rows."""
    want = []  # (formula, target, measured, verdict)
    for chi in primitive_characters(q):
        rb, logl = re_b(chi), math.log(abs(l_at_1(chi).value))
        for x in xs:
            target = f"x={x:g}:{chi.label}"
            if lemma == "2.3":
                win = ef.hadamard_window(x, chi)
                want.append(("lemma2.3", target, rb, "pass" if win.contains(rb) else "fail"))
                continue
            if lemma == "2.2":
                rep = ef.character_log_residual(x, chi, rb)
            else:
                rep = ef.log_l_residual(x, chi, rb, logl)
            want.append((f"lemma{lemma}", target, abs(rep.theta), "pass" if abs(rep.theta) <= 1 else "fail"))
    got = [(r.formula, r.target, r.measured, r.verdict) for r in cli.sec2_rows(q, xs, (lemma,))]
    assert got == want
    return [(target, verdict) for _, target, _, verdict in want]


def _lvalue_expected(q: int, index: int | None = None) -> list[tuple[str, str]]:
    rows = []
    for chi in primitive_characters(q):
        if index is not None and chi.index != index:
            continue
        base = l_at_1(chi, HURWITZ_METHOD).value
        rows.append((f"{chi.label}:{HURWITZ_METHOD}", "not-applicable"))
        rows.append((f"{chi.label}:agree", "pass" if abs(base - l_at_1(chi, SERIES_METHOD).value) < 1e-8 else "fail"))
        if chi.is_real and chi.parity == 1:
            rows.append((f"{chi.label}:{FINITE_METHOD}", "pass" if abs(base - l_at_1(chi, FINITE_METHOD).value) < 1e-10 else "fail"))
    return rows


def _elementary_expected(q: int) -> list[tuple[str, str]]:
    """The sec43 rows of q, in the order eval writes them; stated for q > 20000."""
    phi = sum(math.gcd(a, q) == 1 for a in range(1, q + 1))
    omega = sum(1 for p in range(2, q + 1) if q % p == 0 and is_prime(p))
    checks = {"phi>=4156": phi >= 4156, "2^omega<=q^(3/7)": 2**omega <= q ** (3 / 7), "phi>=q^(5/6)": phi >= q ** (5 / 6)}
    return [(t, ("pass" if ok else "fail") if q > 20000 else "not-applicable") for t, ok in checks.items()]


# (argv, format, exit code, expected rows or the stderr text of a usage error)
_BRANCHES = {
    "human-format": (["eval", "limit", "--h", "3"], "human", EXIT_OK, lambda: [("((h-1)/(2h-1))^2 at h=3", "not-applicable")]),
    "human-margins": (["lemma", "5.1", "--q", "5", "--x", "100"], "human", EXIT_OK,
                      lambda: [(f"x=100:{chi.label}", "pass") for chi in character_group(5)]),
    "eval-cor15": (["eval", "cor15", "--q", "101"], "csv", EXIT_OK, lambda: [("(phi(q) log q)^2", "not-applicable")]),
    "eval-thm15": (["eval", "thm15", "--q", "1000"], "csv", EXIT_OK, lambda: [
        ("2e^g(loglog q - log2 + 1/2 + 1/loglog q)", "not-applicable"),
        ("12e^g/pi^2 (... + 14 loglog q/log q) for 1/|L|", "not-applicable"),
    ]),
    "eval-sec43": (["eval", "sec43", "--q", "20001"], "csv", EXIT_OK, lambda: _elementary_expected(20001)),
    "eval-limit": (["eval", "limit", "--h", "inf"], "csv", EXIT_OK, lambda: [("((h-1)/(2h-1))^2 at h=inf", "not-applicable")]),
    "kernel-k-half": (["kernel", "gamma", "--k-half"], "csv", EXIT_OK, lambda: [("gamma:K(1/2)", "not-applicable")]),
    "kernel-nothing": (["kernel", "gamma"], "csv", EXIT_USAGE, "error: nothing requested"),
    "lemma-2.2": (["lemma", "2.2", "--q", "7", "--x", "50,1e3"], "csv", EXIT_OK, lambda: _twisted_expected("2.2", 7, [50.0, 1e3])),
    "lemma-2.3": (["lemma", "2.3", "--q", "12", "--x", "50,1e4"], "csv", EXIT_OK, lambda: _twisted_expected("2.3", 12, [50.0, 1e4])),
    "lemma-2.5": (["lemma", "2.5", "--q", "40", "--x", "50,1e3"], "csv", EXIT_OK, lambda: _twisted_expected("2.5", 40, [50.0, 1e3])),
    "lemma-5.1": (["lemma", "5.1", "--q", "8", "--x", "100,1e3"], "csv", EXIT_OK,
                  lambda: [(f"x={x:g}:{chi.label}", "pass") for chi in character_group(8) for x in (100.0, 1e3)]),
    "lvalue-index": (["lvalue", "--q", "13", "--index", "6"], "csv", EXIT_OK, lambda: _lvalue_expected(13, 6)),
    "lvalue-missing-index": (["lvalue", "--q", "13", "--index", "99"], "csv", EXIT_USAGE, "no primitive character with index 99 mod 13"),
    "lvalue-index-1e0": (["lvalue", "--q", "13", "--index", "1e0"], "csv", EXIT_OK, lambda: _lvalue_expected(13, 1)),
    "lvalue-negative-index": (["lvalue", "--q", "13", "--index", "-1"], "csv", EXIT_USAGE, "no primitive character with index -1 mod 13"),
    "lvalue-finite-formula": (["lvalue", "--q", "7"], "csv", EXIT_OK, lambda: _lvalue_expected(7)),
    "scan-elementary": (["scan", "elementary", "--q", "20000..20002"], "csv", EXIT_OK,
                        lambda: [row for q in range(20000, 20003) for row in sorted(_elementary_expected(q))]),  # a scan sorts by target
    "empty-range": (["scan", "qnr", "--q", "10..5"], "csv", EXIT_USAGE, "error: empty q range"),
    "integer-flag-1e40": (["scan", "ap", "--q", "7", "--ceiling", "1e40"], "csv", EXIT_USAGE, "not an integer below 1e40: '1e40'"),
    # no prime lies below 2, so a lower ceiling could only print not-found rows
    "ceiling-1": (["scan", "coset", "--q", "7", "--ceiling", "1"], "csv", EXIT_USAGE, "--ceiling: not an integer >= 2: '1'"),
    "ceiling-minus-5": (["scan", "ap", "--q", "7", "--ceiling", "-5"], "csv", EXIT_USAGE, "--ceiling: not an integer >= 2: '-5'"),
}


def _human_cells(line: str) -> list[str]:
    """The cells of a human table line: padded to fixed widths, two spaces apart."""
    cells, at = [], 0
    for width in (10, 12, 28, 22, 22, 14, 6, 14):
        cells.append(line[at : at + width].rstrip())
        at += width + 2
    return cells


def _target_verdicts(out: str, fmt: str) -> list[tuple[str, str]]:
    if fmt == "csv":
        return [(r["target"], r["verdict"]) for r in csv.DictReader(io.StringIO(out))]
    header, *lines = map(_human_cells, out.splitlines())
    assert header == ["formula", "q", "target", "measured", "bound", "margin", "appl", "verdict"]
    return [(cells[2], cells[7]) for cells in lines]


@pytest.mark.parametrize("case", list(_BRANCHES))
def test_cli_branches(case, capsys):
    argv, fmt, code, expected = _BRANCHES[case]
    got_code, out = run_main(argv + ([] if fmt == "human" else ["--format", fmt]))
    assert got_code == code
    if code == EXIT_USAGE:
        assert out == "" and expected in capsys.readouterr().err
        return
    assert _target_verdicts(out, fmt) == [(target[:28] if fmt == "human" else target, verdict) for target, verdict in expected()]


def test_human_cells_are_float_reprs_cut_to_width():
    _, out = run_main(["lemma", "5.1", "--q", "5", "--x", "100"])
    row = ef.negative_pattern_minimum(100.0, character_group(5)[2])
    cells = _human_cells(out.splitlines()[3])
    assert cells[:3] == ["lemma5.1", "5", row.target]
    assert cells[3:7] == [repr(row.measured)[:22], repr(row.bound)[:22], repr(round(row.margin, 6)), "yes"]


def test_sec2_rows_walk_characters_then_x_then_lemmas():
    xs = [50.0, 1e3]
    rows = cli.sec2_rows(5, xs)
    want = [(f"lemma{lemma}", f"x={x:g}:{chi.label}") for chi in primitive_characters(5) for x in xs for lemma in ("2.2", "2.3", "2.5")]
    assert [(r.formula, r.target) for r in rows] == want
    assert [r.formula for r in cli.sec2_rows(5, [50.0], ("2.5", "2.2"))] == ["lemma2.5", "lemma2.2"] * 3
    assert cli.sec2_rows(6, xs) == []  # no primitive character mod 6
    with pytest.raises(ValueError, match="not a twisted sec2 identity"):
        cli.sec2_rows(5, xs, ("2.1",))


@pytest.mark.parametrize("q", [13, 40])
def test_lvalue_index_rows_are_the_full_list_filtered(q, capsys):
    # --index builds one character; its rows are those the full run writes
    # for it, and an index that is out of range or not primitive is refused
    _, full = run_main(["lvalue", "--q", str(q), "--format", "csv"])
    header, *lines = full.splitlines()
    for index in range(-1, len(character_group(q)) + 1):
        want = [line for line in lines if line.split(",")[2].startswith(f"chi{q}.{index}:")]
        code, out = run_main(["lvalue", "--q", str(q), "--index", str(index), "--format", "csv"])
        if want:
            assert code == EXIT_OK and out.splitlines() == [header, *want], index
        else:
            assert code == EXIT_USAGE and out == "", index
            assert f"no primitive character with index {index} mod {q}" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf", "x"])
def test_lvalue_tolerance_is_a_finite_positive_number(tol, capsys):
    code, out = run_main(["lvalue", "--q", "5", "--tolerance", tol, "--format", "csv"])
    assert code == EXIT_USAGE and out == ""
    assert "argument --tolerance: not a " in capsys.readouterr().err


def test_subgroup_searches_reach_large_q(capsys):
    q = "1000000000000037"  # prime, far above the 10^7 ceiling of O(q) tables
    for variant, formula in (("subgroup", "thm11"), ("subgroup-clean", "thm12"), ("qnr", "cor12")):
        code, out = run_main(["scan", variant, "--q", q, "--format", "csv"])
        assert code == EXIT_OK, variant
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 1 and rows[0].startswith(f"{formula},{q},") and rows[0].endswith(",pass"), rows
    # the coset search and generated subgroups read an O(q) table
    for argv in (["scan", "coset", "--q", q], ["scan", "subgroup", "--q", q, "--subgroup", "gens:2"]):
        code, out = run_main(argv + ["--format", "csv"])
        assert code == EXIT_USAGE and out == "", argv
        assert "exceeds dlog-table ceiling" in capsys.readouterr().err, argv


@pytest.mark.parametrize("subgroup", ["squares", "trivial", "gens:2"])
@pytest.mark.parametrize("q", ["-3", "0", "1", "2"])
def test_scan_coset_rejects_q_below_3_before_building_the_subgroup(q, subgroup, capsys):
    code, out = run_main(["scan", "coset", f"--q={q}", "--subgroup", subgroup, "--format", "csv"])
    assert code == EXIT_USAGE and out == ""
    assert "error: q >= 3 required" in capsys.readouterr().err


# Runs `python -m nonresidue` and, at exit, writes the process's own peak
# resident size to stderr.  VmHWM starts afresh at exec; the ru_maxrss that
# os.wait4 reports starts from the resident size of the process that forked.
_PEAK_PROBE = """
import atexit, runpy, sys

def peak():
    with open("/proc/self/status") as f:
        sys.stderr.write(next(line for line in f if line.startswith("VmHWM:")))

atexit.register(peak)
runpy.run_module("nonresidue", run_name="__main__", alter_sys=True)
"""


def _run_cli(argv, stdout) -> tuple[int, float]:
    """Exit code and peak RSS in MB of `python -m nonresidue argv`, its
    stdout written to the open file `stdout`."""
    cmd = [sys.executable, "-c", _PEAK_PROBE, *argv]
    proc = subprocess.run(cmd, stdout=stdout, stderr=subprocess.PIPE, text=True, env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"})
    sys.stderr.write(proc.stderr)
    peak_kb = int(proc.stderr.rsplit("VmHWM:", 1)[1].split()[0])
    return proc.returncode, peak_kb / 1024


def test_peak_rss_is_the_child_s_own(tmp_path):
    grown = np.ones(300 * 2**20 // 8)  # 300 MB resident in this process
    with open(tmp_path / "out.csv", "w") as out:
        code, peak_mb = _run_cli(["scan", "qnr", "--q", "101", "--format", "csv"], out)
    del grown
    assert code == EXIT_OK
    assert peak_mb < 150, peak_mb


@pytest.mark.slow
def test_coset_scan_runs_past_index_2_20(tmp_path):
    # the trivial subgroup of the prime 1048583 has 2^20 + 6 cosets, one row each
    with open(tmp_path / "out.csv", "w") as out:
        code, _ = _run_cli(["scan", "coset", "--q", "1048583", "--subgroup", "trivial", "--format", "csv"], out)
    assert code == EXIT_OK
    with open(tmp_path / "out.csv") as f:
        assert sum(1 for _ in f) == 1 + 1048582


@pytest.mark.slow
def test_ap_scan_near_the_modulus_ceiling_stays_under_300_mb(tmp_path):
    # q = 9999991's worst class has least prime 2,831,186,837: hundreds of
    # sieve windows, each freed before the next
    with open(tmp_path / "out.csv", "w") as out:
        code, peak_mb = _run_cli(["scan", "ap", "--q", "9999991", "--format", "csv"], out)
    assert code == EXIT_OK
    assert peak_mb < 300, peak_mb


@pytest.mark.slow
def test_lemma_2_1_at_1e9_stays_under_200_mb(tmp_path):
    # about 5 * 10^7 prime powers, read in stretches of 2^23 integers
    with open(tmp_path / "out.csv", "w") as out:
        code, peak_mb = _run_cli(["lemma", "2.1", "--x", "1e9", "--format", "csv"], out)
    assert code == EXIT_OK
    assert peak_mb < 200, peak_mb


@pytest.mark.slow
def test_qnr_scan_to_2e6_stays_under_160_mb(tmp_path):
    # the range reaches verify_stream whole, not as one payload per integer
    with open(tmp_path / "out.csv", "w") as out:
        code, peak_mb = _run_cli(["scan", "qnr", "--qmin", "5", "--qmax", "2000000", "--format", "csv"], out)
    assert code == EXIT_OK
    assert peak_mb < 160, peak_mb


@pytest.mark.slow
def test_lemma_2_2_at_1e9_stays_under_300_mb(tmp_path):
    # the twisted weights are cached per stretch, at most four of them
    with open(tmp_path / "out.csv", "w") as out:
        code, peak_mb = _run_cli(["lemma", "2.2", "--q", "7", "--x", "1e9", "--format", "csv"], out)
    assert code == EXIT_OK
    assert peak_mb < 300, peak_mb


@pytest.mark.slow
def test_lvalue_at_q_100003_stays_under_400_mb(tmp_path):
    # the series oracle sums its 600 blocks 64 at a time, never as one q x 600 matrix
    with open(tmp_path / "out.csv", "w") as out:
        code, peak_mb = _run_cli(["lvalue", "--q", "100003", "--index", "1", "--format", "csv"], out)
    assert code == EXIT_OK
    assert peak_mb < 400, peak_mb
