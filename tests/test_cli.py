import csv
import io
import json
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

from nonresidue.cli import (
    EXIT_FAIL,
    EXIT_NOT_FOUND,
    EXIT_OK,
    EXIT_USAGE,
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


def test_kernel_flags_reject_nan_and_nonpositive_values(capsys):
    for argv, reason in (
        (["kernel", "gamma", "--weighted", "nan"], "--weighted: not a number > 0 or inf"),
        (["kernel", "gamma", "--weighted", "0"], "--weighted: not a number > 0 or inf"),
        (["kernel", "fejer", "--alpha", "nan", "--l1"], "--alpha: not a finite number > 0"),
        (["kernel", "fejer", "--alpha", "inf", "--l1"], "--alpha: not a finite number > 0"),
        (["kernel", "fejer", "--alpha", "-1", "--l1"], "--alpha: not a finite number > 0"),
        (["kernel", "gamma", "--prop62", "--lam", "nan"], "--lam: not a number > 0 or inf"),
        (["kernel", "gamma", "--prop62", "--lam", "-2"], "--lam: not a number > 0 or inf"),
    ):
        code, out = run_main(argv + ["--format", "csv"])
        assert code == EXIT_USAGE and out == "", argv
        assert reason in capsys.readouterr().err, argv
    code, out = run_main(["kernel", "gamma", "--weighted", "oo", "--format", "csv"])
    assert code == EXIT_OK and "gamma:W(inf),,1.7724538509" in out


def test_reproduce_quick_cells_are_plain_numbers():
    code, out = run_main(["reproduce-paper", "--quick", "--format", "csv"])
    assert code == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) > 1000
    for row in rows:
        for field in ("q", "measured", "bound", "margin"):
            if row[field]:
                float(row[field])


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
    code, out = run_main(["classnum", "--q", "163", "--format", "csv"])
    assert code == EXIT_OK and "pass" in out


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

    with pytest.raises(ValueError):
        list(verify_stream("nope", [10]))


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
    for argv in (["classnum"], ["classnum", "--q", "12"], ["classnum", "--q", "4"], ["classnum", "--q", "3"]):
        code, out = run_main(argv + ["--format", "csv"])
        assert code == EXIT_USAGE, argv
        assert out == ""
        assert "error" in capsys.readouterr().err
    code, out = run_main(["classnum", "--q", "-3", "--format", "csv"])
    assert code == EXIT_USAGE and out == ""
    err = capsys.readouterr().err
    assert "; -3 is not one" in err and "--3" not in err
    # a range scan still skips non-fundamental q without complaint
    code, out = run_main(["scan", "classnum", "--q", "8..12", "--format", "csv"])
    assert code == EXIT_OK
    assert [line.split(",")[1] for line in out.strip().splitlines()[1:]] == ["8", "11"]


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
    for argv in (
        ["classnum", "--q", "23", "--ceiling", "10"],
        ["eval", "alpha", "--h", "2", "--tolerance", "1e-3"],
        ["kernel", "gamma", "--l1", "--ceiling", "10"],
        ["scan", "subgroup", "--q", "3001", "--tolerance", "1e-3"],
    ):
        assert main(argv) == EXIT_USAGE, argv
        assert "unrecognized arguments" in capsys.readouterr().err
    for what in ("qnr", "classnum", "elementary"):
        assert main(["scan", what, "--q", "23", "--ceiling", "100"]) == EXIT_USAGE, what
        assert "takes no --ceiling" in capsys.readouterr().err
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
    assert "--h required" in capsys.readouterr().err
    for h in ("1", "0"):
        code, out = run_main(["eval", "thm14", "--q", "20001", "--h", h, "--format", "csv"])
        assert code == EXIT_USAGE and out == ""
        assert "index h must be at least 2" in capsys.readouterr().err
    code, out = run_main(["eval", "thm14", "--q", "20001", "--h", "2", "--format", "csv"])
    assert code == EXIT_OK and out.splitlines()[1].startswith("thm14,20001,")


def test_runs_with_nothing_to_check_are_usage_errors(capsys):
    for argv, reason in (
        (["lemma", "2.2", "--q", "5"], "lemma 2.2 needs --x"),
        (["lemma", "2.1"], "lemma 2.1 needs --x"),
        (["lemma", "3.1", "--m", "30"], "lemma 3.1 needs --x"),
        (["lemma", "5.1", "--q", "5", "--x", ""], "lemma 5.1 needs --x"),
        (["lemma", "2.3", "--x", "100"], "lemma 2.3 needs --q"),
        (["lemma", "5.1", "--x", "100"], "lemma 5.1 needs --q"),
        (["lemma", "3.1", "--x", "100"], "lemma 3.1 needs --m"),
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
