import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from csck.cli import main

GOLDEN_TEXT = (
    "120*x^2*y^3*z^2 - 420*x^2*y^2*z^3 + 390*x^2*y*z^4 - 120*x^2*z^5"
    " + 60*x*y^4*z^2 - 90*x*y^3*z^3 + 150*x*y^2*z^4 - 99*x*y*z^5 + 24*x*z^6"
    " - 90*y^4*z^3 + 90*y^3*z^4 - 45*y^2*z^5 + 9*y*z^6"
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_character_text_matches_golden_term_for_term(capsys):
    code, out, _ = run(capsys, "character", "-m", "1", "-n", "2", "--format", "text", "--no-meta")
    assert code == 0
    assert out.strip() == GOLDEN_TEXT


def test_character_json(capsys):
    code, out, _ = run(capsys, "character", "-m", "1", "-n", "2", "--format", "json", "--no-meta")
    assert code == 0
    obj = json.loads(out)
    assert obj["degreeF"] == 7
    assert obj["F"][0] == {"e": [2, 3, 2], "c": "120"}


def test_evaluate_json(capsys):
    code, out, _ = run(capsys, "evaluate", "-m", "1", "-n", "2", "--class", "3,4,2", "--format", "json", "--no-meta")
    assert code == 0
    obj = json.loads(out)
    assert obj["F"] == "-2304"
    assert obj["mu"] == "1"
    assert obj["sign"] == "negative"
    assert obj["cscK_in_class"] is False


def test_evaluate_zero_coordinate_has_null_slope(capsys):
    code, out, _ = run(capsys, "evaluate", "-m", "1", "-n", "2", "--class", "1,1,0", "--format", "json", "--no-meta")
    assert code == 0
    obj = json.loads(out)
    assert obj["mu"] is None
    assert obj["sign"] == "zero"
    assert obj["cscK_in_class"] is None  # F vanishes but the class is not certified Kahler


def test_evaluate_approx_adds_float_beside_exact(capsys):
    code, out, _ = run(
        capsys, "evaluate", "-m", "1", "-n", "2", "--class", "3,4,2", "--format", "json", "--no-meta", "--approx"
    )
    obj = json.loads(out)
    assert obj["F"] == "-2304"
    assert obj["F_approx"] == -2304.0


def test_scan_csv_full_range(capsys):
    code, out, _ = run(capsys, "scan", "--m", "1..9", "--n", "2..10", "--format", "csv", "--no-meta")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,n,limit_l1,limit_l2,F_at_c1,ke_admissible,sign_change_found,paper_backed"
    assert len(lines) == 46
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[5] == "false"  # ke_admissible
        assert fields[6] == "true"  # sign_change_found
        assert fields[7] == "true"  # paper_backed
    assert lines[1].startswith("1,2,-15/8,45/8,-2304,")


def test_scan_is_byte_deterministic(capsys):
    _, first, _ = run(capsys, "scan", "--m", "1..3", "--n", "2..4", "--format", "json", "--no-meta")
    _, second, _ = run(capsys, "scan", "--m", "1..3", "--n", "2..4", "--format", "json", "--no-meta")
    assert first == second


def test_scan_jobs_do_not_change_output(capsys):
    _, sequential, _ = run(capsys, "scan", "--m", "1..3", "--n", "2..4", "--format", "csv", "--no-meta")
    _, parallel, _ = run(capsys, "scan", "--m", "1..3", "--n", "2..4", "--format", "csv", "--no-meta", "--jobs", "3")
    assert sequential == parallel


def test_scan_all_pairs_includes_diagonal(capsys):
    code, out, _ = run(capsys, "scan", "--m", "3", "--n", "3", "--all-pairs", "--format", "csv", "--no-meta")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[:2] == ["3", "3"]
    assert fields[5] == "true"  # the anticanonical class is on the zero locus at m = n
    assert fields[7] == "false"  # not paper-backed


def test_locate_json(capsys):
    code, out, _ = run(
        capsys,
        "locate", "-m", "1", "-n", "2",
        "--from", "7/16,7/16,1/8", "--to", "1/3,4/9,2/9",
        "--format", "json", "--no-meta",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["sign_from"] == "positive"
    assert obj["sign_to"] == "negative"
    assert len(obj["intervals"]) >= 1
    assert obj["intervals"][0]["inside_certified"] is True


LOCATE_SEGMENT = ("locate", "-m", "1", "-n", "2", "--from", "7/16,7/16,1/8", "--to", "1/3,4/9,2/9")


def test_locate_width_past_recursion_limit(capsys):
    # 1100 halvings: more than the interpreter's default recursion limit of 1000 frames
    code, out, _ = run(capsys, *LOCATE_SEGMENT, "--width", f"1/{2**1100}", "--format", "json", "--no-meta")
    assert code == 0
    intervals = json.loads(out)["intervals"]
    assert intervals
    for interval in intervals:
        assert Fraction(interval["hi"]) - Fraction(interval["lo"]) <= Fraction(1, 2**1100)


def test_locate_narrow_width_bytes_unchanged(capsys):
    # the digest of the report written by the recursive bisection
    code, out, _ = run(capsys, *LOCATE_SEGMENT, "--width", f"1/{2**900}", "--format", "json", "--no-meta")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == "b023152024c10ef56db43fab66e4f8945f35fbdc281462fb7062d6c3c689b736"


@pytest.mark.parametrize("command", [("scan", "--m", "9", "--n", "10"), LOCATE_SEGMENT])
def test_width_below_floor_is_usage_error_at_once(command):
    # each halving lengthens every probe rational, so an unbounded width would run on and on
    src = Path(__file__).resolve().parent.parent / "src"
    cmd = [sys.executable, "-m", "csck", *command, "--width", f"1/{2**2049}"]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "width must be at least 1/2^2048" in proc.stderr


def test_sample_face_csv(capsys):
    code, out, _ = run(capsys, "sample-face", "-m", "1", "-n", "2", "--resolution", "3", "--format", "csv", "--no-meta")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,y,z,sign,region"
    assert lines[1] == "1/3,1/3,1/3,negative,outside"


def test_sample_face_resolution_without_interior_point_is_usage_error(capsys):
    # i + j + k = 2 with i, j, k >= 1 has no solution: refuse instead of printing a bare header
    code, out, err = run(capsys, "sample-face", "-m", "1", "-n", "2", "--resolution", "2", "--no-meta")
    assert code == 2
    assert out == ""
    assert "resolution must be at least 3" in err


def test_meta_header_present_by_default(capsys):
    code, out, _ = run(capsys, "evaluate", "-m", "1", "-n", "2", "--class", "3,4,2", "--format", "json")
    obj = json.loads(out)
    assert obj["meta"]["tool"] == "csck"
    assert obj["meta"]["command"] == "evaluate"


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "evaluate", "-m", "1", "-n", "2", "--class", "3,4,2",
        "--format", "json", "--no-meta", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["F"] == "-2304"


def test_out_into_missing_directory_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "report.txt"
    code, out, err = run(capsys, "character", "-m", "1", "-n", "2", "--no-meta", "--out", str(target))
    assert code == 2
    assert out == ""
    assert str(target) in err


def test_approx_beyond_float_range_is_usage_error(capsys):
    cls = f"{10**200},1,1"
    code, out, _ = run(capsys, "evaluate", "-m", "1", "-n", "2", "--class", cls, "--format", "json", "--no-meta")
    assert code == 0
    code, out, err = run(
        capsys, "evaluate", "-m", "1", "-n", "2", "--class", cls, "--format", "json", "--no-meta", "--approx"
    )
    assert code == 2
    assert out == ""
    assert "--approx: F is beyond float range" in err


def test_exponent_notation_is_usage_error_at_once():
    # Fraction("1e999999999") would build a billion-digit integer first, so run it with a timeout
    src = Path(__file__).resolve().parent.parent / "src"
    cmd = [sys.executable, "-m", "csck", "evaluate", "-m", "1", "-n", "2", "--class", "1e999999999,1,1"]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_huge_resolution_is_usage_error_at_once():
    # sample_face streams its rows, but an uncapped 10^9 would still write for days
    src = Path(__file__).resolve().parent.parent / "src"
    cmd = [sys.executable, "-m", "csck", "sample-face", "-m", "1", "-n", "2", "--resolution", "1000000000"]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "resolution must be at most 500" in proc.stderr


def test_usage_error_exit_code(capsys):
    code, out, err = run(capsys, "evaluate", "-m", "1", "-n", "2", "--class", "3,4")
    assert code == 2
    assert out == ""  # errors never pollute the report stream
    assert "error" in err


def test_bad_dims_exit_code(capsys):
    code, _, err = run(capsys, "character", "-m", "0", "-n", "2")
    assert code == 2
    assert "error" in err


def test_locate_coincident_endpoints_usage_error(capsys):
    code, _, _ = run(capsys, "locate", "-m", "1", "-n", "2", "--from", "1,1,1", "--to", "1,1,1")
    assert code == 2


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit) as info:
        main(["scan", "--m", "1..2", "--n", "2..3", "--bogus"])
    assert info.value.code == 2


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--format", "text", "--no-meta")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1] == "10/10 checks passed"


def test_verify_failure_exit_code(capsys, monkeypatch):
    from csck.verification import CheckResult

    fake = CheckResult("synthetic", False, "forced failure", 0.0)
    monkeypatch.setattr("csck.verification.run_checks", lambda deep=False: [fake])
    code, out, _ = run(capsys, "verify", "--format", "text", "--no-meta")
    assert code == 4
    assert "FAIL synthetic" in out


def test_invariant_violation_exit_code(capsys, monkeypatch):
    from csck.character import InvariantViolation

    def boom(d):
        raise InvariantViolation("forced")

    monkeypatch.setattr("csck.cli.compute_obstruction", boom)
    code, out, err = run(capsys, "character", "-m", "1", "-n", "2", "--no-meta")
    assert code == 3
    assert out == ""
    assert "invariant violation" in err


def test_closed_stdout_ends_quietly():
    # about 400 kB of CSV: the writer is still blocked on the pipe when its reader leaves
    src = Path(__file__).resolve().parent.parent / "src"
    cmd = [sys.executable, "-m", "csck", "sample-face", "-m", "9", "-n", "10", "--resolution", "200", "--no-meta"]
    env = {**os.environ, "PYTHONPATH": str(src)}
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        code = proc.wait(timeout=60)
        err = proc.stderr.read()
    assert first == b"x,y,z,sign,region\n"
    assert code == 141
    assert err == b""


def test_huge_scan_ranges_are_usage_error_at_once():
    # the pair list for 1..100000 x 1..100000 would hold 5 * 10^9 pairs, so run it with a timeout
    src = Path(__file__).resolve().parent.parent / "src"
    cmd = [sys.executable, "-m", "csck", "scan", "--m", "1..100000", "--n", "1..100000"]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "dimension bounds must be at most 100" in proc.stderr


def test_benchmark_trace_hooks_leave_stdout_alone():
    # perfbench/traced.py reads len(F), F.terms(), UniPoly.degree and the Fraction coefficients
    root = Path(__file__).resolve().parent.parent
    argv = ["scan", "--m", "1", "--n", "2", "--format", "csv", "--no-meta"]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    tracer = [sys.executable, str(root / "perfbench" / "traced.py")]
    traced = subprocess.run([*tracer, *argv], env=env, capture_output=True, text=True, timeout=60)
    plain = subprocess.run([sys.executable, "-m", "csck", *argv], env=env, capture_output=True, text=True, timeout=60)
    assert traced.returncode == plain.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout
    report = json.loads(traced.stderr.splitlines()[-1])
    assert report["restored"] is True
    assert report["polynomials.restrict_to_line.calls"] > 0
    assert report["polynomials.restrict_to_line.coeff_bits_max"] > 0
