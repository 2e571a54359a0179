import dataclasses
import json
import subprocess
import sys
import time

import pytest

from birat2 import (
    AbelianGroupStructure,
    EffortBoundExceeded,
    TheoremViolation,
    cli,
    quadforms,
    rayclass,
    verify_2rational_quadratic,
)
from birat2.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_positive_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "classify", "-7")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["positive"] is True and payload["case"] == "BIR_A_I"


def test_classify_negative_exit_one(capsys):
    code, out, _ = run_cli(capsys, "classify", "-5")
    assert code == 1
    assert json.loads(out)["positive"] is False


def test_classify_multiquadratic(capsys):
    code, out, _ = run_cli(capsys, "classify", "6,-15")
    assert code == 0
    payload = json.loads(out)
    assert payload["case"] == "BIR_B_I" and payload["field"] == [6, -15]


def test_classify_real_field_dispatches_to_rationality(capsys):
    code, out, _ = run_cli(capsys, "classify", "2,3")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "2-rational" and payload["case"] == "CMQ2R_III"


def test_classify_parse_error_exit_two(capsys):
    code, _, err = run_cli(capsys, "classify", "abc")
    assert code == 2
    assert "error" in err


def test_enumerate_quad_birational(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--kind", "quad-birational", "--bound", "40"
    )
    assert code == 0
    payload = json.loads(out)
    assert [r["label"] for r in payload["rows"]] == [7, 15, 23, 39]


def test_enumerate_empty_below_seven(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--kind", "quad-birational", "--bound", "6"
    )
    assert code == 0
    assert json.loads(out)["rows"] == []


def test_enumerate_multiquad_rational(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--kind", "multiquad-rational", "--bound", "10"
    )
    assert code == 0
    labels = [r["label"] for r in json.loads(out)["rows"]]
    for expected in (2, 3, 5, 6, 10):
        assert expected in labels
    assert 7 not in labels and -7 not in labels
    assert -1 in labels and -2 in labels


def test_enumerate_csv_schema_line(capsys):
    code, out, _ = run_cli(
        capsys,
        "enumerate",
        "--kind",
        "quad-birational",
        "--bound",
        "40",
        "--format",
        "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# schema=1"
    assert lines[1] == "label,case,evidence"
    assert lines[2].startswith("7,BIR_A_I")


def test_enumerate_bound_rejected(capsys):
    code, _, err = run_cli(
        capsys, "enumerate", "--kind", "quad-birational", "--bound", "100000000"
    )
    assert code == 2 and "bound" in err


def test_output_byte_stable(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code = main(
            ["--output", str(path), "enumerate", "--kind", "quad-birational",
             "--bound", "200"]
        )
        assert code == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_verify_small_bound(capsys):
    code, out, _ = run_cli(capsys, "verify", "--bound", "500")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert all(s["failed"] == 0 for s in payload["suites"])
    assert {s["name"] for s in payload["suites"]} == {
        "quadratic-birational-vs-form-oracle",
        "quadratic-rational-vs-form-oracle",
        "ray-class-laws",
    }


def ray_suite(out):
    return next(s for s in json.loads(out)["suites"] if s["name"] == "ray-class-laws")


def test_verify_builds_one_ray_report_per_pair(capsys, monkeypatch):
    calls = []
    real = rayclass.ray_quotient_report

    def counted(p, q, k_max=8):
        calls.append((p, q))
        return real(p, q, k_max)

    monkeypatch.setattr(rayclass, "ray_quotient_report", counted)
    monkeypatch.setattr(cli, "ray_quotient_report", counted)
    code, out, _ = run_cli(capsys, "verify", "--bound", "60")
    assert code == 0
    assert len(calls) == len(set(calls)) == ray_suite(out)["checked"] == 90


def test_verify_rechecks_level_8_stabilization(capsys, monkeypatch):
    # reports whose level 7 differs from level 8 fail every pair, although
    # their own levels 9 and 10 agree
    real = rayclass.ray_quotient_report

    def unstable(p, q, k_max=8):
        report = real(p, q, k_max)
        broken = AbelianGroupStructure((2 * report.stabilized_order,))
        per_level = tuple((k, broken if k == 7 else s) for k, s in report.per_level)
        return dataclasses.replace(report, per_level=per_level)

    monkeypatch.setattr(cli, "ray_quotient_report", unstable)
    code, out, _ = run_cli(capsys, "verify", "--bound", "20")
    assert code == 1
    suite = ray_suite(out)
    assert suite["failed"] == suite["checked"] == 20


def suites_by_name(out):
    return {s["name"]: s for s in json.loads(out)["suites"]}


def test_verify_counts_theorem_violation_in_form_suite(capsys, monkeypatch):
    # a TheoremViolation fails the case and the payload is still written
    def violated(m):
        raise TheoremViolation(f"forged for m={m}")

    monkeypatch.setattr(cli, "verify_2rational_quadratic", violated)
    code, out, _ = run_cli(capsys, "verify", "--bound", "20")
    assert code == 1
    suite = suites_by_name(out)["quadratic-rational-vs-form-oracle"]
    assert suite["failed"] == suite["checked"] > 0


def test_verify_counts_a_pair_failing_both_ray_laws_once(capsys, monkeypatch):
    real = rayclass.ray_quotient_report
    monkeypatch.setattr(
        cli,
        "ray_quotient_report",
        lambda p, q, k_max=8: dataclasses.replace(real(p, q, k_max), stabilized_order=6),
    )
    monkeypatch.setattr(cli, "_reflection_ranks", lambda report: (2, 0))
    code, out, _ = run_cli(capsys, "verify", "--bound", "20")
    assert code == 1
    suite = suites_by_name(out)["ray-class-laws"]
    assert suite["failed"] == suite["checked"] == 20


def test_verify_effort_errors_land_in_their_suite(capsys, monkeypatch):
    # suite i raises EffortBoundExceeded on its first i cases and a
    # TheoremViolation on every later one
    def forged(efforts):
        calls = []

        def check(*args, **kwargs):
            calls.append(args)
            if len(calls) <= efforts:
                raise EffortBoundExceeded("forged")
            raise TheoremViolation("forged")

        return check

    monkeypatch.setattr(cli, "verify_2birational_quadratic_oracle", forged(1))
    monkeypatch.setattr(cli, "verify_2rational_quadratic", forged(2))
    monkeypatch.setattr(cli, "ray_quotient_report", forged(3))
    code, out, _ = run_cli(capsys, "verify", "--bound", "20")
    assert code == 1
    suites = suites_by_name(out)
    for efforts, name in enumerate(
        ["quadratic-birational-vs-form-oracle", "quadratic-rational-vs-form-oracle",
         "ray-class-laws"],
        start=1,
    ):
        suite = suites[name]
        assert suite["effort_errors"] == efforts
        assert suite["failed"] == suite["checked"] - efforts > 0


def test_verify_huge_bound_rejected(capsys):
    code, _, err = run_cli(capsys, "verify", "--bound", "1000000000")
    assert code == 2 and "limit" in err


def test_verify_limit_is_the_real_discriminant_bound(capsys):
    # suite 2 builds Q(sqrt(m)) for |m| <= bound, of discriminant up to 4m
    limit = cli.VERIFY_MAX_BOUND
    assert 4 * limit <= quadforms.MAX_POSITIVE_DISC < 4 * (limit + 1)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "--bound", str(limit + 1))
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == "" and f"limit {limit}" in err
    # 24999 = 3 (mod 4) is the largest label suite 2 reaches at the limit:
    # D = 99996; the next such squarefree label, 25003, is out of range
    for m in (24999, -24999):
        verify_2rational_quadratic(m)
    with pytest.raises(ValueError, match="enumeration bound"):
        verify_2rational_quadratic(25003)


def test_kprime_command(capsys):
    code, out, _ = run_cli(capsys, "kprime", "--p", "3", "--q", "5")
    assert code == 0
    assert json.loads(out)["kprime"] == 6


def test_rayclass_json_and_table(capsys):
    code, out, _ = run_cli(capsys, "rayclass", "--p", "5", "--q", "3", "--levels", "8")
    assert code == 0
    payload = json.loads(out)
    assert payload["stabilized_order"] == 4
    assert payload["quadratic_character"] == 10
    assert payload["per_level"][0]["k"] == 3

    code, out, _ = run_cli(
        capsys, "rayclass", "--p", "5", "--q", "3", "--table"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "p,q,order,kprime"
    assert lines[2] == "5,3,4,10"


def test_tower_command(capsys):
    code, out, _ = run_cli(
        capsys, "tower", "--p", "3", "--q", "5", "--choices", "PQP", "--realize"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["realized_step1"]["kprime"] == 6
    assert len(payload["steps"]) == 3

    code, _, err = run_cli(capsys, "tower", "--p", "3", "--q", "9", "--choices", "P")
    assert code == 2 and "not prime" in err

    code, _, err = run_cli(capsys, "tower", "--p", "3", "--q", "7", "--choices", "P")
    assert code == 2 and "not primitive" in err


def test_classgroups_csv(capsys):
    code, out, _ = run_cli(capsys, "classgroups", "--bound", "30")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# schema=1"
    assert lines[1] == "D,invariant_factors,two_rank,dyadic_class_orders"
    rows = {line.split(",")[0]: line for line in lines[2:]}
    assert rows["-23"] == "-23,3,0,3;3"
    assert rows["-4"] == "-4,,0,1"
    assert rows["28"] == "28,2,1,1"


def test_classgroups_bound_rejected_up_front(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "classgroups", "--bound", "150000")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error:") and "limit" in err and err.count("\n") == 1


def test_module_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "birat2", "kprime", "--p", "3", "--q", "11"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["kprime"] == 3


def test_unwritable_output_exits_two(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, "--output", str(target), "kprime", "--p", "3", "--q", "5")
    assert code == 2 and out == "" and not target.exists()
    assert err.startswith("error:") and err.count("\n") == 1


def test_classify_spec_after_output_named_classify(capsys, tmp_path, monkeypatch):
    # "--" goes after the subcommand, not after an --output value equal to it
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "--output", "classify", "classify", "-7")
    assert code == 0 and out == ""
    assert json.loads((tmp_path / "classify").read_text())["case"] == "BIR_A_I"
    code, out, _ = run_cli(capsys, "classify", "-15,6")
    assert code == 0 and json.loads(out)["field"] == [6, -15]


def test_rayclass_levels_rejected_up_front(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "rayclass", "--p", "3", "--q", "11", "--levels", "40")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error:") and "levels" in err and err.count("\n") == 1
    code, _, _ = run_cli(capsys, "rayclass", "--p", "3", "--q", "11", "--levels", "4")
    assert code == 2


def test_classify_help_prints_subcommand_help(capsys):
    for flag in ("--help", "-h", "--he"):
        code, out, err = run_cli(capsys, "classify", flag)
        assert code == 0 and err == ""
        assert out.startswith("usage: birat2 classify") and "spec" in out


def test_rayclass_bounded_work(capsys):
    # large p, whose p - 1 has an odd part with no small factor (it is prime
    # for the last two), and the most levels (the 2-power dlog of 5)
    for argv, order, kprime in (
        (("--p", "1000000123", "--q", "5"), 2, 2000000246),
        (("--p", "1000000000001669", "--q", "3"), 4, 2000000000003338),
        (("--p", "999999999999997133", "--q", "3"), 4, 1999999999999994266),
        (("--p", "3", "--q", "11", "--levels", "24"), 2, 3),
    ):
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "rayclass", *argv)
        assert time.perf_counter() - start < 2.0, argv
        payload = json.loads(out)
        assert code == 0 and payload["stabilized_order"] == order
        assert payload["quadratic_character"] == kprime


def test_tower_large_primitive_pair(capsys):
    # p * q ~ 1e18 has no small factor: the pair is validated as two primes
    # and never factored as a product
    p, q = 1000000123, 1000000021
    start = time.perf_counter()
    code, out, _ = run_cli(
        capsys, "tower", "--p", str(p), "--q", str(q), "--choices", "PQ", "--realize"
    )
    assert time.perf_counter() - start < 2.0
    assert code == 0
    step = json.loads(out)["realized_step1"]
    assert step["kprime"] in (p, 2 * p) and step["verdict"]["positive"]


def test_classify_labels_beyond_the_primality_bound(capsys):
    # the subfield label -pq ~ 1e26 is past is_prime's deterministic range;
    # the classifier reads its primes from the factored generators
    code, out, _ = run_cli(capsys, "classify", "-10000000000051,10000000000037")
    assert code == 0
    payload = json.loads(out)
    assert payload["positive"] and payload["case"].startswith("BIR_B_")
