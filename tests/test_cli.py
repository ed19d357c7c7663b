"""End-to-end CLI tests via click's test runner.

Covers the output formats, the exit-code contract (0 ok, 1 failed rows,
2 usage), parallel/serial agreement, and the wiring from command line to
library.  Numeric correctness itself is pinned in the module tests; here
rows are mostly cross-checked against direct library calls.
"""

import json
from fractions import Fraction

import pytest
from click.testing import CliRunner

from bernkit import identities, sequences
from bernkit import series as series_engine
from bernkit.cli import main

F = Fraction
runner = CliRunner()


def lines(result):
    return result.output.strip("\n").split("\n")


def test_seq_bernoulli_plain():
    result = runner.invoke(main, ["seq", "bernoulli", "--n-max", "4"])
    assert result.exit_code == 0
    assert lines(result) == ["0,1", "1,-1/2", "2,1/6", "3,0", "4,-1/30"]


def test_seq_euler_even_only():
    result = runner.invoke(main, ["seq", "euler", "--n-max", "8"])
    assert result.exit_code == 0
    assert lines(result) == ["0,1", "2,-1", "4,5", "6,-61", "8,1385"]


def test_seq_bbar_plain():
    result = runner.invoke(main, ["seq", "bbar", "--n-max", "4"])
    assert result.exit_code == 0
    assert lines(result) == ["0,1", "1,0", "2,-1/12", "3,0", "4,7/240"]


def test_seq_matches_library():
    for kind, getter in (("harmonic", sequences.harmonic), ("h2", sequences.harmonic_second)):
        result = runner.invoke(main, ["seq", kind, "--n-max", "6"])
        assert result.exit_code == 0
        expected = [f"{i},{getter(i)}" for i in range(7)]
        assert lines(result) == expected


def test_seq_csv_and_json():
    result = runner.invoke(main, ["seq", "bernoulli", "--n-max", "2", "--format", "csv"])
    assert lines(result) == ["n,value", "0,1", "1,-1/2", "2,1/6"]
    result = runner.invoke(main, ["seq", "bernoulli", "--n-max", "2", "--format", "json"])
    assert json.loads(result.output) == [[0, "1"], [1, "-1/2"], [2, "1/6"]]


def test_seq_negative_bound_is_usage_error():
    result = runner.invoke(main, ["seq", "bernoulli", "--n-max", "-1"])
    assert result.exit_code == 2


def test_verify_miki_csv_scan():
    result = runner.invoke(
        main, ["verify", "--identity", "miki", "--n-max", "50", "--format", "csv"])
    assert result.exit_code == 0
    rows = lines(result)
    assert rows[0] == "identity,n,p,lhs,rhs,residual,ok,error"
    assert len(rows) == 1 + 49  # n = 2..50
    assert all(row.endswith(",true,") for row in rows[1:])  # ok rows: empty error
    assert rows[1].startswith("miki,2,,1/144,")


def test_verify_json_round_trip():
    result = runner.invoke(
        main, ["verify", "--identity", "euler", "--n-max", "10", "--format", "json"])
    assert result.exit_code == 0
    rows = json.loads(result.output)
    assert [row["n"] for row in rows] == list(range(2, 11))
    for row in rows:
        assert row["ok"] is True
        assert "p" not in row
        assert F(row["lhs"]) - F(row["rhs"]) == F(row["residual"]) == 0


def test_verify_family_scan():
    result = runner.invoke(
        main, ["verify", "--identity", "family-fpz", "--p", "1/2",
               "--n-max", "20", "--format", "json"])
    assert result.exit_code == 0
    rows = json.loads(result.output)
    assert len(rows) == 19
    assert all(row["ok"] and row["p"] == "1/2" for row in rows)
    assert F(rows[0]["lhs"]) == F(1, 1024)
    assert rows[0]["residual"] == "0"


def test_verify_family_multiple_p():
    result = runner.invoke(
        main, ["verify", "--identity", "family-mixed", "--p", "0", "--p", "3/2",
               "--n-max", "5", "--format", "json"])
    assert result.exit_code == 0
    rows = json.loads(result.output)
    assert len(rows) == 8  # 4 values of n, 2 values of p
    assert {row["p"] for row in rows} == {"0", "3/2"}


def test_verify_mixed_identity_list():
    # p rows appear only on the family identity, not the plain one
    result = runner.invoke(
        main, ["verify", "--identity", "euler", "--identity", "family-miki",
               "--p", "1", "--n-max", "4", "--format", "json"])
    assert result.exit_code == 0
    for row in json.loads(result.output):
        if row["identity"] == "family-miki":
            assert row["p"] == "1"
        else:
            assert "p" not in row


def test_verify_float_p_rows():
    result = runner.invoke(
        main, ["verify", "--identity", "family-mixed", "--float-p", "0.75",
               "--n-max", "5", "--format", "json"])
    assert result.exit_code == 0
    rows = json.loads(result.output)
    assert len(rows) == 4
    for row in rows:
        assert row["ok"] is True and row["p"] == 0.75
        assert isinstance(row["lhs"], float)


def test_verify_multi_frozen_values():
    result = runner.invoke(
        main, ["verify", "--identity", "multi", "--N", "3",
               "--n-max", "6", "--format", "json"])
    assert result.exit_code == 0
    rows = json.loads(result.output)
    assert [(row["n"], row["N"]) for row in rows] == [(3, 3), (4, 3), (5, 3), (6, 3)]
    assert [row["lhs"] for row in rows] == [
        "1/1728", "-1/5760", "121/1209600", "-419/4032000"]


def test_verify_multi_defaults_to_pairs():
    result = runner.invoke(
        main, ["verify", "--identity", "multi", "--n-max", "3", "--format", "json"])
    rows = json.loads(result.output)
    assert rows[0]["N"] == 2 and rows[0]["lhs"] == "1/144"
    result = runner.invoke(
        main, ["verify", "--identity", "multi-bar", "--N", "3", "--n-max", "4"])
    assert result.exit_code == 0


def test_verify_p1_scan():
    result = runner.invoke(
        main, ["verify", "--identity", "p1-miki", "--identity", "p1-fpz",
               "--identity", "p1-mixed", "--n-max", "6", "--format", "json"])
    assert result.exit_code == 0
    rows = json.loads(result.output)
    floors = {"p1-miki": 2, "p1-fpz": 1, "p1-mixed": 1}
    for ident, floor in floors.items():
        assert min(row["n"] for row in rows if row["identity"] == ident) == floor


def test_verify_usage_errors():
    cases = [
        ["verify", "--identity", "nope", "--n-max", "5"],
        ["verify", "--identity", "miki", "--n-max", "1"],
        ["verify", "--identity", "miki", "--p", "1/2", "--n-max", "5"],
        ["verify", "--identity", "family-miki", "--n-max", "5"],
        ["verify", "--identity", "family-miki", "--p", "1/0", "--n-max", "5"],
        ["verify", "--identity", "multi", "--N", "1", "--n-max", "5"],
        ["verify", "--identity", "miki", "--n-max", "5", "--jobs", "0"],
        ["verify", "--identity", "miki", "--n-max", "5", "--jobs", "abc"],
        ["verify", "--identity", "family-miki", "--float-p", "nan", "--n-max", "5"],
        ["verify", "--identity", "family-miki", "--float-p", "inf", "--n-max", "5"],
    ]
    for args in cases:
        result = runner.invoke(main, args)
        assert result.exit_code == 2, args


def test_verify_below_floor_reports_error_rows():
    result = runner.invoke(
        main, ["verify", "--identity", "gessel", "--n-min", "1", "--n-max", "4",
               "--format", "json"])
    assert result.exit_code == 1
    rows = json.loads(result.output)
    assert [row["ok"] for row in rows] == [False, False, True, True]
    assert "error" in rows[0] and rows[0]["lhs"] == ""


def _floor_args(ident, lo, hi):
    args = ["verify", "--identity", ident, "--n-min", str(lo), "--n-max", str(hi),
            "--format", "json"]
    if ident.startswith("family-"):
        args += ["--p", "1/2"]
    if ident.startswith("multi"):
        args += ["--N", "2"]
    return args


@pytest.mark.parametrize("ident", sorted(identities.FLOORS))
def test_verify_every_identity_at_its_floor(ident):
    floor = identities.FLOORS[ident]
    result = runner.invoke(main, _floor_args(ident, floor, floor))
    assert result.exit_code == 0, result.output
    assert [row["ok"] for row in json.loads(result.output)] == [True]
    result = runner.invoke(main, _floor_args(ident, floor - 1, floor))
    assert result.exit_code == 1
    below, at = json.loads(result.output)
    assert below["n"] == floor - 1 and not below["ok"] and below["error"]
    assert at["ok"]


def test_verify_float_out_of_range_row():
    result = runner.invoke(
        main, ["verify", "--identity", "family-fpz", "--float-p", "0.5",
               "--n-min", "90", "--n-max", "90", "--format", "json"])
    assert result.exit_code == 1
    assert "Infinity" not in result.output and "NaN" not in result.output
    [row] = json.loads(result.output)
    assert row["p"] == 0.5 and row["ok"] is False
    assert "double range" in row["error"]


def test_route_mismatch_fails_rows(monkeypatch):
    # a corrupted series route: multi rows show both routes, gessel's
    # internal cross-check turns into a failed row with a reason
    real_pow = identities.series_pow
    monkeypatch.setattr(
        identities, "series_pow",
        lambda a, n: series_engine.series_add(real_pow(a, n), real_pow(a, n)))
    result = runner.invoke(
        main, ["verify", "--identity", "multi", "--identity", "gessel",
               "--n-min", "3", "--n-max", "3", "--jobs", "1", "--format", "json"])
    assert result.exit_code == 1
    gessel, multi = json.loads(result.output)
    assert not gessel["ok"] and "series power" in gessel["error"]
    assert not multi["ok"] and F(multi["rhs"]) == 2 * F(multi["lhs"]) != 0


def test_failed_rows_carry_their_reason_in_csv_and_plain():
    args = ["verify", "--identity", "gessel", "--n-min", "2", "--n-max", "3"]
    result = runner.invoke(main, args + ["--format", "csv"])
    assert result.exit_code == 1
    header, below, at = lines(result)
    assert header.endswith(",ok,error")
    assert below == 'gessel,2,,,,,false,"gessel identity needs n >= 3, got 2"'
    assert at.startswith("gessel,3,,") and at.endswith(",true,")
    result = runner.invoke(main, args)
    assert lines(result) == [below.replace('"', ""), at]
    result = runner.invoke(
        main, ["verify", "--identity", "family-fpz", "--float-p", "0.5",
               "--n-min", "90", "--n-max", "90", "--format", "csv"])
    assert lines(result)[1].startswith("family-fpz,90,0.5,,,,false,")
    assert "double range" in lines(result)[1]


def test_verify_family_pole_row():
    result = runner.invoke(
        main, ["verify", "--identity", "family-miki", "--p", "-1",
               "--n-max", "3", "--format", "json"])
    assert result.exit_code == 1
    rows = json.loads(result.output)
    assert all(not row["ok"] and row["p"] == "-1" for row in rows)


def test_verify_parallel_matches_serial():
    args = ["verify", "--identity", "euler", "--identity", "miki",
            "--n-max", "8", "--format", "csv"]
    serial = runner.invoke(main, args + ["--jobs", "1"])
    parallel = runner.invoke(main, args + ["--jobs", "3"])
    assert serial.exit_code == parallel.exit_code == 0
    assert serial.output == parallel.output


def test_verify_jobs_env_default():
    result = runner.invoke(
        main, ["verify", "--identity", "euler", "--n-max", "6"],
        env={"BERNKIT_JOBS": "2"})
    assert result.exit_code == 0
    assert len(lines(result)) == 5


@pytest.mark.parametrize("value", ["abc", "0"])
def test_verify_jobs_env_usage_errors(value):
    args = ["verify", "--identity", "miki", "--n-max", "3"]
    result = runner.invoke(main, args, env={"BERNKIT_JOBS": value})
    assert result.exit_code == 2, result.output
    assert "--jobs" in result.output
    # an explicit --jobs still wins over the variable
    assert runner.invoke(main, args + ["--jobs", "1"], env={"BERNKIT_JOBS": value}).exit_code == 0


def test_series_json_dump():
    result = runner.invoke(
        main, ["series", "psi_tilde", "--order", "6", "--format", "json"])
    assert result.exit_code == 0
    assert json.loads(result.output) == [[2, "-1/12"], [4, "1/120"], [6, "-1/252"]]


def test_series_inline_parameter():
    result = runner.invoke(main, ["series", "psi_tilde_deriv(2)", "--order", "6"])
    assert result.exit_code == 0
    assert len(lines(result)) > 0


def test_series_usage_errors():
    assert runner.invoke(main, ["series", "nope", "--order", "4"]).exit_code == 2
    assert runner.invoke(main, ["series", "b", "--order", "-1"]).exit_code == 2


def test_quadcheck_default_grid():
    result = runner.invoke(main, ["quadcheck", "psi_tilde"])
    assert result.exit_code == 0
    rows = lines(result)
    assert len(rows) == 3
    assert all(row.endswith(",true,") for row in rows)


def test_quadcheck_json():
    result = runner.invoke(
        main, ["quadcheck", "g", "--x", "5", "--format", "json"])
    assert result.exit_code == 0
    rows = json.loads(result.output)
    assert len(rows) == 1 and rows[0]["ok"] is True
    assert list(rows[0]) == ["name", "x", "p", "value", "target", "abs_dev", "tol", "est_error", "ok"]
    assert 0 < rows[0]["tol"] <= 1e-6 and 0 <= rows[0]["est_error"] <= 1e-8


def test_quadcheck_weighted():
    result = runner.invoke(
        main, ["quadcheck", "psi_tilde_p", "--p", "1", "--x", "8"])
    assert result.exit_code == 0


def test_quadcheck_errors():
    assert runner.invoke(main, ["quadcheck", "zork"]).exit_code == 2
    # domain failures become rows, not usage errors
    result = runner.invoke(main, ["quadcheck", "psi_tilde", "--x", "0.5", "--format", "csv"])
    assert result.exit_code == 1
    assert lines(result) == ["name,x,p,value,target,abs_dev,tol,est_error,ok,error",
                             'psi_tilde,0.5,0.0,,,,,,false,"quadrature grid starts at x = 1, got 0.5"']
    result = runner.invoke(main, ["quadcheck", "psi_tilde", "--p", "1", "--x", "5"])
    assert result.exit_code == 1


def test_quadcheck_loose_series_target_is_unverified():
    # the omitted term at x = 1 is 6.7e-3: a deviation of 3.5e-3 used to pass
    result = runner.invoke(
        main, ["quadcheck", "psi_tilde_p", "--p", "0.5", "--x", "1", "--format", "json"])
    assert result.exit_code == 1
    [row] = json.loads(result.output)
    assert row["ok"] is False and row["abs_dev"] <= row["tol"] and row["tol"] > 1e-6
    assert row["error"].startswith("target unverified")


@pytest.mark.parametrize("args", [
    ["--x", "nan"], ["--x", "inf"], ["--x", "2", "--x", "-inf"], ["--p", "nan", "--x", "5"],
])
def test_quadcheck_non_finite_is_usage_error(args):
    result = runner.invoke(main, ["quadcheck", "psi_tilde_p", *args])
    assert result.exit_code == 2, result.output
    assert "must be finite" in result.output


def test_poisoned_sequences_fail_scan(monkeypatch):
    cache = sequences.SequenceCache()
    cache.bernoulli(12)
    cache.bern[4] += 1
    monkeypatch.setattr(sequences, "_DEFAULT", cache)
    result = runner.invoke(
        main, ["verify", "--identity", "euler", "--identity", "miki",
               "--n-max", "6", "--jobs", "1", "--format", "json"])
    assert result.exit_code == 1
    rows = json.loads(result.output)
    assert any(not row["ok"] for row in rows)


def test_poisoned_table_reaches_every_consumer(monkeypatch):
    # one injected table feeds the exact lane, the float lane and the
    # harmonic tables: exactly the rows that read a corrupted entry fail
    cache = sequences.SequenceCache()
    cache.bernoulli(20)
    cache.bern[20] += 1
    cache.euler_number(6)
    cache.eul[4] += 1
    cache.harmonic(10)
    cache.harm2[10] += 1
    monkeypatch.setattr(sequences, "_DEFAULT", cache)

    def scan(*args):
        result = runner.invoke(main, ["verify", *args, "--format", "json"])
        assert result.exit_code == 1, result.output
        return {(row["n"], str(row.get("p", ""))): row for row in json.loads(result.output)}

    rows = scan("--identity", "gessel", "--n-max", "5")
    assert [rows[n, ""]["ok"] for n in (3, 4, 5)] == [True, True, False]
    assert "symmetric form" in rows[5, ""]["error"]
    rows = scan("--identity", "euler-bernoulli", "--n-max", "3")
    assert [rows[n, ""]["ok"] for n in (1, 2, 3)] == [True, True, False]
    assert rows[3, ""]["lhs"] == "13"  # E_0 E_4 + E_2 E_2 + E_4 E_0 with E_4 = 6
    rows = scan("--identity", "family-miki", "--p", "1", "--float-p", "0.5",
                "--n-min", "9", "--n-max", "10")
    assert rows[9, "1"]["ok"] and rows[9, "0.5"]["ok"]
    assert not rows[10, "1"]["ok"] and not rows[10, "0.5"]["ok"]
