"""End-to-end CLI tests through the in-process runner of conftest.py.

Covers the output formats, the exit-code contract (0 ok, 1 failed rows,
2 usage), agreement across --jobs values, and the wiring from command line to
library.  Numeric correctness itself is pinned in the module tests; here
rows are mostly cross-checked against direct library calls.
"""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import CliRunner, family_pairs

import bernkit
from bernkit import cli as cli_module, gammaalg, identities, quadrature, sequences
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


def test_seq_writes_values_past_the_int_str_digit_limit(monkeypatch):
    # B_2100 has more than 4300 digits, the interpreter's default limit on
    # int-to-str conversion
    monkeypatch.setattr(sequences, "_DEFAULT", sequences.SequenceCache())
    result = runner.invoke(main, ["seq", "bernoulli", "--n-max", "2100"])
    assert result.exit_code == 0, result.output
    index, value = lines(result)[-1].split(",")
    assert index == "2100" and len(value) > 4300


def test_main_restores_the_int_str_digit_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        for args in (["seq", "bernoulli", "--n-max", "4"], ["seq", "bernoulli", "--n-max", "-1"],
                     ["verify", "--identity", "euler", "--n-max", "3"]):
            runner.invoke(main, args)
            assert sys.get_int_max_str_digits() == 5000, args
        with pytest.raises(cli_module.UsageError):
            main(["verify", "--identity", "euler"], standalone_mode=False)
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(limit)


def test_verify_miki_csv_scan():
    result = runner.invoke(
        main, ["verify", "--identity", "miki", "--n-max", "50", "--format", "csv"])
    assert result.exit_code == 0
    rows = lines(result)
    assert rows[0] == "identity,n,p,N,lhs,rhs,residual,ok,error"
    assert len(rows) == 1 + 49  # n = 2..50
    assert all(row.endswith(",true,") for row in rows[1:])  # ok rows: empty error
    assert rows[1].startswith("miki,2,,,1/144,")


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
        ["verify", "--identity", "miki", "--N", "3", "--n-max", "3"],
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


def test_multi_error_rows_carry_their_N():
    # rows below n = N fail, and say which fold count they were asked for
    result = runner.invoke(
        main, ["verify", "--identity", "multi", "--N", "5", "--n-min", "3", "--n-max", "5",
               "--format", "json"])
    assert result.exit_code == 1
    rows = json.loads(result.output)
    assert [(row["n"], row["ok"]) for row in rows] == [(3, False), (4, False), (5, True)]
    assert all(row["N"] == 5 for row in rows)


def test_verify_json_rows_follow_the_report_columns():
    # ok exact rows, float rows, multi rows and error rows (n below the
    # floor, a pole at p = -1) share one layout: no null, no other order
    result = runner.invoke(
        main, ["verify", "--identity", "euler", "--identity", "multi", "--N", "3",
               "--identity", "family-mixed", "--p", "1/2", "--p", "-1", "--float-p", "0.5",
               "--n-min", "1", "--n-max", "4", "--format", "json"])
    assert result.exit_code == 1
    rows = json.loads(result.output)
    kinds = {(row["identity"], row["ok"], type(row.get("p"))) for row in rows}
    assert {("euler", True, type(None)), ("euler", False, type(None)), ("multi", True, type(None)),
            ("multi", False, type(None)), ("family-mixed", True, str),
            ("family-mixed", True, float), ("family-mixed", False, str)} <= kinds
    for row in rows:
        assert list(row) == [c for c in cli_module._REPORT_COLUMNS if c in row], row
        assert None not in row.values(), row
        assert ("N" in row) == (row["identity"] == "multi"), row
        assert ("error" in row) == (not row["ok"]), row


def test_verify_json_row_fields():
    result = runner.invoke(
        main, ["verify", "--identity", "family-mixed", "--p", "1/2", "--float-p", "0.5",
               "--n-min", "3", "--n-max", "3", "--format", "json"])
    floated, exact = json.loads(result.output)  # sorted by str(p): "0.5" < "1/2"
    assert list(exact) == ["identity", "n", "p", "lhs", "rhs", "residual", "ok"]
    assert exact["identity"] == "family-mixed"
    assert exact["p"] == "1/2"
    assert exact["residual"] == "0"
    assert exact["ok"] is True
    assert list(floated) == ["identity", "n", "p", "lhs", "rhs", "residual", "ok"]
    assert floated["p"] == 0.5
    result = runner.invoke(
        main, ["verify", "--identity", "euler", "--n-min", "4", "--n-max", "4", "--format", "json"])
    [plain] = json.loads(result.output)
    assert "p" not in plain and "N" not in plain
    assert F(plain["lhs"]) - F(plain["rhs"]) == F(plain["residual"])


def test_csv_rows_carry_their_N():
    result = runner.invoke(
        main, ["verify", "--identity", "multi", "--N", "3", "--n-max", "4", "--format", "csv"])
    assert result.exit_code == 0
    assert lines(result)[:2] == ["identity,n,p,N,lhs,rhs,residual,ok,error",
                                 "multi,3,,3,1/1728,1/1728,0,true,"]


def test_multi_scan_runs_under_a_low_recursion_limit():
    # a fold fills its smaller folds in rising order of parts, so N = 60
    # needs a few frames, not several per part
    script = textwrap.dedent("""
        import sys
        from bernkit.cli import main
        sys.setrecursionlimit(150)
        main(["verify", "--identity", "multi", "--N", "60", "--n-min", "60", "--n-max", "60",
              "--format", "json"])
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(bernkit.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    [row] = json.loads(done.stdout)
    assert row["ok"] is True and row["N"] == 60


def _floor_args(ident, lo, hi):
    args = ["verify", "--identity", ident, "--n-min", str(lo), "--n-max", str(hi),
            "--format", "json"]
    param = identities.IDENTITIES[ident].param
    if param == "p":
        args += ["--p", "1/2"]
    if param == "N":
        args += ["--N", "2"]
    return args


@pytest.mark.parametrize("ident", sorted(identities.IDENTITIES))
def test_verify_every_identity_at_its_floor(ident):
    floor = identities.IDENTITIES[ident].floor
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
    # internal cross-check turns into a failed row with a reason; a fresh
    # cache, so no series power built by an earlier test hides the patch;
    # the recurrence is linear in the coefficients, so doubling c_0
    # doubles every one grown from it
    monkeypatch.setattr(sequences, "_DEFAULT", sequences.SequenceCache())
    real_next = series_engine.power_next
    monkeypatch.setattr(
        series_engine, "power_next",
        lambda base, power, N: (1 if power else 2) * real_next(base, power, N))
    result = runner.invoke(
        main, ["verify", "--identity", "multi", "--identity", "gessel",
               "--n-min", "3", "--n-max", "3", "--jobs", "1", "--format", "json"])
    assert result.exit_code == 1
    gessel, multi = json.loads(result.output)
    assert not gessel["ok"] and "series power" in gessel["error"]
    assert not multi["ok"] and F(multi["rhs"]) == 2 * F(multi["lhs"]) != 0


def test_exact_scan_does_not_import_scipy():
    # only quadrature needs scipy, and a scan runs in one process at any
    # --jobs: the CLI and an exact scan load neither scipy nor a worker
    # pool (concurrent.futures, multiprocessing)
    script = textwrap.dedent("""
        import sys
        from bernkit.cli import main
        try:
            main(["verify", "--identity", "miki", "--identity", "family-fpz", "--identity", "multi",
                  "--p", "1/2", "--n-max", "4", "--jobs", "4", "--format", "json"],
                 standalone_mode=False)
        except SystemExit as exc:
            assert exc.code == 0, exc.code
        print(sorted(name for name in sys.modules
                     if name.split(".")[0] in ("scipy", "concurrent", "multiprocessing")))
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(bernkit.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    *rows, loaded = done.stdout.splitlines()
    assert loaded == "[]"
    assert all(row["ok"] for row in json.loads("\n".join(rows)))


def test_cli_import_loads_floatcheck_eagerly():
    # the benchmark's --trace 1 reads bernkit.floatcheck's line from
    # `python -X importtime -c "import bernkit.cli"` and stops without it,
    # so the float lane stays an eager import; the quadrature lane loads on
    # first use, and a name once resolved is kept as a plain name
    script = textwrap.dedent("""
        import sys
        import bernkit.cli
        import bernkit
        assert "bernkit.floatcheck" in sys.modules
        assert bernkit.quad_rep is sys.modules["bernkit.quadrature"].quad_rep
        assert vars(bernkit)["quad_rep"] is sys.modules["bernkit.quadrature"].quad_rep
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(bernkit.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_cli_import_loads_no_click_dataclasses_or_inspect():
    # a scan process starts on the standard library: argparse parses, and
    # the result records are NamedTuples
    script = textwrap.dedent("""
        import sys
        import bernkit.cli
        print(sorted(m for m in ("click", "dataclasses", "inspect") if m in sys.modules))
        print("bernkit.floatcheck" in sys.modules)
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(bernkit.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]", "True"]


_WATCHED = ("bernkit.floatcheck", "bernkit.series", "bernkit.gammaalg", "bernkit.quadrature", "csv")


@pytest.mark.parametrize("args, loaded, not_loaded", [
    ([], {"bernkit.floatcheck"},
     {"bernkit.series", "bernkit.gammaalg", "bernkit.quadrature", "csv"}),
    (["verify", "--identity", "euler", "--identity", "fpz", "--identity", "mixed",
      "--n-max", "8", "--format", "json"], set(),
     {"bernkit.series", "bernkit.gammaalg", "bernkit.quadrature", "csv"}),
    (["verify", "--identity", "family-miki", "--p", "1/2", "--n-max", "3", "--format", "json"],
     {"bernkit.gammaalg"}, {"bernkit.series"}),
    (["verify", "--identity", "multi", "--N", "3", "--n-max", "4", "--format", "json"],
     {"bernkit.series"}, set()),
    (["quadcheck", "psi_tilde", "--x", "5", "--format", "json"], {"bernkit.quadrature"}, set()),
    (["seq", "bernoulli", "--n-max", "4", "--format", "csv"], {"csv"}, set()),
], ids=["import", "deep-scan", "family-row", "multi-row", "quadcheck", "csv"])
def test_each_command_loads_only_the_modules_it_runs(args, loaded, not_loaded):
    # a fresh process compiles every module it loads (with
    # PYTHONDONTWRITEBYTECODE, on every run), so series, gammaalg,
    # quadrature and csv wait for the command that uses them
    script = textwrap.dedent("""
        import contextlib, io, json, sys
        from bernkit.cli import main
        if sys.argv[1:]:
            with contextlib.redirect_stdout(io.StringIO()):
                try:
                    main(sys.argv[1:], standalone_mode=False)
                except SystemExit as exc:
                    assert exc.code == 0, exc.code
        print(json.dumps([m for m in %r if m in sys.modules]))
    """ % (_WATCHED,))
    env = dict(os.environ, PYTHONPATH=str(Path(bernkit.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    present = set(json.loads(done.stdout))
    assert "bernkit.floatcheck" in present
    assert loaded <= present and not present & not_loaded, present


@pytest.mark.parametrize("args, p", [
    (["--p", "-1/4"], "-1/4"), (["--p", "-1"], "-1"),
    (["--float-p", "-0.25"], -0.25), (["--float-p", "-1e-3"], -0.001),
])
def test_verify_reads_negative_values_as_values(args, p):
    # argparse alone takes -1/4, -0.25 or -1e-3 for an option string
    result = runner.invoke(main, ["verify", "--identity", "family-fpz", *args,
                                  "--n-min", "2", "--n-max", "2", "--format", "json"])
    assert result.exit_code in (0, 1), result.output
    [row] = json.loads(result.output)
    assert row["p"] == p


def test_quadcheck_reads_negative_values_as_values():
    result = runner.invoke(main, ["quadcheck", "psi_tilde_p", "--p", "-0.5", "--x", "-1",
                                  "--x", "-1e-3", "--format", "json"])
    assert result.exit_code == 1, result.output
    rows = json.loads(result.output)
    assert [(row["x"], row["p"]) for row in rows] == [(-1.0, -0.5), (-0.001, -0.5)]
    assert not any(row["ok"] for row in rows)


def test_usage_error_exit_codes():
    # no subcommand, an abbreviated option, an option missing its value,
    # an unknown option: exit 2 with the message on stderr
    for args in ([], ["verify", "--identity", "miki", "--n-max", "3", "--form", "json"],
                 ["verify", "--identity", "miki", "--n-max"],
                 ["seq", "bernoulli", "--n-max", "3", "--bogus", "-1"]):
        result = runner.invoke(main, args)
        assert result.exit_code == 2, args
        assert result.stdout_bytes == b"" and "error:" in result.output, args


@pytest.mark.parametrize("command", [[], ["seq"], ["verify"], ["series"], ["quadcheck"]])
def test_help_exits_0(command):
    result = runner.invoke(main, [*command, "--help"])
    assert result.exit_code == 0, result.output
    assert result.output.startswith("usage: bernkit")


def test_verify_help_names_the_ids_of_each_parameter():
    # the --p, --float-p and --N texts list their ids from the registry
    text = " ".join(runner.invoke(main, ["verify", "--help"]).output.split())
    family = "family-miki, family-fpz, family-mixed"
    assert f"--p P exact rational parameter of {family}, e.g. 1/2" in text
    assert f"--float-p P float parameter: evaluate {family} in double precision" in text
    assert "--N N fold count of multi, multi-bar (default 2)" in text


def test_verify_usage_errors_name_the_ids_of_each_parameter(monkeypatch):
    # the three parameter-kind messages list their ids from the registry,
    # so an id added there is named without a message edit
    def error(*args):
        result = runner.invoke(main, ["verify", *args, "--n-max", "3"])
        assert result.exit_code == 2 and result.stdout_bytes == b"", args
        return result.output.splitlines()[-1]

    family = "family-miki, family-fpz, family-mixed"
    assert error("--identity", "miki", "--p", "1") == (
        f"bernkit verify: error: --p/--float-p apply only to {family}")
    assert error("--identity", "miki", "--float-p", "0.5") == (
        f"bernkit verify: error: --p/--float-p apply only to {family}")
    assert error("--identity", "family-fpz") == (
        f"bernkit verify: error: {family} need --p or --float-p")
    assert error("--identity", "miki", "--N", "3") == (
        "bernkit verify: error: --N applies only to multi, multi-bar")
    monkeypatch.setitem(identities.IDENTITIES, "family-copy", identities.IDENTITIES["family-fpz"])
    monkeypatch.setitem(identities.IDENTITIES, "multi-copy", identities.IDENTITIES["multi"])
    assert error("--identity", "family-copy").endswith(
        f"{family}, family-copy need --p or --float-p")
    assert error("--identity", "miki", "--N", "3").endswith("multi, multi-bar, multi-copy")


def test_main_without_standalone_mode():
    # the benchmark's traced scan calls main(argv, standalone_mode=False):
    # the scan still ends in SystemExit with its code, and a usage error
    # raises instead of exiting 2
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer), pytest.raises(SystemExit) as done:
        main(["verify", "--identity", "euler", "--n-max", "3", "--format", "json"],
             standalone_mode=False)
    assert done.value.code == 0
    assert [row["n"] for row in json.loads(buffer.getvalue())] == [2, 3]
    with pytest.raises(cli_module.UsageError, match="family-miki, family-fpz, family-mixed need"):
        main(["verify", "--identity", "family-fpz", "--n-max", "3"], standalone_mode=False)
    with pytest.raises(cli_module.UsageError, match="--n-max"):
        main(["verify", "--identity", "euler"], standalone_mode=False)


def test_closed_stdout_ends_quietly():
    # a reader that stops early (bernkit seq ... | head) gets exit 1 and no
    # traceback, as under the former click front end
    env = dict(os.environ, PYTHONPATH=str(Path(bernkit.__file__).resolve().parents[1]))
    with subprocess.Popen([sys.executable, "-m", "bernkit.cli", "seq", "bernoulli", "--n-max", "1200"],
                          env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"0,1\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
    assert stderr == b""


def test_failed_rows_carry_their_reason_in_csv_and_plain():
    args = ["verify", "--identity", "gessel", "--n-min", "2", "--n-max", "3"]
    result = runner.invoke(main, args + ["--format", "csv"])
    assert result.exit_code == 1
    header, below, at = lines(result)
    assert header.endswith(",ok,error")
    assert below == 'gessel,2,,,,,,false,"gessel identity needs n >= 3, got 2"'
    assert at.startswith("gessel,3,,") and at.endswith(",true,")
    result = runner.invoke(main, args)
    assert lines(result) == [below.replace('"', ""), at]
    result = runner.invoke(
        main, ["verify", "--identity", "family-fpz", "--float-p", "0.5",
               "--n-min", "90", "--n-max", "90", "--format", "csv"])
    assert lines(result)[1].startswith("family-fpz,90,0.5,,,,,false,")
    assert "double range" in lines(result)[1]



@pytest.mark.parametrize("args, columns", [
    (["seq", "euler", "--n-max", "6"], ("n", "value")),
    (["series", "psi_bar", "--order", "6"], ("order", "coeff")),
    (["verify", "--identity", "gessel", "--identity", "family-miki", "--p", "-1", "--p", "1/2",
      "--float-p", "0.5", "--n-min", "2", "--n-max", "3"],
     ("identity", "n", "p", "N", "lhs", "rhs", "residual", "ok", "error")),
    (["quadcheck", "psi_tilde", "--x", "0.5", "--x", "5", "--x", "1e4"],
     ("name", "x", "p", "value", "target", "abs_dev", "tol", "est_error", "ok", "error")),
])
def test_output_formats_agree(args, columns):
    # csv gives the header and each json row's cells; plain joins them by ','
    out = {fmt: runner.invoke(main, [*args, "--format", fmt]).stdout_bytes.decode()
           for fmt in ("json", "csv", "plain")}
    rows = json.loads(out["json"])
    if isinstance(rows[0], dict):
        assert {row["ok"] for row in rows} == {True, False}
        rows = [[row.get(c, "") for c in columns] for row in rows]
    cells = [["true" if v is True else "false" if v is False else str(v) for v in row] for row in rows]
    assert list(csv.reader(io.StringIO(out["csv"]))) == [list(columns), *cells]
    assert out["plain"].splitlines() == [",".join(row) for row in cells]

def test_verify_family_pole_row():
    result = runner.invoke(
        main, ["verify", "--identity", "family-miki", "--p", "-1",
               "--n-max", "3", "--format", "json"])
    assert result.exit_code == 1
    rows = json.loads(result.output)
    assert all(not row["ok"] and row["p"] == "-1" for row in rows)


def test_verify_parallel_matches_serial():
    # --jobs is accepted and ignored: every value gives the same bytes and
    # exit code; the second scan mixes family ids at several exact p (a
    # pole row among them), a float p, a p1-* id and gessel
    cases = [
        (["--identity", "euler", "--identity", "miki", "--n-max", "8"], 0),
        (["--identity", "family-miki", "--identity", "family-mixed", "--identity", "p1-miki",
          "--identity", "gessel", "--n-max", "7", "--p", "1/2", "--p", "3", "--p", "-1",
          "--float-p", "0.75"], 1),
    ]
    for args, code in cases:
        args = ["verify", *args, "--format", "csv"]
        serial, *others = (runner.invoke(main, args + ["--jobs", jobs]) for jobs in ("1", "2", "4"))
        for other in others:
            assert serial.exit_code == other.exit_code == code
            assert serial.stdout_bytes == other.stdout_bytes
    rows = list(csv.DictReader(serial.output.splitlines()))
    assert {row["identity"] for row in rows} == {"family-miki", "family-mixed", "p1-miki", "gessel"}
    assert {row["p"] for row in rows} == {"", "1/2", "3", "-1", "0.75"}
    assert {row["identity"] for row in rows if row["ok"] == "false"} == {"family-miki", "family-mixed"}


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_reduces_each_product_once_per_point(monkeypatch, jobs):
    # the family rows at one n share the reductions of each p, a p1-* row's
    # rerun at p = 1 included, so each factor tuple is reduced once per
    # (n, p) at any --jobs and in any order of --identity and --p
    calls = []
    real = gammaalg.gamma_reduce_pair

    def counted(g, p):
        calls.append((g.factors, p))
        return real(g, p)

    monkeypatch.setattr(gammaalg, "gamma_reduce_pair", counted)
    distinct = [{product.factors for product, _ in sum(family_pairs("miki", n), ())}
                for n in range(2, 7)]
    forward = ["--identity", "family-miki", "--identity", "family-fpz", "--identity", "family-mixed",
               "--identity", "p1-mixed", "--p", "1/2", "--p", "1"]
    reverse = ["--identity", "p1-mixed", "--identity", "family-mixed", "--identity", "family-fpz",
               "--identity", "family-miki", "--p", "1", "--p", "1/2"]
    outputs = []
    for order in (forward, reverse):
        monkeypatch.setattr(sequences, "_DEFAULT", sequences.SequenceCache())
        calls.clear()
        result = runner.invoke(main, ["verify", *order, "--n-min", "2", "--n-max", "6",
                                      "--jobs", jobs])
        assert result.exit_code == 0, result.output
        assert len(calls) == len(set(calls)) == 2 * sum(map(len, distinct)), order
        outputs.append(result.stdout_bytes)
    assert outputs[0] == outputs[1]


def test_pair_sum_scan_is_the_same_in_either_identity_order(monkeypatch):
    # the rows that share the binomial B products and the power-of-four
    # sums S_j at one n, in both orders, each on a fresh cache
    forward = ("euler", "mixed", "euler-bernoulli", "fpz", "miki-modified")
    outputs = []
    for order in (forward, forward[::-1]):
        monkeypatch.setattr(sequences, "_DEFAULT", sequences.SequenceCache())
        result = runner.invoke(main, ["verify", *(a for i in order for a in ("--identity", i)),
                                      "--n-min", "20", "--n-max", "30", "--format", "csv"])
        assert result.exit_code == 0, result.output
        outputs.append(result.stdout_bytes)
    assert outputs[0] == outputs[1]


def test_deep_scan_is_the_same_under_optimize():
    # the deep ids that read the power-of-four sums, in fresh interpreters
    # with and without -O: no row may depend on an assert statement
    deep = ("miki-modified", "euler-bernoulli", "fpz", "mixed")
    scan = ["-m", "bernkit.cli", "verify", *(a for i in deep for a in ("--identity", i)),
            "--n-min", "200", "--n-max", "201", "--format", "csv"]
    env = dict(os.environ, PYTHONPATH=str(Path(bernkit.__file__).resolve().parents[1]))
    outputs = []
    for flags in ([], ["-O"]):
        done = subprocess.run([sys.executable, *flags, *scan], env=env,
                              capture_output=True, timeout=300)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    rows = list(csv.DictReader(io.StringIO(outputs[0].decode())))
    assert len(rows) == 8 and all(row["ok"] == "true" for row in rows)
    assert outputs[0] == outputs[1]


def test_decimal_and_ratio_p_give_the_same_rows(monkeypatch):
    # 0.5 and -0.25 are exact p values, parsed to the Fractions 1/2 and -1/4
    outputs = []
    for ps in (("0.5", "-0.25", "1"), ("1/2", "-1/4", "1")):
        monkeypatch.setattr(sequences, "_DEFAULT", sequences.SequenceCache())
        result = runner.invoke(main, ["verify", "--identity", "family-mixed", "--identity", "p1-mixed",
                                      *(a for p in ps for a in ("--p", p)),
                                      "--n-max", "8", "--format", "csv"])
        assert result.exit_code == 0, result.output
        outputs.append(result.stdout_bytes)
    assert b",1/2," in outputs[0] and b",-1/4," in outputs[0]
    assert outputs[0] == outputs[1]


def test_family_scan_parses_each_p_once(monkeypatch):
    # verify parses each --p once, into the Fraction its exact rows take,
    # so no row converts p again; a float p still selects the float lane
    calls = []
    real = sequences._rational

    def counted(what, value):
        calls.append((what, value))
        return real(what, value)

    for module in (sequences, identities, bernkit.gammaalg):
        monkeypatch.setattr(module, "_rational", counted)
    monkeypatch.setattr(sequences, "_DEFAULT", sequences.SequenceCache())
    args = ["verify", "--identity", "family-miki", "--identity", "family-mixed", "--p", "1/2",
            "--p", "-0.25", "--p", "2/4", "--float-p", "0.75", "--n-max", "6", "--format", "json"]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    assert calls == []
    rows = json.loads(result.output)
    assert len(rows) == 2 * 5 * 3
    assert {row["p"] for row in rows} == {"1/2", "-1/4", 0.75}


@pytest.mark.parametrize("repeated, once", [
    (["--identity", "miki", "--identity", "euler", "--identity", "miki"],
     ["--identity", "miki", "--identity", "euler"]),
    (["--identity", "family-fpz", "--p", "1", "--p", "2/2", "--p", "1/2", "--p", "2/4"],
     ["--identity", "family-fpz", "--p", "1", "--p", "1/2"]),
    (["--identity", "family-fpz", "--float-p", "0.5", "--float-p", "0.50", "--float-p", "1.5"],
     ["--identity", "family-fpz", "--float-p", "0.5", "--float-p", "1.5"]),
], ids=["identity", "p", "float-p"])
def test_verify_repeated_values_give_each_row_once(repeated, once):
    # a repeated value, equal rationals and equal floats included, is one value
    args = ["verify", "--n-max", "4"]
    result = runner.invoke(main, args + repeated)
    assert result.exit_code == 0, result.output
    assert result.output == runner.invoke(main, args + once).output
    assert len(set(lines(result))) == len(lines(result))


def test_verify_reads_no_jobs_variable():
    args = ["verify", "--identity", "euler", "--n-max", "6"]
    result = runner.invoke(main, args, env={"BERNKIT_JOBS": "abc"})
    assert result.exit_code == 0, result.output
    assert result.output == runner.invoke(main, args).output


def test_series_json_dump():
    result = runner.invoke(
        main, ["series", "psi_tilde", "--order", "6", "--format", "json"])
    assert result.exit_code == 0
    assert json.loads(result.output) == [[2, "-1/12"], [4, "1/120"], [6, "-1/252"]]


def test_series_inline_parameter():
    result = runner.invoke(main, ["series", "psi_tilde_deriv(2)", "--order", "8"])
    assert result.exit_code == 0
    expected = series_engine.named_series("psi_tilde_deriv", 8, p=2)
    assert lines(result) == [f"{m},{c}" for m, c in expected.items()]


@pytest.mark.parametrize("name", [
    "psi_tilde_deriv(x)", "psi_tilde_deriv", "psi_tilde_deriv(-1)", "sech(1)", "nope(1)",
])
def test_series_inline_parameter_errors(name):
    # a bad, missing or negative p, or a p on a series that takes none
    result = runner.invoke(main, ["series", name, "--order", "6"])
    assert result.exit_code == 2, result.output


def test_series_usage_errors():
    assert runner.invoke(main, ["series", "nope", "--order", "4"]).exit_code == 2
    assert runner.invoke(main, ["series", "b", "--order", "-1"]).exit_code == 2


def test_quadcheck_default_grid():
    result = runner.invoke(main, ["quadcheck", "psi_tilde"])
    assert result.exit_code == 0
    rows = lines(result)
    assert len(rows) == 3
    assert all(row.endswith(",true,") for row in rows)


@pytest.mark.parametrize("name, p", [
    ("psi_tilde", None), ("psi_bar", None), ("psi_tilde_p", None), ("psi_bar_p", None), ("g", None),
    *[(name, p) for name in ("psi_tilde_p", "psi_bar_p") for p in ("0.5", "1", "2", "3", "5")],
])
def test_quadcheck_default_grid_passes(name, p):
    # the bare command, and the weighted names at each listed --p
    args = ["--p", p] if p else []
    result = runner.invoke(main, ["quadcheck", name, *args, "--format", "json"])
    assert result.exit_code == 0, result.output
    rows = json.loads(result.output)
    assert [row["x"] for row in rows] == [5.0, 10.0, 20.0]
    assert all(row["ok"] for row in rows)


def test_quadcheck_below_the_default_grid_is_unverified():
    result = runner.invoke(main, ["quadcheck", "g", "--x", "2", "--format", "json"])
    assert result.exit_code == 1
    [row] = json.loads(result.output)
    assert row["ok"] is False and row["error"].startswith("target unverified")


def test_quadcheck_far_x_is_a_failed_row():
    result = runner.invoke(
        main, ["quadcheck", "psi_tilde", "--x", "1e4", "--x", "1e6", "--x", "5", "--format", "json"])
    assert result.exit_code == 1, result.output
    rows = json.loads(result.output)
    assert [row["ok"] for row in rows] == [True, False, False]
    assert all("exceeds the tolerance" in row["error"] for row in rows[1:])


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
    # g has no _p variant, and its row names none
    result = runner.invoke(main, ["quadcheck", "g", "--p", "3", "--x", "5", "--format", "json"])
    assert result.exit_code == 1
    [row] = json.loads(result.output)
    assert row["ok"] is False and "g_p" not in row["error"]
    assert "psi_tilde_p" in row["error"] and "psi_bar_p" in row["error"]


def test_quadcheck_loose_series_target_is_unverified():
    # the omitted term at x = 1 is 6.7e-3: a deviation of 3.5e-3 used to pass
    result = runner.invoke(
        main, ["quadcheck", "psi_tilde_p", "--p", "0.5", "--x", "1", "--format", "json"])
    assert result.exit_code == 1
    [row] = json.loads(result.output)
    assert row["ok"] is False and row["abs_dev"] <= row["tol"] and row["tol"] > 1e-6
    assert row["error"].startswith("target unverified")


@pytest.mark.parametrize("name", ["psi_tilde_p", "psi_bar_p"])
def test_quadcheck_smallest_first_term_is_unverified(name):
    # the series' first term is its smallest, so the target is 0: that is
    # an unverified target, not one below the normal double range
    result = runner.invoke(main, ["quadcheck", name, "--p", "5.5", "--x", "1", "--format", "json"])
    assert result.exit_code == 1
    [row] = json.loads(result.output)
    assert row["ok"] is False and math.isfinite(row["value"])
    assert row["error"].startswith("target unverified")


def test_quad_json_row_fields():
    result = runner.invoke(main, ["quadcheck", "psi_tilde", "--x", "5", "--format", "json"])
    [row] = json.loads(result.output)
    assert list(row) == ["name", "x", "p", "value", "target", "abs_dev", "tol", "est_error", "ok"]
    assert row["ok"] is True
    assert row["tol"] == 1e-8 and 0 <= row["est_error"] <= 1e-8
    # a row that ran and failed keeps its values and adds its reason
    result = runner.invoke(main, ["quadcheck", "g", "--x", "1", "--format", "json"])
    [row] = json.loads(result.output)
    assert list(row) == ["name", "x", "p", "value", "target", "abs_dev", "tol", "est_error", "ok",
                         "error"]
    assert row["ok"] is False and row["error"] == quadrature.quad_rep("g", 1.0).error
    # a row that could not run has no values at all
    result = runner.invoke(
        main, ["quadcheck", "psi_tilde_p", "--p", "1000", "--x", "5", "--format", "json"])
    [row] = json.loads(result.output)
    assert list(row) == ["name", "x", "p", "ok", "error"]


@pytest.mark.parametrize("p, x", [("1000", "5"), ("1100", "30"), ("170.5", "30")])
def test_quadcheck_overflow_is_a_failed_row(p, x):
    # the weight s**p, the prefactor (-2)**p and math.gamma of the target
    # each leave the double range at one of these points
    result = runner.invoke(
        main, ["quadcheck", "psi_tilde_p", "--p", p, "--x", x, "--format", "json"])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    [row] = json.loads(result.output)
    assert row["ok"] is False and "value" not in row
    assert row["error"] == f"psi_tilde_p at x = {float(x)}, p = {float(p)} leaves the double range"


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
    cache.harmonic_second(5)
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


def test_poisoned_fold_prefix_fails_the_cubic_rows_at_its_n(monkeypatch):
    # F_9 = sum(H_l/(l+1), l=1..9) is H_{10,2} by the folded route: the
    # cubic rows at n = 5 fail its check against the symmetric form, and no
    # other row reads it
    cache = sequences.SequenceCache()
    cache.harmonic_second(8)
    cache.hfold[9] += 1
    monkeypatch.setattr(sequences, "_DEFAULT", cache)
    with pytest.raises(bernkit.RouteMismatch, match="symmetric form"):
        sequences.harmonic_second(5)
    cubic = ("gessel", "gessel-modified", "fpz-cubic")
    result = runner.invoke(main, ["verify", *(a for i in (*cubic, "multi") for a in ("--identity", i)),
                                  "--N", "3", "--n-min", "3", "--n-max", "7", "--format", "json"])
    assert result.exit_code == 1, result.output
    rows = {(row["identity"], row["n"]): row for row in json.loads(result.output)}
    for ident in cubic:
        assert [rows[ident, n]["ok"] for n in range(3, 8)] == [True, True, False, True, True]
        assert "symmetric form" in rows[ident, 5]["error"]
    assert all(rows["multi", n]["ok"] for n in range(3, 8))


@pytest.mark.parametrize("table, index", [("harm2", 10), ("hfold", 9)])
def test_table_poisoned_after_a_clean_read_fails_the_next_read(monkeypatch, table, index):
    # H_{10,2} reads H^(2)_10 and F_9; no checked value is kept, so a
    # poisoned entry fails every later read of H_{10,2}, and so the cubic
    # rows at n = 5, though n = 5 was read cleanly before
    cache = sequences.SequenceCache()
    cache.harmonic_second(5)
    getattr(cache, table)[index] += 1
    monkeypatch.setattr(sequences, "_DEFAULT", cache)
    with pytest.raises(bernkit.RouteMismatch, match="symmetric form"):
        sequences.harmonic_second(5)
    result = runner.invoke(main, ["verify", "--identity", "gessel", "--identity", "fpz-cubic",
                                  "--n-min", "3", "--n-max", "5", "--format", "json"])
    assert result.exit_code == 1, result.output
    rows = {(row["identity"], row["n"]): row for row in json.loads(result.output)}
    for ident in ("gessel", "fpz-cubic"):
        assert [rows[ident, n]["ok"] for n in (3, 4, 5)] == [True, True, False]
        assert "symmetric form" in rows[ident, 5]["error"]


def test_poisoned_coth_weight_fails_the_cubic_rows_that_read_it(monkeypatch):
    # the coth weight _fold("coth", 1, 4) = B_8/(8 * 8!) enters the coth
    # folds of all three cubic right sides from n = 6 on, and the triple sums
    # of the modified Gessel and cubic FPZ forms read it directly as well;
    # the multi rows fold other weights
    ids = ("gessel", "gessel-modified", "fpz-cubic", "multi", "multi-bar")

    def scan(cache):
        monkeypatch.setattr(sequences, "_DEFAULT", cache)
        cache.fold["coth"][1, 4] += 1
        result = runner.invoke(main, ["verify", *(a for i in ids for a in ("--identity", i)),
                                      "--N", "3", "--n-min", "3", "--n-max", "9", "--format", "json"])
        assert result.exit_code == 1, result.output
        ok = {(row["identity"], row["n"]): row["ok"] for row in json.loads(result.output)}
        assert all(ok[ident, n] for ident in ids[3:] for n in range(3, 10))
        return {ident: [ok[ident, n] for n in range(3, 10)] for ident in ids[:3]}

    below = [n < 6 for n in range(3, 10)]
    cache = sequences.SequenceCache()
    monkeypatch.setattr(sequences, "_DEFAULT", cache)
    identities._fold("coth", 1, 4)
    assert scan(cache) == dict.fromkeys(ids[:3], below)
    # with every coth fold of two and three parts summed before the poison,
    # only the direct reads of the weight remain
    cache = sequences.SequenceCache()
    monkeypatch.setattr(sequences, "_DEFAULT", cache)
    for n in range(3, 10):
        identities._fold("coth", 3, n)
    assert scan(cache) == {"gessel": [True] * 7, "gessel-modified": below, "fpz-cubic": below}


@pytest.mark.parametrize("j, readers", [
    (0, {"miki-modified", "fpz", "mixed", "euler-bernoulli"}),
    (1, {"fpz", "mixed", "euler-bernoulli"}),
    (2, {"euler-bernoulli"}),
])
def test_poisoned_power_of_four_sum_fails_the_rows_that_read_it(monkeypatch, j, readers):
    # S_j + 1 after all six deep ids ran at n = 9: the rows whose right
    # sides are combinations of S_j fail, euler and miki sum their own
    deep = ("euler", "miki", "miki-modified", "fpz", "mixed", "euler-bernoulli")
    cache = sequences.SequenceCache()
    monkeypatch.setattr(sequences, "_DEFAULT", cache)
    assert all(cli_module._run_task((ident, 9, None, None))["ok"] for ident in deep)
    cache.slot[1]["shifted", j] += 1
    rows = {ident: cli_module._run_task((ident, 9, None, None)) for ident in deep}
    assert {ident for ident, row in rows.items() if not row["ok"]} == readers
    if j == 0:
        assert "the H_2n form" in rows["miki-modified"]["error"]


def test_poisoned_rising_table_fails_the_rows_that_read_it(monkeypatch):
    # gamma_reduce reads (1)_8 from the table at p = 1: the rows whose terms
    # carry Gamma(p+8) fail, n < 4 and every row at p = 2 stay ok
    cache = sequences.SequenceCache()
    cache.rising_factorial(F(1), 14)
    num, den = cache.rising[1, 1][8]
    cache.rising[1, 1][8] = num + den, den
    monkeypatch.setattr(sequences, "_DEFAULT", cache)
    result = runner.invoke(main, ["verify", "--identity", "family-miki", "--p", "1", "--p", "2",
                                  "--n-max", "6", "--format", "json"])
    assert result.exit_code == 1, result.output
    ok = {(row["n"], row["p"]): row["ok"] for row in json.loads(result.output)}
    reads = {
        n: any(factor[:2] == ("p", 8) for product, _ in sum(family_pairs("miki", n), ())
               for factor in product.factors)
        for n in range(2, 7)
    }
    assert reads == {2: False, 3: False, 4: True, 5: True, 6: True}
    assert {n: not ok[n, "1"] for n in range(2, 7)} == reads
    assert all(ok[n, "2"] for n in range(2, 7))
