"""Command-line front end.

Subcommands: sequence tables (seq), identity scans (verify), series
coefficient dumps (series), quadrature checks (quadcheck).  Every
subcommand emits plain/csv/json and uses CI-friendly exit codes: 0 all
checks ok, 1 some check failed, 2 usage error.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from fractions import Fraction
from concurrent.futures import ProcessPoolExecutor

import click

from . import floatcheck, identities, sequences
from . import series as series_engine
from .errors import BernkitError, DomainError, QuadFailure, UnknownName

_FORMATS = ("plain", "csv", "json")
_SEQ_KINDS = ("bernoulli", "bbar", "euler", "harmonic", "h2")

_REPORT_COLUMNS = ("identity", "n", "p", "lhs", "rhs", "residual", "ok", "error")
_QUAD_COLUMNS = ("name", "x", "p", "value", "target", "abs_dev", "tol", "est_error", "ok", "error")


def _run_task(task: tuple) -> dict:
    """One scan row; top level so worker processes can pickle it."""
    mode, ident, n, p, n_parts = task
    try:
        if mode == "floatfam":
            report = floatcheck.family_float(ident.removeprefix("family-"), n, p)
        elif ident.startswith("family-"):
            report = identities.verify_family(ident.removeprefix("family-"), n, Fraction(p))
        elif ident.startswith("p1-"):
            report = identities.verify_p1(ident.removeprefix("p1-"), n)
        elif ident.startswith("multi"):
            report = identities.verify_multi(n_parts, n, "bar" if ident == "multi-bar" else "plain")
        else:
            # each remaining id names its verifier: miki-modified -> verify_miki_modified
            report = getattr(identities, "verify_" + ident.replace("-", "_"))(n)
        return report.as_dict()
    except BernkitError as exc:
        row = {
            "identity": ident,
            "n": n,
            "lhs": "",
            "rhs": "",
            "residual": "",
            "ok": False,
            "error": str(exc) or exc.__class__.__name__,
        }
        if p is not None:
            row["p"] = p
        return row


def _row_key(row: dict):
    return (row["identity"], row["n"], str(row.get("p", "")), row.get("N") or 0)


def _echo_csv(columns, rows) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow(row)


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _emit_reports(rows: list[dict], fmt: str, columns: tuple = _REPORT_COLUMNS) -> None:
    if fmt == "json":
        click.echo(json.dumps(rows, indent=2))
        return
    table = [[_format_cell(r.get(c)) for c in columns] for r in rows]
    if fmt == "csv":
        _echo_csv(columns, table)
    else:
        for cells in table:
            click.echo(",".join(cells))


def _emit_pairs(rows: list[tuple], fmt: str, columns: tuple) -> None:
    if fmt == "json":
        click.echo(json.dumps([list(r) for r in rows]))
    elif fmt == "csv":
        _echo_csv(columns, rows)
    else:
        for row in rows:
            click.echo(",".join(str(c) for c in row))


@click.group()
def main() -> None:
    """Exact Bernoulli/Euler convolution-identity toolkit."""


@main.command()
@click.argument("kind", type=click.Choice(_SEQ_KINDS))
@click.option("--n-max", type=int, required=True, help="largest index to print")
@click.option("--format", "fmt", type=click.Choice(_FORMATS), default="plain")
def seq(kind: str, n_max: int, fmt: str) -> None:
    """Print a sequence table from index 0 (even indices for euler)."""
    if n_max < 0:
        raise click.UsageError(f"--n-max must be >= 0, got {n_max}")
    getter = {
        "bernoulli": sequences.bernoulli,
        "bbar": sequences.bernoulli_bar,
        "euler": sequences.euler_number,
        "harmonic": sequences.harmonic,
        "h2": sequences.harmonic_second,
    }[kind]
    step = 2 if kind == "euler" else 1
    rows = [(i, str(getter(i))) for i in range(0, n_max + 1, step)]
    _emit_pairs(rows, fmt, ("n", "value"))


@main.command()
@click.option("--identity", "idents", multiple=True, required=True,
              type=click.Choice(list(identities.FLOORS)), help="identity id; repeatable")
@click.option("--n-min", type=int, default=None,
              help="first n (default: the identity's own floor)")
@click.option("--n-max", type=int, required=True)
@click.option("--p", "p_values", multiple=True,
              help="exact rational parameter for family identities, e.g. 1/2")
@click.option("--N", "n_parts", type=int, default=None,
              help="fold count for the multi identities (default 2)")
@click.option("--float-p", "float_ps", multiple=True, type=float,
              help="float parameter: evaluate a family in double precision")
@click.option("--format", "fmt", type=click.Choice(_FORMATS), default="plain")
@click.option("--jobs", type=click.IntRange(min=1), default=1, envvar="BERNKIT_JOBS",
              help="worker processes (default: BERNKIT_JOBS or 1)")
def verify(idents, n_min, n_max, p_values, n_parts, float_ps, fmt, jobs) -> None:
    """Scan identities over a range of n; exit 0 iff every row is ok."""
    exact_ps = []
    for text in p_values:
        try:
            exact_ps.append(str(Fraction(text)))
        except (ValueError, ZeroDivisionError):
            raise click.UsageError(f"--p values must be exact rationals, got {text!r}")
    if not all(math.isfinite(fp) for fp in float_ps):
        raise click.UsageError(f"--float-p values must be finite, got {float_ps}")
    family_ids = [i for i in idents if i.startswith("family-")]
    if (exact_ps or float_ps) and not family_ids:
        raise click.UsageError("--p/--float-p apply only to family-* identities")
    if family_ids and not exact_ps and not float_ps:
        raise click.UsageError("family-* identities need --p or --float-p")

    tasks = []
    for ident in idents:
        floor = identities.FLOORS[ident]
        parts = None
        if ident in ("multi", "multi-bar"):
            parts = n_parts if n_parts is not None else 2
            if parts < 2:
                raise click.UsageError(f"--N must be >= 2, got {parts}")
            floor = max(floor, parts)
        lo = n_min if n_min is not None else floor
        if lo > n_max:
            raise click.UsageError(f"empty scan range for {ident}: {lo}..{n_max}")
        for n in range(lo, n_max + 1):
            if ident.startswith("family-"):
                for p_str in exact_ps:
                    tasks.append(("exact", ident, n, p_str, None))
                for fp in float_ps:
                    tasks.append(("floatfam", ident, n, fp, None))
            else:
                tasks.append(("exact", ident, n, None, parts))

    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_run_task, tasks))
    else:
        rows = [_run_task(task) for task in tasks]
    rows.sort(key=_row_key)
    _emit_reports(rows, fmt)
    sys.exit(0 if all(row["ok"] for row in rows) else 1)


@main.command()
@click.argument("name")
@click.option("--order", type=int, required=True)
@click.option("--format", "fmt", type=click.Choice(_FORMATS), default="plain")
def series(name: str, order: int, fmt: str) -> None:
    """Dump the exact coefficients of a named series through --order."""
    if order < 0:
        raise click.UsageError(f"--order must be >= 0, got {order}")
    try:
        expansion = series_engine.named_series(name, order)
    except (UnknownName, DomainError) as exc:
        raise click.UsageError(str(exc))
    rows = [(m, str(c)) for m, c in expansion.items()]
    _emit_pairs(rows, fmt, ("order", "coeff"))


@main.command()
@click.argument("name")
@click.option("--x", "xs", multiple=True, type=float,
              help="grid point; repeatable (default 2, 5, 10)")
@click.option("--p", type=float, default=0.0)
@click.option("--format", "fmt", type=click.Choice(_FORMATS), default="plain")
def quadcheck(name: str, xs, p: float, fmt: str) -> None:
    """Compare integral representations against their targets on a grid."""
    if name not in floatcheck.QUAD_NAMES:
        raise click.UsageError(
            f"unknown representation {name!r}; known: {', '.join(floatcheck.QUAD_NAMES)}")
    bad = [v for v in (*xs, p) if not math.isfinite(v)]
    if bad:
        raise click.UsageError(f"--x and --p must be finite, got {bad}")
    grid = sorted(xs) if xs else [2.0, 5.0, 10.0]
    rows = []
    for x in grid:
        try:
            rows.append(floatcheck.quad_rep(name, x, p).as_dict())
        except (DomainError, QuadFailure) as exc:
            rows.append({**dict.fromkeys(_QUAD_COLUMNS), "name": name, "x": x, "p": p,
                         "ok": False, "error": str(exc)})
    _emit_reports(rows, fmt, _QUAD_COLUMNS)
    sys.exit(0 if all(row["ok"] for row in rows) else 1)


if __name__ == "__main__":
    main()
