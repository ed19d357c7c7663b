"""Command-line front end.

Subcommands: sequence tables (seq), identity scans (verify), series
coefficient dumps (series), quadrature checks (quadcheck).  Every
subcommand emits plain/csv/json and uses CI-friendly exit codes: 0 all
checks ok, 1 some check failed, 2 usage error.

The parser is the standard library's argparse, and every result record is
a typing.NamedTuple, so a scan process loads neither a third-party
package nor dataclasses and inspect before its first row.  Importing
this module loads identities, sequences, errors and floatcheck; csv,
``series`` and ``quadrature`` are imported by the commands that use
them (--format csv, series, quadcheck), and ``identities`` imports
``series`` and ``gammaalg`` only for the rows that read them, so a
process compiles only the modules its command runs.  Every option
here takes one value, and main joins a value that starts with '-' to its
option (--p=-1/4) before parsing, because argparse would read -1/4,
-0.25 or -1e-3 as an option of its own.  Options may not be abbreviated.
A usage error prints the usage line and an argparse-style message
("bernkit verify: error: ...") on stderr and exits 2.

Every verify and quadcheck row is built by _row from its result's fields,
so the column tuples here are the one statement of each row layout.

verify reads every fact about an identity id from identities.IDENTITIES:
its floor, its runner and its parameter kind, which decides whether a row
takes --p/--float-p or --N.  The help texts and usage errors of those
options list the ids of their kind from the same registry.  verify runs
its rows n by n, so the rows at one n share the work that ``identities``
keeps in the cache's per-n slot, and sorts them for output.

A verify scan runs in one process.  `verify --jobs` is accepted and
checked (an integer >= 1) but ignored, until the benchmark retires it
together with its --jobs 2 workload.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from types import SimpleNamespace

from . import identities, sequences
# after identities, so that floatcheck's line under `python -X importtime`
# is the float twin's own import, as the benchmark's trace reads it
from . import floatcheck
from .errors import BernkitError, DomainError, QuadFailure, UnknownName

_FORMATS = ("plain", "csv", "json")
_SEQ_KINDS = ("bernoulli", "bbar", "euler", "harmonic", "h2")

_REPORT_COLUMNS = ("identity", "n", "p", "N", "lhs", "rhs", "residual", "ok", "error")
_QUAD_COLUMNS = ("name", "x", "p", "value", "target", "abs_dev", "tol", "est_error", "ok", "error")


class UsageError(Exception):
    """A bad command line; ``parser`` is the (sub)command it was given to,
    or None when the command itself found it."""

    def __init__(self, message: str, parser: argparse.ArgumentParser | None = None) -> None:
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        raise UsageError(message, self)


def _row(result, columns: tuple) -> dict:
    """The output row of one result: its fields in column order, a missing
    or None field left out, a Fraction written as str."""
    return {c: str(v) if isinstance(v, Fraction) else v
            for c in columns if (v := getattr(result, c, None)) is not None}


def _ids(param: str) -> str:
    """The ids whose parameter kind is ``param``, for a help text or a usage error."""
    return ", ".join(i for i, spec in identities.IDENTITIES.items() if spec.param == param)


def _run_task(task: tuple) -> dict:
    """One scan row, run with its p or its N; a float p selects the float lane."""
    ident, n, p, n_parts = task
    try:
        if isinstance(p, float):
            report = floatcheck.family_float(ident.removeprefix("family-"), n, p)
        else:
            report = identities.IDENTITIES[ident].run(n, n_parts if p is None else p)
    except BernkitError as exc:
        report = SimpleNamespace(identity=ident, n=n, p=p, N=n_parts, lhs="", rhs="", residual="",
                                 ok=False, error=str(exc) or exc.__class__.__name__)
    return _row(report, _REPORT_COLUMNS)


def _row_key(row: dict):
    return (row["identity"], row["n"], str(row.get("p", "")), row.get("N") or 0)


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _emit(rows: list[dict], fmt: str, columns: tuple, pairs: bool = False) -> None:
    """Print rows as csv (a header, then each row's cells in column order),
    plain (those cells joined by ',') or json: the rows themselves, or for
    the seq and series ``pairs`` one [cell, cell] list per row."""
    if fmt == "json":
        print(json.dumps([[r[c] for c in columns] for r in rows]) if pairs
              else json.dumps(rows, indent=2))
        return
    table = [[_format_cell(r.get(c, "")) for c in columns] for r in rows]
    if fmt == "csv":
        import csv

        csv.writer(sys.stdout, lineterminator="\n").writerows([columns, *table])
    else:
        for cells in table:
            print(",".join(cells))


def seq(kind: str, n_max: int, fmt: str) -> None:
    """Print a sequence table from index 0 (even indices for euler)."""
    if n_max < 0:
        raise UsageError(f"--n-max must be >= 0, got {n_max}")
    getter = {
        "bernoulli": sequences.bernoulli,
        "bbar": sequences.bernoulli_bar,
        "euler": sequences.euler_number,
        "harmonic": sequences.harmonic,
        "h2": sequences.harmonic_second,
    }[kind]
    step = 2 if kind == "euler" else 1
    rows = [{"n": i, "value": str(getter(i))} for i in range(0, n_max + 1, step)]
    _emit(rows, fmt, ("n", "value"), pairs=True)


def verify(idents, n_min, n_max, p_values, n_parts, float_ps, fmt, jobs) -> None:
    """Scan identities over a range of n; exit 0 iff every row is ok.
    A repeated --identity, --p or --float-p value gives its rows once."""
    if jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {jobs}")
    exact_ps = []
    for text in p_values:
        try:
            exact_ps.append(Fraction(text))
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"--p values must be exact rationals, got {text!r}")
    if not all(math.isfinite(fp) for fp in float_ps):
        raise UsageError(f"--float-p values must be finite, got {tuple(float_ps)}")
    idents, exact_ps, float_ps = (tuple(dict.fromkeys(v)) for v in (idents, exact_ps, float_ps))
    params = {identities.IDENTITIES[i].param for i in idents}
    if (exact_ps or float_ps) and "p" not in params:
        raise UsageError(f"--p/--float-p apply only to {_ids('p')}")
    if "p" in params and not exact_ps and not float_ps:
        raise UsageError(f"{_ids('p')} need --p or --float-p")
    if n_parts is not None and "N" not in params:
        raise UsageError(f"--N applies only to {_ids('N')}")

    # a task is (ident, n, p, n_parts); a family row's p is a Fraction on
    # the exact lane and a float on the float lane: its type picks the lane
    tasks = []
    for ident in idents:
        spec = identities.IDENTITIES[ident]
        floor, parts = spec.floor, None
        if spec.param == "N":
            parts = n_parts if n_parts is not None else 2
            if parts < 2:
                raise UsageError(f"--N must be >= 2, got {parts}")
            floor = max(floor, parts)
        lo = n_min if n_min is not None else floor
        if lo > n_max:
            raise UsageError(f"empty scan range for {ident}: {lo}..{n_max}")
        for n in range(lo, n_max + 1):
            if spec.param == "p":
                tasks.extend((ident, n, p, None) for p in (*exact_ps, *float_ps))
            else:
                tasks.append((ident, n, None, parts))

    rows = sorted(map(_run_task, sorted(tasks, key=lambda task: task[1])), key=_row_key)
    _emit(rows, fmt, _REPORT_COLUMNS)
    sys.exit(0 if all(row["ok"] for row in rows) else 1)


def series(name: str, order: int, fmt: str) -> None:
    """Dump the exact coefficients of a named series through --order.
    A derivative series takes its integer p inline: psi_tilde_deriv(2)."""
    if order < 0:
        raise UsageError(f"--order must be >= 0, got {order}")
    base, p = name, None
    if name.endswith(")") and "(" in name:
        base, _, arg = name.partition("(")
        try:
            p = int(arg[:-1])
        except ValueError:
            raise UsageError(f"bad series parameter in {name!r}")
    from .series import named_series

    try:
        expansion = named_series(base, order, p=p)
    except (UnknownName, DomainError) as exc:
        raise UsageError(str(exc))
    rows = [{"order": m, "coeff": str(c)} for m, c in expansion.items()]
    _emit(rows, fmt, ("order", "coeff"), pairs=True)


def quadcheck(name: str, xs, p: float, fmt: str) -> None:
    """Compare integral representations against their targets on a grid."""
    from .quadrature import QUAD_NAMES, quad_rep

    if name not in QUAD_NAMES:
        raise UsageError(f"unknown representation {name!r}; known: {', '.join(QUAD_NAMES)}")
    bad = [v for v in (*xs, p) if not math.isfinite(v)]
    if bad:
        raise UsageError(f"--x and --p must be finite, got {bad}")
    grid = sorted(xs) if xs else [5.0, 10.0, 20.0]
    rows = []
    for x in grid:
        try:
            result = quad_rep(name, x, p)
        except (DomainError, QuadFailure) as exc:
            result = SimpleNamespace(name=name, x=x, p=p, ok=False, error=str(exc))
        rows.append(_row(result, _QUAD_COLUMNS))
    _emit(rows, fmt, _QUAD_COLUMNS)
    sys.exit(0 if all(row["ok"] for row in rows) else 1)


def _parser() -> _Parser:
    parser = _Parser(prog="bernkit", allow_abbrev=False,
                     description="Exact Bernoulli/Euler convolution-identity toolkit.")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(fn):
        sub = commands.add_parser(fn.__name__, allow_abbrev=False, description=fn.__doc__,
                                  help=fn.__doc__.split("\n")[0])
        sub.set_defaults(command=fn, parser=sub)
        sub.add_argument("--format", dest="fmt", choices=_FORMATS, default="plain")
        return sub

    sub = command(seq)
    sub.add_argument("kind", choices=_SEQ_KINDS)
    sub.add_argument("--n-max", type=int, required=True, help="largest index to print")

    sub = command(verify)
    sub.add_argument("--identity", dest="idents", action="append", required=True,
                     choices=list(identities.IDENTITIES), metavar="ID",
                     help="identity id; repeatable (%(choices)s)")
    sub.add_argument("--n-min", type=int, default=None,
                     help="first n (default: the identity's own floor)")
    sub.add_argument("--n-max", type=int, required=True)
    sub.add_argument("--p", dest="p_values", action="append", default=[], metavar="P",
                     help=f"exact rational parameter of {_ids('p')}, e.g. 1/2")
    sub.add_argument("--N", dest="n_parts", type=int, default=None, metavar="N",
                     help=f"fold count of {_ids('N')} (default 2)")
    sub.add_argument("--float-p", dest="float_ps", action="append", type=float, default=[],
                     metavar="P", help=f"float parameter: evaluate {_ids('p')} in double precision")
    sub.add_argument("--jobs", type=int, default=1,
                     help="accepted (>= 1) and ignored until the benchmark retires it;"
                          " a scan runs in one process")

    sub = command(series)
    sub.add_argument("name")
    sub.add_argument("--order", type=int, required=True)

    sub = command(quadcheck)
    sub.add_argument("name")
    sub.add_argument("--x", dest="xs", action="append", type=float, default=[], metavar="X",
                     help="grid point; repeatable (default 5, 10, 20)")
    sub.add_argument("--p", type=float, default=0.0)
    return parser


def _glue_values(argv: list[str]) -> list[str]:
    """``argv`` with each token that starts with '-' and follows an option
    joined to it (--p -1/4 -> --p=-1/4), so argparse reads it as the
    option's value.  Every option but --help takes one value."""
    glued: list[str] = []
    for token in argv:
        last = glued[-1] if glued else ""
        if (token[:1] == "-" and last[:2] == "--" and "=" not in last
                and last not in ("--", "--help")):
            glued[-1] = f"{last}={token}"
        else:
            glued.append(token)
    return glued


def main(argv: list[str] | None = None, standalone_mode: bool = True) -> None:
    """Run one subcommand on ``argv`` (default: the process arguments).
    verify and quadcheck exit 0 or 1 by their rows.  A usage error prints
    the usage line and its message on stderr and exits 2; with
    standalone_mode=False it raises UsageError instead.  A reader that
    closes stdout early (bernkit seq ... | head) ends the run with exit 1
    and no traceback.  Exact values are written in full, however many
    digits they have: the interpreter's int-to-str digit limit is lifted
    while main runs and restored when it returns."""
    parser = _parser()
    digit_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        args = vars(parser.parse_args(_glue_values(sys.argv[1:] if argv is None else argv)))
        command = args.pop("command")
        parser = args.pop("parser")
        command(**args)
    except UsageError as exc:
        if not standalone_mode:
            raise
        parser = exc.parser or parser
        parser.print_usage(sys.stderr)
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    except BrokenPipeError:
        # stdout goes to devnull, or the interpreter would report the closed
        # pipe again when it flushes stdout at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    finally:
        sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    main()
