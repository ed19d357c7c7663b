"""Seeded inputs for the benchmark workloads, and the gate on scan output.

Each workload is one ``bernkit verify`` scan.  ``make(name, seed)`` turns a
seed into the scan's CLI arguments and the list of rows the scan must emit;
the program under test receives only those arguments.

Seed 0 reproduces the acceptance grid p = 0, 1, 2, 3, 1/2, 3/2, 5/2, -1/4
with float p 0.75 and the deep window n = 400..403.  Any other seed keeps
p = 0 and draws seven more rationals from ``P_POOL``, a float p from
[0.05, 2.95], and shifts the deep window by up to ``DEEP_SHIFT``.  The pool
leaves out p = -1/2: there 2p is a pole anchor, the reduction takes the
cheap factorial path and a grid holding it does a tenth less work, which
would make run-to-run figures depend on the seed.  p = 0 takes that path
too and is in every grid, so the path is always exercised.

Each workload also names the ``calibrator.py`` unit its times are scaled
by: ``big`` for deep-table, whose time goes to rationals with parts of a
thousand digits, and ``small`` for the others, whose rationals stay small.
A host slowdown slows the two kinds of arithmetic by different factors.

Gate: the scan's exit code must match its rows (0 iff every row is ok),
the row count must equal the task count, float rows must be ok, and a
sha256 over the sorted exact rows, projected to (identity, n, p, N, lhs,
rhs, residual, ok), must equal the digest rebuilt from ``reference.json``.
Float rows are checked by ok only, so a new float evaluator may change
their digits.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"

DEEP_IDS = ("euler", "miki", "miki-modified", "fpz", "mixed", "euler-bernoulli")
FAMILY_IDS = ("family-miki", "family-fpz", "family-mixed")
CUBIC_IDS = ("gessel", "gessel-modified", "fpz-cubic", "multi", "multi-bar")
# the CLI's floor for each cubic-fold identity at --N 4
CUBIC_FLOORS = {"gessel": 3, "gessel-modified": 3, "fpz-cubic": 3, "multi": 4, "multi-bar": 4}

ACCEPTANCE_PS = ("0", "1", "2", "3", "1/2", "3/2", "5/2", "-1/4")
ACCEPTANCE_FLOAT_P = 0.75
P_POOL = (
    "1", "2", "3", "1/2", "3/2", "5/2",
    "-1/3", "1/3", "2/3", "4/3", "5/3", "7/3", "8/3",
    "-1/4", "1/4", "3/4", "5/4", "7/4", "9/4", "11/4",
)
DRAWN_PS = 7

DEEP_N = 400
DEEP_WIDTH = 4
DEEP_SHIFT = 3
FAMILY_N_MAX = 30
CUBIC_N_MAX = 50
CUBIC_N = 4

ROW_FIELDS = ("identity", "n", "p", "N", "lhs", "rhs", "residual", "ok")


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]  # arguments after ``bernkit verify``
    jobs: int
    kernel: str  # calibrator.py unit that the run's times are scaled by
    exact_keys: tuple[str, ...]  # row keys of the exact-lane rows, sorted
    float_keys: tuple[str, ...]  # row keys of the float-lane rows, sorted

    @property
    def tasks(self) -> int:
        return len(self.exact_keys) + len(self.float_keys)


@dataclass(frozen=True)
class Verdict:
    rows: int  # rows the scan emitted
    failed: int  # rows counted as failed, out of the workload's tasks
    digest: str  # sha256 over the emitted exact rows
    detail: str  # why rows failed; empty when none did


def row_key(identity: str, n: int, p=None, N=None) -> str:
    return f"{identity}|{n}|{'' if p is None else p}|{'' if N is None else N}"


def seeded_inputs(seed: int) -> tuple[tuple[str, ...], float, int]:
    """(exact p values, float p, first n of the deep window) for ``seed``."""
    if seed == 0:
        return ACCEPTANCE_PS, ACCEPTANCE_FLOAT_P, DEEP_N
    rng = random.Random(seed)
    drawn = rng.sample(P_POOL, DRAWN_PS)
    float_p = round(rng.uniform(0.05, 2.95), 3)
    return ("0", *drawn), float_p, DEEP_N + rng.randint(-DEEP_SHIFT, DEEP_SHIFT)


def make(name: str, seed: int) -> Workload:
    """The scan of workload ``name`` under ``seed``."""
    ps, float_p, deep_lo = seeded_inputs(seed)
    if name == "deep-table":
        hi = deep_lo + DEEP_WIDTH - 1
        args = [a for i in DEEP_IDS for a in ("--identity", i)]
        args += ["--n-min", str(deep_lo), "--n-max", str(hi)]
        exact = [row_key(i, n) for i in DEEP_IDS for n in range(deep_lo, hi + 1)]
        return Workload(name, tuple(args), 1, "big", tuple(sorted(exact)), ())
    if name in ("family-grid", "family-grid-jobs2"):
        jobs = 2 if name == "family-grid-jobs2" else 1
        args = [a for i in FAMILY_IDS for a in ("--identity", i)]
        args += ["--n-max", str(FAMILY_N_MAX)]
        args += [a for p in ps for a in ("--p", p)]
        args += ["--float-p", repr(float_p), "--jobs", str(jobs)]
        ns = range(2, FAMILY_N_MAX + 1)
        exact = [row_key(i, n, str(Fraction(p))) for i in FAMILY_IDS for n in ns for p in ps]
        floats = [row_key(i, n, str(float_p)) for i in FAMILY_IDS for n in ns]
        return Workload(name, tuple(args), jobs, "small", tuple(sorted(exact)), tuple(sorted(floats)))
    if name == "cubic-fold":
        args = [a for i in CUBIC_IDS for a in ("--identity", i)]
        args += ["--N", str(CUBIC_N), "--n-max", str(CUBIC_N_MAX)]
        exact = [
            row_key(i, n, None, CUBIC_N if i.startswith("multi") else None)
            for i in CUBIC_IDS
            for n in range(CUBIC_FLOORS[i], CUBIC_N_MAX + 1)
        ]
        return Workload(name, tuple(args), 1, "small", tuple(sorted(exact)), ())
    raise ValueError(f"unknown workload {name!r}")


def row_hash(row: dict) -> str:
    projected = [row.get(field) for field in ROW_FIELDS]
    return hashlib.sha256(json.dumps(projected, separators=(",", ":")).encode()).hexdigest()[:16]


def _digest(hashes) -> str:
    return hashlib.sha256("\n".join(hashes).encode()).hexdigest()


def load_reference() -> dict[str, str]:
    return json.loads(REFERENCE.read_text())["rows"]


def check(workload: Workload, returncode: int, stdout: str, reference: dict[str, str]) -> Verdict:
    """Gate one scan's output; every row of a run that breaks the exit-code
    or digest rule counts as failed, as does every missing row."""
    tasks = workload.tasks
    try:
        rows = json.loads(stdout)
    except json.JSONDecodeError:
        rows = None
    if not isinstance(rows, list) or not all(isinstance(row, dict) for row in rows):
        return Verdict(0, tasks, "", f"unparseable output, exit code {returncode}")
    exact, floats = {}, {}
    for row in rows:
        p = row.get("p")
        key = row_key(row.get("identity"), row.get("n"), None if p is None else str(p), row.get("N"))
        (floats if isinstance(p, float) else exact)[key] = row
    digest = _digest(row_hash(exact[k]) for k in sorted(exact))
    expected = _digest(reference[k] for k in workload.exact_keys)
    if returncode != (0 if all(row.get("ok") is True for row in rows) else 1):
        return Verdict(len(rows), tasks, digest, f"exit code {returncode} disagrees with the rows")
    if len(rows) > tasks or set(floats) - set(workload.float_keys):
        return Verdict(len(rows), tasks, digest, f"{len(rows)} rows for {tasks} tasks")
    if digest != expected:
        wrong = sum(reference[k] != row_hash(exact[k]) for k in workload.exact_keys if k in exact)
        return Verdict(len(rows), tasks, digest, f"exact-row digest differs ({wrong} rows changed)")
    missing = sum(k not in floats for k in workload.float_keys)
    bad_floats = sum(floats[k].get("ok") is not True for k in workload.float_keys if k in floats)
    failed = missing + bad_floats
    detail = f"{missing} float rows missing, {bad_floats} not ok" if failed else ""
    return Verdict(len(rows), failed, digest, detail)
