"""Record the per-row hashes that the benchmark's output gate checks against.

Usage (from the root of a checkout):

    python3 perfbench/make_reference.py

Runs ``bernkit verify`` over every exact-lane row any seed can ask for: the
deep window at every shift, the family identities at p = 0 and every p in
``P_POOL``, and the cubic-fold scan.  Every row must be ok.  Writes
``perfbench/reference.json``, mapping each row key to the first 16 hex
digits of the sha256 of its projected row.  Run it again only when the
scan output is meant to change.
"""

from __future__ import annotations

import json
import sys

import workloads as wl
from run import ROOT, run_process


def scan(args: list[str]) -> list[dict]:
    done = run_process(["-m", "bernkit.cli", "verify", *args, "--format", "json", "--jobs", "2"])
    if done.returncode != 0:
        raise SystemExit(f"exit code {done.returncode} from: verify {' '.join(args)}\n{done.stderr}")
    return json.loads(done.stdout)


def main() -> int:
    deep = [a for i in wl.DEEP_IDS for a in ("--identity", i)] + [
        "--n-min", str(wl.DEEP_N - wl.DEEP_SHIFT),
        "--n-max", str(wl.DEEP_N + wl.DEEP_WIDTH - 1 + wl.DEEP_SHIFT),
    ]
    family = [a for i in wl.FAMILY_IDS for a in ("--identity", i)]
    family += ["--n-max", str(wl.FAMILY_N_MAX)]
    family += [a for p in ("0", *wl.P_POOL) for a in ("--p", p)]
    cubic = list(wl.make("cubic-fold", 0).args)
    rows = {}
    for args in (deep, family, cubic):
        for row in scan(args):
            rows[wl.row_key(row["identity"], row["n"], row.get("p"), row.get("N"))] = wl.row_hash(row)
    for seed in range(50):
        for name in ("deep-table", "family-grid", "cubic-fold"):
            missing = set(wl.make(name, seed).exact_keys) - set(rows)
            if missing:
                raise SystemExit(f"{name} at seed {seed} needs rows {sorted(missing)[:3]}")
    wl.REFERENCE.write_text(json.dumps({"rows": dict(sorted(rows.items()))}, indent=0) + "\n")
    print(f"{len(rows)} rows -> {wl.REFERENCE.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
