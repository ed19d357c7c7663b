"""Fixed reference work that shares a CPU with the scans being timed.

Usage (started by ``run.py``, one per CPU a scan may use):

    python3 perfbench/calibrator.py <cpu> <nice> small|big

Pins itself to ``cpu``, lowers its priority by ``nice`` and repeats one
unit of exact rational arithmetic until it is killed.  After each unit it
prints ``<perf_counter at the end> <CPU seconds the unit took>``.  The
units are the same in every version of the benchmark and call nothing of
bernkit, so the CPU time a unit takes measures only how fast the host ran
that CPU while the scan beside it was running.

A host slowdown does not slow all arithmetic alike: rationals with
thousand-digit parts slow down less than small ones.  So there are two
units, and each workload names the one that is closest to its own work:

* ``small``: the harmonic number H_120 as a Fraction sum, eight times;
* ``big``: one step of the Bernoulli recurrence at m = ``BIG_M``, a sum of
  m products of binomials and rationals with parts of hundreds of digits.
  Its table is built once at start, before the first unit is printed.
"""

from __future__ import annotations

import os
import sys
import time
from fractions import Fraction
from math import comb

BIG_M = 400


def small_unit() -> Fraction:
    total = Fraction(0)
    for _ in range(8):
        total = Fraction(0)
        for k in range(1, 121):
            total += Fraction(1, k)
    return total


def bernoulli_table(n: int) -> list[Fraction]:
    bern = [Fraction(1)]
    for m in range(1, n + 1):
        bern.append(Fraction(-sum(comb(m + 1, k) * bern[k] for k in range(m)), m + 1))
    return bern


def main(argv: list[str]) -> int:
    os.sched_setaffinity(0, {int(argv[0])})
    os.nice(int(argv[1]))
    if argv[2] == "big":
        bern = bernoulli_table(BIG_M - 1)

        def unit() -> Fraction:
            return Fraction(-sum(comb(BIG_M + 1, k) * bern[k] for k in range(BIG_M)), BIG_M + 1)
    else:
        unit = small_unit
    out, clock, cpu = sys.stdout, time.perf_counter, time.process_time
    while True:
        start = cpu()
        unit()
        used = cpu() - start
        out.write(f"{clock():.9f} {used:.9f}\n")
        out.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
