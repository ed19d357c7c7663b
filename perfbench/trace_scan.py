"""Run one ``bernkit verify`` scan in this interpreter with its layers traced.

Usage (from the root of a checkout):

    python3 perfbench/trace_scan.py <verify arguments...>

The public functions of ``sequences``, ``series``, ``gammaalg``,
``identities`` and ``floatcheck`` are wrapped from the outside, in every
namespace a caller looks them up in, so nothing in the package changes.
Each call records a span (name, start, end, parent) in flat in-memory
arrays; self times are derived from the spans after the scan ends.  The
scan runs through ``bernkit.cli.main(..., standalone_mode=False)`` with
its standard output captured.

Prints one JSON object: per-function calls and self times, exact operation
counts, the traced scan time, the exit code and the scan's own output.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
import time
from array import array
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bernkit import cli, floatcheck, gammaalg, identities, sequences, series  # noqa: E402

# (layer, module, attribute) of every function traced; the layer prefixes
# the metric name.  SequenceCache methods are wrapped on the class, so the
# module-level bernoulli()/euler_number() calls land in them.
TRACED = (
    ("sequences", sequences.SequenceCache, "bernoulli"),
    ("sequences", sequences.SequenceCache, "euler_number"),
    ("sequences", sequences, "bernoulli_bar"),
    ("sequences", sequences, "harmonic"),
    ("sequences", sequences, "harmonic_second"),
    ("sequences", sequences, "rising_factorial"),
    ("series", series, "series_mul"),
    ("series", series, "series_pow"),
    ("series", series, "named_series"),
    ("gammaalg", gammaalg, "gamma_reduce"),
    ("gammaalg", gammaalg, "beta_factor"),
    ("identities", identities, "multi_lhs"),
    ("identities", identities, "verify_euler"),
    ("identities", identities, "verify_miki"),
    ("identities", identities, "verify_miki_modified"),
    ("identities", identities, "verify_fpz"),
    ("identities", identities, "verify_mixed"),
    ("identities", identities, "verify_euler_bernoulli"),
    ("identities", identities, "verify_family"),
    ("identities", identities, "verify_gessel"),
    ("identities", identities, "verify_gessel_modified"),
    ("identities", identities, "verify_fpz_cubic"),
    ("floatcheck", floatcheck, "family_float"),
)

# Every namespace of the package that holds references to traced functions:
# module globals, and dicts kept in module globals (cli._SIMPLE_VERIFIERS).
NAMESPACES = (sequences, series, gammaalg, identities, floatcheck, cli)


class Tracer:
    """Span recorder.  Span i occupies slots 4i..4i+3 of ``spans``:
    name id, start ns, end ns, parent span index (-1 for none)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans = array("q")
        self.stack = [-1]
        self.counts = {
            "sequences.bernoulli.grow_s": 0.0,
            "sequences.bern_table_len": 0,
            "sequences.eul_table_len": 0,
            "gammaalg.gamma_reduce.rising_steps": 0,
            "series.series_mul.coeff_products": 0,
        }

    def span_fn(self, name: str, fn, before=None, after=None):
        """Wrap ``fn`` so each call records one span; ``before(args)`` runs
        before the call and its value goes to ``after(state, args, result, ns)``."""
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(args) if before else None
            index = len(spans) // 4
            spans.extend((name_id, 0, 0, stack[-1]))
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[4 * index + 1] = start
                spans[4 * index + 2] = end
            if after:
                after(state, args, result, end - start)
            return result

        return traced

    def summary(self) -> dict:
        """Calls and self time per name; self = duration - children's durations."""
        spans = self.spans
        count = len(spans) // 4
        child_ns = [0] * count
        for i in range(count):
            parent = spans[4 * i + 3]
            if parent >= 0:
                child_ns[parent] += spans[4 * i + 2] - spans[4 * i + 1]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        total_ns = [0] * len(self.names)
        for i in range(count):
            name_id = spans[4 * i]
            duration = spans[4 * i + 2] - spans[4 * i + 1]
            calls[name_id] += 1
            self_ns[name_id] += duration - child_ns[i]
            total_ns[name_id] += duration
        return {
            name: {"calls": calls[k], "self_s": self_ns[k] / 1e9, "total_s": total_ns[k] / 1e9}
            for k, name in enumerate(self.names)
        }


def _nonpositive_integer(q: Fraction) -> bool:
    return q.denominator == 1 and q <= 0


def install(tracer: Tracer) -> None:
    """Replace every traced function in every namespace that refers to it."""
    counts = tracer.counts

    def bern_before(args):
        return len(args[0].bern)

    def bern_after(before_len, args, result, ns):
        length = len(args[0].bern)
        if length > before_len:
            counts["sequences.bernoulli.grow_s"] += ns / 1e9
        counts["sequences.bern_table_len"] = max(counts["sequences.bern_table_len"], length)

    def eul_after(state, args, result, ns):
        counts["sequences.eul_table_len"] = max(counts["sequences.eul_table_len"], len(args[0].eul))

    def gamma_after(state, args, result, ns):
        g, p = args[0], Fraction(args[1])
        counts["gammaalg.gamma_reduce.rising_steps"] += sum(
            abs(offset)
            for base, offset, _ in g.factors
            if not _nonpositive_integer(p if base == "p" else 2 * p)
        )

    def mul_after(state, args, result, ns):
        counts["series.series_mul.coeff_products"] += len(args[0].coeffs) * len(args[1].coeffs)

    hooks = {
        "bernoulli": (bern_before, bern_after),
        "euler_number": (None, eul_after),
        "gamma_reduce": (None, gamma_after),
        "series_mul": (None, mul_after),
    }
    replaced = {}
    for layer, owner, attr in TRACED:
        original = getattr(owner, attr)
        before, after = hooks.get(attr, (None, None))
        wrapped = tracer.span_fn(f"{layer}.{attr}", original, before, after)
        setattr(owner, attr, wrapped)
        replaced[id(original)] = (original, wrapped)
    for module in NAMESPACES:
        for key, value in list(vars(module).items()):
            hit = replaced.get(id(value))
            if hit and hit[0] is value:
                setattr(module, key, hit[1])
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    hit = replaced.get(id(v))
                    if hit and hit[0] is v:
                        value[k] = hit[1]


def main(argv: list[str]) -> int:
    tracer = Tracer()
    install(tracer)
    scan = tracer.span_fn("cli.main", cli.main)
    buffer = io.StringIO()
    code = 0
    start = time.perf_counter()
    with contextlib.redirect_stdout(buffer):
        try:
            scan(["verify", *argv], standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    traced_s = time.perf_counter() - start
    print(json.dumps({
        "exit_code": code,
        "traced_s": traced_s,
        "functions": tracer.summary(),
        "counts": tracer.counts,
        "output": buffer.getvalue(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
