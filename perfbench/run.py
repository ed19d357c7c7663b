"""Benchmark of ``bernkit verify`` scans, end to end and per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload family-grid --seed 0 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 7

Workloads, metric names, units and bounds are read from ``BENCHMARK.json``;
``workloads.py`` turns the seed into each scan's arguments.

A scan is ``python -m bernkit.cli verify ... --format json`` in a fresh
process with ``PYTHONPATH=src``, as a user runs it.  The load is a closed
loop: one client runs one scan at a time, and starts the next only while
another scan of the median length still fits in ``--seconds``; at least
one scan always runs.  Only family-grid-jobs2 starts worker processes (2).

``--trace 0`` reports the end-to-end metrics, each a median over the run's
scans: wall_s (launch to exit), rows_per_s (tasks / wall_s), cpu_s and
peak_rss_mb (from ``os.wait4`` on the scan process, so pool workers are
included; the peak is that of the largest process in the tree), ok_frac
(1 - failed / attempted rows), and setup_s, the median of several fresh
interpreters importing ``bernkit.cli``.

Times are given at a reference host speed.  On a shared host the speed a
process gets swings by up to a factor of two within seconds, and CPU time
swings with it, so raw times of the same scan spread by a third.  Each
scan therefore runs pinned to ``jobs`` CPUs, and each of those CPUs is
shared with ``calibrator.py``, which repeats a fixed unit of rational
arithmetic (of the kind the workload names) at nice ``CAL_NICE``, about a
quarter of the CPU; a smaller share tracks the speed of a --jobs 2 scan,
whose pool workers move between CPUs, less well.  The host speed during a
scan is ``REF_UNIT_S`` over the mean CPU time of the units that ended
while the scan ran, averaged over the scan's CPUs, and wall_s, cpu_s and
setup_s are the raw times times that speed: the seconds the scan takes on
a host that runs one unit in ``REF_UNIT_S`` (about the fastest a 2-vCPU
Xeon VM ran it), with the calibrator beside it.  The raw medians and the
speed are printed too.

``--trace 1`` reports the per-layer metrics.  The workload's scan runs in a
fresh interpreter under ``trace_scan.py`` at --jobs 1, beside untraced
scans of the same inputs that give trace.overhead_frac and the cli.* figures
measured from outside.  family-grid-jobs2 takes the family-grid trace, with
its own cli.rows, cli.output_bytes and cli.busy_ratio from its --jobs 2 scan.
floatcheck.import_s is the cumulative time of bernkit.floatcheck under
``python -X importtime``.  Each of these scans runs once; --seconds does not
apply.

Every scan's output passes the gate in ``workloads.check``; the sha256 of
its exact rows is printed, so a change can show its output is unchanged.
The last line of standard output is one JSON object: correct, attempted,
failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_IMPORTS = 5
CAL_NICE = 5
REF_UNIT_S = {"small": 0.0025, "big": 0.0047}  # per calibrator.py unit
MIN_UNITS = 5  # fewest calibration units a window may be scaled by
LAYERS = ("sequences", "series", "gammaalg", "identities", "floatcheck")


class BenchError(Exception):
    """The program could not be run at all; no result is printed."""


@dataclass(frozen=True)
class Proc:
    returncode: int
    start: float  # perf_counter at launch
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


@contextlib.contextmanager
def pinned(cpus: set[int] | None):
    """Run the block with this process pinned to ``cpus``; children started
    in it inherit the pinning."""
    if cpus is None:
        yield
        return
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, saved)


def scan_cpus(jobs: int) -> set[int]:
    """The last ``jobs`` CPUs this process may use."""
    return set(sorted(os.sched_getaffinity(0))[-jobs:])


def run_process(args: list[str], cpus: set[int] | None = None) -> Proc:
    """Run ``python <args>`` to completion, pinned to ``cpus`` if given;
    rusage covers its whole tree."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("BERNKIT_JOBS", None)
    start = time.perf_counter()
    with pinned(cpus):
        proc = subprocess.Popen(
            [sys.executable, *args], cwd=ROOT, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
    try:
        err: list[bytes] = []
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        reader.start()
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Proc(
        proc.returncode, start, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
        out.decode(), err[0].decode() if err else "",
    )


class Calibrators:
    """One ``calibrator.py`` per CPU in ``cpus``, read by a thread each."""

    def __init__(self, cpus: set[int], kernel: str) -> None:
        self.ref_unit_s = REF_UNIT_S[kernel]
        self.samples: dict[int, list[tuple[float, float]]] = {cpu: [] for cpu in cpus}
        self.procs: list[subprocess.Popen] = []
        self.readers: list[threading.Thread] = []
        try:
            for cpu in sorted(cpus):
                proc = subprocess.Popen(
                    [sys.executable, str(HERE / "calibrator.py"), str(cpu), str(CAL_NICE), kernel],
                    stdout=subprocess.PIPE, text=True,
                )
                self.procs.append(proc)
                reader = threading.Thread(target=self._read, args=(proc, self.samples[cpu]))
                reader.start()
                self.readers.append(reader)
            deadline = time.perf_counter() + 30
            while not all(self.samples.values()):
                if time.perf_counter() > deadline or any(p.poll() is not None for p in self.procs):
                    raise BenchError("calibrator did not start")
                time.sleep(0.05)
        except BaseException:
            self.close()
            raise

    @staticmethod
    def _read(proc: subprocess.Popen, samples: list[tuple[float, float]]) -> None:
        for line in proc.stdout:
            end, used = line.split()
            samples.append((float(end), float(used)))

    def speed(self, start: float, end: float, cpus: set[int] | None = None) -> float:
        """The reference unit time over the mean CPU time of the units that
        ended in [start, end], on each of ``cpus`` (all calibrated CPUs if
        None).  Across CPUs the speeds are averaged, since a pool's workers
        take tasks as they free up and so do work in proportion to speed."""
        speeds = []
        for cpu in cpus or self.samples:
            used = [u for t, u in list(self.samples[cpu]) if start <= t <= end]
            if len(used) < MIN_UNITS:
                raise BenchError(f"only {len(used)} calibration units in a {end - start:.3f} s window")
            speeds.append(self.ref_unit_s / statistics.fmean(used))
        return statistics.fmean(speeds)

    def close(self) -> None:
        for proc in self.procs:
            proc.kill()
        for proc in self.procs:
            proc.wait()
        for reader in self.readers:
            reader.join()
        for proc in self.procs:
            proc.stdout.close()

    def __enter__(self) -> "Calibrators":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def setup_seconds(cal: Calibrators | None = None) -> float:
    """Median time for a fresh interpreter to import bernkit.cli; with
    ``cal``, each import is pinned to a calibrated CPU and scaled to the
    reference speed."""
    cpus = {max(cal.samples)} if cal else None
    times = []
    for _ in range(SETUP_IMPORTS):
        done = run_process(["-c", "import bernkit.cli"], cpus)
        if done.returncode != 0:
            raise BenchError(f"cannot import bernkit.cli:\n{done.stderr.strip()}")
        scale = cal.speed(done.start, done.start + done.wall_s, cpus) if cal else 1.0
        times.append(done.wall_s * scale)
    return statistics.median(times)


def import_seconds(module: str) -> float:
    """Cumulative import time of ``module`` under ``python -X importtime``."""
    done = run_process(["-X", "importtime", "-c", "import bernkit.cli"])
    for line in done.stderr.splitlines():
        fields = [f.strip() for f in line.removeprefix("import time:").split("|")]
        if len(fields) == 3 and fields[2] == module:
            return int(fields[1]) / 1e6
    raise BenchError(f"no import time for {module}:\n{done.stderr[-2000:]}")


class Run:
    """Scans of one run, with their gate verdicts."""

    def __init__(self) -> None:
        self.reference = wl.load_reference()
        self.attempted = 0
        self.failed = 0
        self.digests: set[str] = set()

    def scan(self, workload: wl.Workload, cpus: set[int] | None = None) -> tuple[Proc, wl.Verdict]:
        done = run_process(["-m", "bernkit.cli", "verify", *workload.args, "--format", "json"], cpus)
        if done.returncode not in (0, 1):
            raise BenchError(f"scan exited {done.returncode}:\n{done.stderr[-2000:]}")
        return done, self.gate(workload, done.returncode, done.stdout)

    def gate(self, workload: wl.Workload, returncode: int, stdout: str) -> wl.Verdict:
        verdict = wl.check(workload, returncode, stdout, self.reference)
        self.attempted += workload.tasks
        self.failed += verdict.failed
        self.digests.add(verdict.digest)
        if verdict.failed:
            print(f"# {workload.name}: {verdict.failed} rows failed: {verdict.detail}", file=sys.stderr)
        return verdict


def end_to_end(run: Run, workload: wl.Workload, seconds: float) -> dict[str, float]:
    """End-to-end metrics, plus ``raw.*`` figures that are only printed."""
    cpus = scan_cpus(workload.jobs)
    with Calibrators(cpus, workload.kernel) as cal:
        setup = setup_seconds(cal)
        start = time.perf_counter()
        scans: list[Proc] = []
        speeds: list[float] = []
        while True:
            done, _ = run.scan(workload, cpus)
            scans.append(done)
            speeds.append(cal.speed(done.start, done.start + done.wall_s))
            typical = statistics.median(s.wall_s for s in scans)
            if time.perf_counter() - start + typical > seconds:
                break
    wall = statistics.median(s.wall_s * v for s, v in zip(scans, speeds))
    return {
        "wall_s": wall,
        "rows_per_s": workload.tasks / wall,
        "setup_s": setup,
        "cpu_s": statistics.median(s.cpu_s * v for s, v in zip(scans, speeds)),
        "peak_rss_mb": statistics.median(s.peak_rss_mb for s in scans),
        "ok_frac": 1 - run.failed / run.attempted,
        "raw.scans": len(scans),
        "raw.wall_s": statistics.median(s.wall_s for s in scans),
        "raw.cpu_s": statistics.median(s.cpu_s for s in scans),
        "raw.speed": statistics.median(speeds),
    }


def per_layer(run: Run, workload: wl.Workload, seed: int) -> dict[str, float]:
    source = workload if workload.jobs == 1 else wl.make("family-grid", seed)
    outside, verdict = run.scan(workload)
    untraced = outside if source is workload else run.scan(source)[0]
    setup = setup_seconds()
    import_s = import_seconds("bernkit.floatcheck")

    done = run_process([str(Path(__file__).with_name("trace_scan.py")), *source.args, "--format", "json"])
    if done.returncode != 0:
        raise BenchError(f"traced scan failed:\n{done.stderr[-2000:]}")
    trace = json.loads(done.stdout)
    traced = run.gate(source, trace["exit_code"], trace["output"])
    funcs, counts = trace["functions"], trace["counts"]

    metrics: dict[str, float] = {}
    for name, stats in funcs.items():
        for field in ("calls", "self_s"):
            metrics[f"{name}.{field}"] = stats[field]
    metrics["gammaalg.gamma_reduce.total_s"] = funcs["gammaalg.gamma_reduce"]["total_s"]
    metrics.update(counts)
    verifier_calls = sum(s["calls"] for n, s in funcs.items() if n.startswith("identities.verify_"))
    metrics["identities.calls_per_row"] = verifier_calls / max(traced.rows, 1)
    metrics["floatcheck.import_s"] = import_s
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            s["self_s"] for n, s in funcs.items() if n.startswith(layer + ".")
        )
    metrics["cli.rows"] = verdict.rows
    metrics["cli.self_s"] = funcs["cli.main"]["self_s"]
    metrics["cli.output_bytes"] = len(outside.stdout.encode())
    metrics["cli.busy_ratio"] = outside.cpu_s / (outside.wall_s * workload.jobs)
    metrics["trace.traced_s"] = trace["traced_s"]
    metrics["trace.overhead_frac"] = trace["traced_s"] / (untraced.wall_s - setup) - 1
    return metrics


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as info:
            model = next((l.split(":", 1)[1].strip() for l in info if l.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "scipy": metadata.version("scipy"),
        "click": metadata.version("click"),
    }


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[Run, dict]:
    workload = wl.make(name, seed)
    run = Run()
    values = per_layer(run, workload, seed) if trace else end_to_end(run, workload, seconds)
    specs = SPEC["per_layer" if trace else "end_to_end"]
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}
    print(f"{name} (seed {seed}, {workload.tasks} rows per scan, jobs {workload.jobs},"
          f" calibrator unit {workload.kernel})")
    for key, metric in metrics.items():
        print(f"  {key:40s} {metric['value']:>14.6g} {metric['unit']}")
    for key in sorted(set(values) - set(metrics)):
        print(f"  {key:40s} {values[key]:>14.6g}")
    print(f"  {'fail_frac':40s} {run.failed / run.attempted:>14.6g} ratio")
    print(f"  exact-row sha256: {' '.join(sorted(run.digests))}")
    return run, metrics


def main() -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*names, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # on SIGTERM, unwind so every child process is killed and waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "bernkit" / "cli.py").is_file():
        print(f"no bernkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print("machine " + json.dumps(machine()))
    attempted = failed = 0
    metrics: dict = {}
    try:
        for name in names if args.workload == "all" else [args.workload]:
            run, values = measure(name, args.seed, args.seconds, bool(args.trace))
            attempted += run.attempted
            failed += run.failed
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in values.items()})
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
