#!/usr/bin/env python3
"""End-to-end benchmark of the lemniscate CLI.

    python3 bench/run.py --workload verify|trace|figures --seed N --seconds S --trace 0|1

Runs one workload's commands through `lemniscate.cli.main`, in this
process, on one thread, in a closed loop: each command starts when the
previous one has returned. The sources are taken from `src/` next to
this directory. Every output is checked by the workload's own oracle;
a pass's outputs must also be byte-identical to the first pass's.

--trace 0 reports the end-to-end metrics: setup_s, the median over
several fresh interpreters of the time to import `lemniscate.cli` and
build its parser; peak_mem_mb, the tracemalloc peak of one pass (which
is also the warm-up pass); wall_s, the time of one pass as the sum over
its commands of each command's median time in the passes run in the
next S seconds, at least MIN_PASSES of them; and area_rel_err of the
workload's Bernoulli curve. setup_s and wall_s are read against the
reference loop of gauge.py, in seconds of a machine of fixed speed, so
that the drift of a shared host's speed does not show in them.

--trace 1 alternates untraced passes and passes with every public
function wrapped in a span, and reports the per-layer metrics of
spans.PER_LAYER as the median over traced passes. Its times are plain
wall-clock seconds. It prints them as a table and writes the first
traced pass's spans to .bench_out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

# numpy's BLAS would start worker threads; the benchmark runs on one
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import gauge
import spans
import workloads
from oracles import OracleError
from workloads import Outcome

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_LAUNCHES = 7
MIN_PASSES = 4  # timed passes, however long a pass takes
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_mem_mb", "MB"), ("area_rel_err", "1"))
SETUP_CHILD = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import lemniscate.cli\n"
    "lemniscate.cli.build_parser()\n"
    "print(time.clock_gettime_ns(time.CLOCK_MONOTONIC))\n"
)


def load_program():
    """Import lemniscate from the sources beside the benchmark, or exit 1."""
    if not (SRC / "lemniscate" / "__init__.py").is_file():
        sys.exit(f"error: no lemniscate sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import lemniscate
    import lemniscate.cli

    if Path(lemniscate.__file__).resolve().parent != SRC / "lemniscate":
        sys.exit(f"error: imported lemniscate from {lemniscate.__file__}, not from {SRC}")
    return lemniscate


def launch_ns() -> int:
    """Launch-to-parser time of one fresh interpreter, on the clock both share."""
    t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(SRC)],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return int(done.stdout) - t0


def setup_seconds(meter: gauge.Gauge) -> float:
    # the reference loop would compete with the child for the CPUs
    ns, _, reference_ns = meter.measure(launch_ns, during=False)
    return gauge.nominal(ns, reference_ns)


class Runner:
    """Runs the passes of one workload and checks every output."""

    def __init__(self, cli, workload: str, seed: int):
        self.cli = cli
        self.ops = workloads.build(workload, seed)
        self.named = workloads.NAMED_FAULTS[workload]
        self.first: dict[str, tuple] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.area_rel_err = None
        self.meter: gauge.Gauge | None = None  # None: plain wall-clock time

    def call(self, op):
        """Run one command; return its exit code, its output and its seconds."""

        def run():
            try:
                return self.cli.main(list(op.argv))
            except (Exception, SystemExit) as exc:  # a crash is a failed operation
                return f"{type(exc).__name__}: {exc}"

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if self.meter is None:
                t0 = time.perf_counter_ns()
                code = run()
                seconds = (time.perf_counter_ns() - t0) / 1e9
            else:
                code, ns, reference_ns = self.meter.measure(run)
                seconds = gauge.nominal(ns, reference_ns)
        return code, out.getvalue(), seconds

    def account(self, op, code, out) -> None:
        if op.name not in self.first:
            if isinstance(code, str):
                self.errors.append(f"{op.name}: crashed with {code}")
                outcome = Outcome(failed=[op.name])
            else:
                try:
                    outcome = op.check(code, out)
                except (OracleError, ValueError, KeyError, IndexError, TypeError) as exc:
                    self.errors.append(f"{op.name}: {type(exc).__name__}: {exc}")
                    outcome = Outcome(failed=[op.name])
            self.first[op.name] = (code, out, outcome)
            for name in outcome.failed:
                if name not in self.named:
                    self.errors.append(f"unexpected failure: {name}")
            if outcome.area_rel_err is not None:
                self.area_rel_err = outcome.area_rel_err
        first_code, first_out, outcome = self.first[op.name]
        if (code, out) != (first_code, first_out):
            self.errors.append(f"{op.name}: output differs from the first pass")
        self.attempted += outcome.attempted
        self.failed += len(outcome.failed)

    def run_pass(self, recorder=None) -> list[float]:
        """One pass over the operations; returns the seconds spent in each."""
        # a fresh `lemniscate` process starts with a small heap: keep the
        # benchmark's own objects out of the collector's full passes
        gc.collect()
        gc.freeze()
        times = []
        for k, op in enumerate(self.ops):
            if recorder is not None:
                recorder.op = k
            code, out, seconds = self.call(op)
            times.append(seconds)
            self.account(op, code, out)
        return times


def end_to_end(runner: Runner, seconds: float) -> dict[str, float]:
    meter = gauge.Gauge()
    try:
        setup = statistics.median(setup_seconds(meter) for _ in range(SETUP_LAUNCHES))
        tracemalloc.start()
        try:
            runner.run_pass()  # the warm-up pass, without the gauge's allocations
            peak = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
        runner.meter = meter
        passes = []
        start = time.perf_counter()
        while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
            passes.append(runner.run_pass())
    finally:
        runner.meter = None
        meter.close()
    if runner.area_rel_err is None:
        runner.errors.append("no traced Bernoulli area to compare with 2c^2")
    return {
        "setup_s": setup,
        "wall_s": sum(statistics.median(times) for times in zip(*passes)),
        "peak_mem_mb": peak,
        # an empty trace misses the whole area
        "area_rel_err": 1.0 if runner.area_rel_err is None else runner.area_rel_err,
    }


def per_layer(runner: Runner, package, workload: str, seconds: float) -> dict[str, float]:
    recorder = spans.SpanRecorder(package)
    runner.run_pass()  # the warm-up pass
    untraced, traced, passes = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(sum(runner.run_pass()))
        recorder.reset()
        t0 = time.perf_counter_ns()
        recorder.install()
        try:
            traced.append(sum(runner.run_pass(recorder)))
        finally:
            recorder.uninstall()
        passes.append(recorder.metrics())
        if len(passes) == 1:
            OUT.mkdir(exist_ok=True)
            recorder.write(OUT / f"spans_{workload}.csv", t0)
            peak_mb = recorder.trace_peak_mb()
    for name in spans.COUNTS:
        if len({m[name] for m in passes}) != 1:
            runner.errors.append(f"{name} differs between traced passes: {[m[name] for m in passes]}")
    metrics = {name: statistics.median(m[name] for m in passes) for name in passes[0]}
    metrics.update({name: passes[0][name] for name in spans.COUNTS})
    metrics["tracer.trace.peak_mb"] = peak_mb
    metrics["tracing.untraced_wall_s"] = statistics.median(untraced)
    metrics["tracing.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    print(spans.format_table(metrics))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = load_program()
    runner = Runner(package.cli, args.workload, args.seed)
    if args.trace:
        values = per_layer(runner, package, args.workload, args.seconds)
        units = dict(spans.PER_LAYER)
    else:
        values = end_to_end(runner, args.seconds)
        units = dict(END_TO_END)
    for error in runner.errors:
        print(f"error: {error}", file=sys.stderr)
    result = {
        "correct": not runner.errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
