"""Measurement loop of the benchmark; ``run.py`` is the command-line entry point.

One closed-loop client calls ``lpkit.cli.main`` in-process, each call after
the previous one has returned, and every output is checked.  With
``--trace 0`` the last line of stdout holds the end-to-end metrics, in
times scaled to a reference machine speed (see ``scaled``); with
``--trace 1`` it holds per-layer span metrics (see README.md).  The line
before it is a detailed report with a schema version, the machine and Python
details, and the manifest of every measured instance.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from itertools import count, islice

from .tracing import Tracer, layer_metrics, traced
from .workloads import WORKLOADS, units

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMA = "lpkit-perfbench/1"
SETUP_REPS = 5
# (slot, kind) of the warm-up call: a small instance (d = 4) of the workload's own kind
WARM = {"check-rational": (1, "check"), "check-prime": (0, "check"), "toolchain": (1, "delta")}


def _import_lpkit():
    """Import lpkit from this checkout's ``src/``, never from anywhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "lpkit", "cli.py")):
        raise SystemExit("error: no lpkit sources under src/ in this checkout")
    sys.path.insert(0, src)
    import lpkit.cli
    if not os.path.abspath(lpkit.cli.__file__).startswith(src + os.sep):
        raise SystemExit("error: lpkit was imported from outside this checkout")
    return lpkit.cli


# Machine-speed reference.  On a shared machine the same Python code runs up
# to a third slower for minutes at a time.  After each timed interval the
# benchmark runs a fixed pure-Python Fraction kernel for REF_SHARE of that
# interval and scales the interval by the kernel's rate over REF_RATE, so a
# reported time reads as seconds on a machine that runs the kernel REF_RATE
# times a second.  The raw wall times are kept in the report line.
REF_SHARE = 0.1
REF_RATE = 3300.0


def _kernel() -> None:
    acc = Fraction(0)
    for k in range(1, 40):
        acc += Fraction(k, k + 1) * Fraction(2 * k - 1, 3)


def scaled(seconds: float) -> float:
    """``seconds`` scaled by the reference kernel's rate, measured right after them."""
    rounds, start = 0, time.perf_counter()
    while True:
        _kernel()
        rounds += 1
        spent = time.perf_counter() - start
        if spent >= REF_SHARE * seconds:
            return seconds * rounds / spent / REF_RATE


def _call(cli, argv) -> tuple:
    """One CLI call with captured output: (exit code or None, stdout, seconds, error)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code, error = cli.main(argv), None
        except Exception as exc:  # an operation that raises is a failed operation
            code, error = None, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), elapsed, error


class Run:
    """Timings and outcomes of the operations of one run; ``scale`` applies ``scaled``."""

    def __init__(self, scale: bool = False):
        self.scale = scale
        self.times: list = []
        self.records: list = []
        self.errors: list = []

    def do(self, cli, op, tracer=None) -> float:
        if tracer is None:
            code, out, elapsed, error = _call(cli, op.argv)
        else:
            with traced(tracer):
                code, out, elapsed, error = _call(cli, op.argv)
        if error is None:
            try:
                error = op.check(code, out)
            except (OSError, ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
                error = f"unreadable output: {type(exc).__name__}: {exc}"
        self.times.append(scaled(elapsed) if self.scale else elapsed)
        self.records.append(dict(op.meta, kind=op.kind, seconds=elapsed, scaled_s=self.times[-1],
                                 ok=error is None))
        if error is not None:
            self.errors.append(f"{op.kind} {os.path.basename(op.argv[1])}: {error}")
        return elapsed

    @property
    def failed(self) -> int:
        return sum(not r["ok"] for r in self.records)


class Setup:
    """Set-up rounds.  Round k writes the instance files of cycle k, then makes
    one warm-up call on an instance outside the measured set.

    The first SETUP_REPS cycles each start with their round, so the rounds are
    spread over the run and their median samples the machine at several
    moments; ``finish`` runs any round the measured cycles did not reach.  The
    import of lpkit is timed once, when it really happens.
    """

    def __init__(self, cli, import_s: float, workload: str, seed: int, workdir: str):
        self.cli, self.import_s = cli, import_s
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.rounds: list = []
        self.warm = Run()

    def cycle(self, index: int, variant: int = 0) -> list:
        """The units of cycle ``index``; each cycle and variant has its own files."""
        size = WORKLOADS[self.workload][1]
        start = time.perf_counter()
        cycle = list(islice(units(self.workload, self.seed, self.workdir, f"c{index}",
                                  variant, start=index * size), size))
        if variant == 0 and index == len(self.rounds) < SETUP_REPS:
            slot, kind = WARM[self.workload]
            warm_unit = next(units(self.workload, self.seed, self.workdir, f"warm{index}",
                                   start=slot))
            self.warm.do(self.cli, next(op for op in warm_unit if op.kind == kind))
            self.rounds.append(scaled(time.perf_counter() - start))
        return cycle

    def finish(self) -> float:
        """Complete the SETUP_REPS rounds and return ``setup_s``."""
        while len(self.rounds) < SETUP_REPS:
            self.cycle(len(self.rounds))
        return self.import_s + statistics.median(self.rounds)

    def details(self) -> dict:
        return {"import_s": self.import_s, "rounds_s": self.rounds, "warm_errors": self.warm.errors}


def _tail(times: list) -> tuple:
    """(value, percentile, samples beyond): the highest percentile with >= 10 samples above it."""
    ordered = sorted(times)
    n = len(ordered)
    beyond = min(10, n - 1)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def measure(setup: Setup, seconds: float) -> tuple:
    """Whole cycles until at least ``seconds`` have been spent inside the calls."""
    run, busy = Run(scale=True), 0.0
    for index in count():
        if busy >= seconds:
            break
        for unit in setup.cycle(index):
            busy += sum(run.do(setup.cli, op) for op in unit)
    n, ok = len(run.times), len(run.times) - run.failed
    tail, pct, beyond = _tail(run.times)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "op_p50_s": (statistics.median(run.times), "s"),
        "op_tail_s": (tail, "s"),
        "ops_per_s": (ok / sum(run.times), "1/s"),
        "ok_share": (ok / n, "share"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    wall = [r["seconds"] for r in run.records]
    details = {"tail": {"percentile": pct, "samples": n, "beyond": beyond},
               "wall": {"op_p50_s": statistics.median(wall), "op_tail_s": _tail(wall)[0],
                        "ops_per_s": ok / busy, "busy_s": busy}}
    return run, metrics, details


def measure_traced(setup: Setup, seconds: float) -> tuple:
    """Twin units of the same shape, one traced and one not; both count toward ``seconds``.

    Which twin is traced, and which of the two runs first, alternate from slot to slot.
    """
    run, tracer = Run(), Tracer()
    busy = {False: 0.0, True: 0.0}     # by "traced"
    traced_ops = 0
    for index in count():
        if sum(busy.values()) >= seconds:
            break
        for slot, pair in enumerate(zip(setup.cycle(index), setup.cycle(index, variant=1))):
            steps = [(pair[1 - slot % 2], False), (pair[slot % 2], True)]
            if (slot // 2) % 2:
                steps.reverse()
            for unit, is_traced in steps:
                for op in unit:
                    busy[is_traced] += run.do(setup.cli, op, tracer if is_traced else None)
                traced_ops += len(unit) if is_traced else 0
    metrics = layer_metrics(tracer, traced_ops, busy[True], busy[False])
    return run, metrics, {"traced_ops": traced_ops, "busy_traced_s": busy[True],
                          "busy_plain_s": busy[False], "spans": dict(sorted(tracer.stats.items())),
                          "counts": {f"{o}|{c}": n for (o, c), n in sorted(tracer.counts.items())}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    cli = _import_lpkit()
    import_s = scaled(time.perf_counter() - start)

    workdir = os.path.join(ROOT, "perfbench", "_work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        setup = Setup(cli, import_s, args.workload, args.seed, workdir)
        measure_fn = measure_traced if args.trace else measure
        run, metrics, details = measure_fn(setup, args.seconds)
        setup_s = setup.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not args.trace:
        metrics = dict(setup_s=(setup_s, "s"), **metrics)
    correct = run.failed == 0 and not setup.warm.errors
    report = {
        "schema": SCHEMA, "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "machine": {"system": platform.system(), "machine": platform.machine(),
                    "processor": platform.processor(), "cpus": os.cpu_count()},
        "python": {"implementation": platform.python_implementation(),
                   "version": platform.python_version()},
        "setup": setup.details(), "errors": run.errors[:20], "manifest": run.records, **details,
    }
    print(json.dumps(report))
    print(json.dumps({
        "correct": correct, "attempted": len(run.times), "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0
