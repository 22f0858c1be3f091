#!/usr/bin/env python3
"""splitfactor benchmark: one workload per run, closed loop, one caller.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is imported from the checkout's own ``src/``.  With
``--trace 0`` the run warms up, measures for ``--seconds`` seconds and
reports every end-to-end metric; with ``--trace 1`` it runs the workload's
fixed traced block and reports every per-layer metric (see tracing.py).
Outputs are checked on every item.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics; the
line before it records provenance.  Exit status 2 means the run could not
start (no ``src/splitfactor`` in the working directory).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
SRC = Path("src")
OUT = HERE / "out"
WORKLOAD_NAMES = (
    "sweep-exhaustive-4x4",
    "sweep-random-8x8",
    "walk-12x12",
)
# End-to-end metrics and units, in the order BENCHMARK.json lists them.
END_TO_END = (
    ("items_per_s", "1/s"),
    ("item_p50_ms", "ms"),
    ("item_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
SETUP_PROBES = 10
# Throughput and p50 come from the fastest FAST_SHARE of the run's windows
# of consecutive calls lasting at least WINDOW_NS (see summarise).
WINDOW_NS = 100_000_000
FAST_SHARE = 0.05
NOTES_SHOWN = 20


def tail_percentile(samples: int) -> int | None:
    """The highest whole percentile, at most 99, with at least ten samples
    beyond it; None below twenty samples, where it would not exceed p50."""
    if samples < 20:
        return None
    return min(99, 100 - -(-1000 // samples))


class Tally:
    """Items attempted and failed over a run, with the first failure notes."""

    def __init__(self):
        self.attempted = self.failed = self.checks_failed = 0
        self.notes: list[tuple[str, str]] = []

    def add(self, step) -> None:
        self.attempted += step.items
        self.failed += step.failed
        self.checks_failed += step.checks_failed
        self.notes.extend(step.notes[: NOTES_SHOWN - len(self.notes)])

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


class Window(NamedTuple):
    """Consecutive calls of a run: items completed, wall ns from the end of
    the call before to the end of the last, and each call's duration."""

    items: int
    wall_ns: int
    calls: list[int]


def closed_loop(workload, seconds: float, tally: Tally) -> list[Window]:
    """Call ``workload.step()`` until ``seconds`` have passed; returns the
    calls cut into windows of at least WINDOW_NS, the last one shorter."""
    windows = []
    items, calls = 0, []
    start = time.perf_counter_ns()
    deadline = start + int(seconds * 1e9)
    while True:
        step = workload.step()
        tally.add(step)
        items += step.items
        if step.ns is not None:
            calls.append(step.ns)
        end = time.perf_counter_ns()
        if end - start >= WINDOW_NS or end >= deadline:
            windows.append(Window(items, end - start, calls))
            items, calls, start = 0, [], end
        if end >= deadline:
            return windows


def summarise(windows: list[Window]) -> dict:
    """Throughput and median call duration over the fastest FAST_SHARE of
    the full windows (at least one), and the tail over every call.

    A shared host can run the same code up to 2x slower for stretches of
    seconds to minutes, and a run rarely spends the same share of its time
    at each speed as the next.  The fastest windows are those the host
    slowed least, so they show the code's own speed, as ``timeit`` takes
    the fastest repeat; a change that slows every call slows them too.
    The tail is taken over the whole run, slow stretches included: with
    1% of the calls beyond it, any run with slow stretches has enough slow
    calls to set it.
    """
    full = [w for w in windows if w.wall_ns >= WINDOW_NS and w.items]
    full.sort(key=lambda w: w.wall_ns / w.items)
    fast = full[: max(1, round(len(full) * FAST_SHARE))] or windows
    fast_calls = [ns for w in fast for ns in w.calls]
    calls = [ns for w in windows for ns in w.calls]
    q = tail_percentile(len(calls))
    return {
        "items_per_s": sum(w.items for w in fast) / sum(w.wall_ns for w in fast) * 1e9,
        # Every call raised when there are none; the run is then not correct.
        "p50_ns": statistics.median(fast_calls or [0]),
        "tail_ns": statistics.quantiles(calls, n=100)[q - 1] if q else max(calls or [0]),
        "tail_percentile": q,
        "calls": len(calls),
        "fast_calls": len(fast_calls),
        "full_windows": len(full),
        "fast_windows": len(fast),
        "run_items_per_s": sum(w.items for w in windows) / sum(w.wall_ns for w in windows) * 1e9,
    }


def setup_seconds(name: str, seed: int) -> float:
    """Import, construction and warm-up, timed in a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", name]
    cmd += ["--seed", str(seed), "--seconds", "0", "--trace", "0"]
    return float(subprocess.run(cmd, check=True, capture_output=True, text=True).stdout)


def provenance(args) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if Path(".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "splitfactor").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.machine(),
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def measured(args, workload, tally: Tally):
    """Measure for ``args.seconds`` in SETUP_PROBES equal segments, each
    pinned to the next usable core in turn, with a set-up probe after each.

    The cores of a shared host can be slowed separately, and the scheduler
    keeps a single busy thread on one of them, slow or not; turning through
    the cores lets the fastest windows come from whichever core was least
    slowed.  The probes run on the segment's core, so set-up is timed over
    the same stretch of time and the same cores as the workload.
    """
    cores = sorted(os.sched_getaffinity(0))
    windows, setups = [], []
    try:
        for k in range(SETUP_PROBES):
            os.sched_setaffinity(0, {cores[k % len(cores)]})
            windows += closed_loop(workload, args.seconds / SETUP_PROBES, tally)
            setups.append(setup_seconds(args.workload, args.seed))
    finally:
        os.sched_setaffinity(0, cores)
    summary = summarise(windows)
    values = {
        "items_per_s": summary.pop("items_per_s"),
        "item_p50_ms": summary.pop("p50_ns") / 1e6,
        "item_tail_ms": summary.pop("tail_ns") / 1e6,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {"items": sum(w.items for w in windows), **summary, "setup_samples_s": setups}
    return values, info, END_TO_END


def traced(args, workload, tally: Tally):
    import tracing

    block, chunk = tracing.BLOCKS[args.workload]
    tracer, steps, overhead = tracing.traced_run(workload, block, chunk)
    for step in steps:
        tally.add(step)
    values = tracing.layer_metrics(tracer, overhead)
    problems = tracing.reference_problems(args.workload, args.seed, values)
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}-s{args.seed}.tsv.gz"
    tracer.write(spans)
    info = {"block": block, "spans": str(spans.relative_to(HERE.parent)), "reference_problems": problems}
    return values, info, tracing.LAYER_METRICS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "splitfactor" / "__init__.py").is_file():
        print("perfbench: run from the root of a checkout with src/splitfactor", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC.resolve()))

    start = time.perf_counter()
    import workloads

    workload, warmup = workloads.make(args.workload, args.seed)
    if args.setup_probe:
        print(time.perf_counter() - start)
        return 0
    tally = Tally()
    for step in warmup:
        tally.add(step)
    values, info, table = (traced if args.trace else measured)(args, workload, tally)
    info.update(
        attempted=tally.attempted,
        failed=tally.failed,
        failed_frac=tally.failed_frac,
        checks_failed=tally.checks_failed,
        failures=tally.notes,
    )
    print(json.dumps({"provenance": {**provenance(args), **info}}))
    result = {
        "correct": tally.failed == 0 and not info.get("reference_problems"),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in table},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
