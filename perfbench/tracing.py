"""The traced run: per-layer time and counts, from the benchmark's own files.

Spans are recorded around the calls the workload makes into each layer's
public functions.  They are kept in memory (four integers each: item,
name, start, end; the parent of every span is its item) and written out
when the run ends.  ``verify_all`` is one opaque call here, so the time
its components take inside it is estimated by a replay: the public
component functions are called once each on the same instance, and
``verify.self_s`` is ``verify_all`` time minus the replay time.

The traced run processes a fixed block of items, in chunks.  Each chunk is
run once without and once with tracing (alternating which goes first),
which gives ``trace.overhead_frac``; the replay of a chunk runs after both.
"""

from __future__ import annotations

import copy
import gzip
from array import array
from time import perf_counter_ns as now

from splitfactor import (
    build_by_enumeration,
    build_by_formula,
    enumerate_induced_cycles,
    enumerate_induced_paths,
    enumerate_two_switches,
    instance,
)

from workloads import RANDOM_COUNT, RELEASE_SEED, Sweep

# Per-layer metrics and units, in the order BENCHMARK.json lists them.
LAYER_METRICS = (
    ("corpus.generate_s", "s"),
    ("corpus.instances", "count"),
    ("switches.enumerate_s", "s"),
    ("switches.enumerate_calls", "count"),
    ("switches.moves", "count"),
    ("switches.apply_s", "s"),
    ("switches.applies", "count"),
    ("factor.formula_s", "s"),
    ("factor.size_total", "count"),
    ("factor.simple_edges", "count"),
    ("factor.enumeration_build_s", "s"),
    ("factor.diameter_s", "s"),
    ("verify.paths_s", "s"),
    ("verify.paths", "count"),
    ("verify.path_len_max", "count"),
    ("verify.cycles_s", "s"),
    ("verify.cycles", "count"),
    ("verify.verify_all_s", "s"),
    ("verify.self_s", "s"),
    ("verify.checks_failed", "count"),
    ("trace.overhead_frac", "fraction"),
)

REPLAYED = (
    "factor.formula",
    "factor.enumeration_build",
    "switches.enumerate",
    "verify.paths",
    "verify.cycles",
    "factor.diameter",
)

# Items per traced run, and per chunk.  Each sweep block is its whole
# corpus, visited once in the seed's stride order.
BLOCKS = {
    "sweep-exhaustive-4x4": (1 << 16, 1024),
    "sweep-random-8x8": (RANDOM_COUNT, 250),
    "walk-12x12": (4_000, 250),
}

# Exact counts of a traced run, recorded on the code this benchmark was
# added to.  A key with seed None holds for every seed.  The identity
# factor.size_total == switches.moves is asserted on every seed.
REFERENCE_KEYS = ("corpus.instances", "switches.moves", "verify.paths", "verify.cycles")
REFERENCES = {
    ("sweep-exhaustive-4x4", None): (65_536, 294_912, 267_552, 30_522),
    ("sweep-random-8x8", None): (10_000, 976_348, 429_420, 334_078),
    ("walk-12x12", RELEASE_SEED): (0, 2_396_094, 0, 0),
}


class Tracer:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self):
        self.names: dict[str, int] = {}
        self.rows = array("q")
        self.counts: dict[str, int] = {}

    def span(self, item: int, name: str, start: int, end: int) -> None:
        code = self.names.setdefault(name, len(self.names))
        self.rows.extend((item, code, start, end))

    def add(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name: str, value: int) -> None:
        self.counts[name] = max(self.counts.get(name, 0), value)

    def seconds(self) -> dict[str, float]:
        """Total span time by span name."""
        totals = [0] * len(self.names)
        rows = self.rows
        for i in range(0, len(rows), 4):
            totals[rows[i + 1]] += rows[i + 3] - rows[i + 2]
        return {name: totals[code] / 1e9 for name, code in self.names.items()}

    def write(self, path) -> None:
        """Write the spans as gzipped TSV: item, span name, start ns, end ns."""
        labels = {code: name for name, code in self.names.items()}
        rows = self.rows
        origin = min(rows[2::4], default=0)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("item\tspan\tstart_ns\tend_ns\n")
            for i in range(0, len(rows), 4):
                out.write(
                    f"{rows[i]}\t{labels[rows[i + 1]]}\t{rows[i + 2] - origin}\t{rows[i + 3] - origin}\n"
                )


def replay(S, item: int, tracer: Tracer) -> None:
    """Call each public component of ``verify_all`` once on ``S``."""
    t0 = now()
    phi = build_by_formula(S)
    t1 = now()
    build_by_enumeration(S)
    t2 = now()
    moves = enumerate_two_switches(S)
    t3 = now()
    paths = enumerate_induced_paths(phi)
    t4 = now()
    cycles = enumerate_induced_cycles(phi)
    t5 = now()
    phi.diameter()
    t6 = now()
    stamps = (t0, t1, t2, t3, t4, t5, t6)
    for name, start, end in zip(REPLAYED, stamps, stamps[1:]):
        tracer.span(item, name, start, end)
    tracer.add("factor.size_total", phi.size())
    tracer.add("factor.simple_edges", phi.simple_edge_count())
    tracer.add("switches.enumerate_calls", 1)
    tracer.add("switches.moves", len(moves))
    tracer.add("verify.paths", len(paths))
    tracer.add("verify.cycles", len(cycles))
    tracer.peak("verify.path_len_max", max((len(p) for p in paths), default=0))


def traced_run(workload, block: int, chunk: int):
    """Run ``block`` steps traced; returns (tracer, steps, overhead fraction)."""
    tracer = Tracer()
    steps = []
    plain_ns = traced_ns = 0
    done = 0
    while done < block:
        k = min(chunk, block - done)
        # Workloads hold only immutable state, so a shallow copy replays
        # the chunk from the same position in the input sequence.
        plain, traced = copy.copy(workload), copy.copy(workload)
        passes = [(plain, None), (traced, tracer)]
        if done // chunk % 2:
            passes.reverse()
        for w, tr in passes:
            t0 = now()
            out = [w.step(tr) for _ in range(k)]
            elapsed = now() - t0
            if tr is None:
                plain_ns += elapsed
            else:
                traced_ns += elapsed
                steps.extend(out)
        if isinstance(workload, Sweep):
            for _ in range(k):
                index = workload.next_index()
                replay(instance(workload.spec, index), index, tracer)
        workload = traced
        done += k
    return tracer, steps, traced_ns / plain_ns - 1


def layer_metrics(tracer: Tracer, overhead: float) -> dict[str, float]:
    """Every per-layer metric; layers the workload never calls read 0."""
    values: dict[str, float] = dict.fromkeys((name for name, _ in LAYER_METRICS), 0)
    values.update(tracer.counts)
    seconds = tracer.seconds()
    for name, total in seconds.items():
        values[name + "_s"] = total
    if "verify.verify_all" in seconds:
        values["verify.self_s"] = seconds["verify.verify_all"] - sum(
            seconds[name] for name in REPLAYED
        )
    values["trace.overhead_frac"] = overhead
    return values


def reference_problems(name: str, seed: int, values: dict[str, float]) -> list[str]:
    """Mismatches against the recorded counts and the size/moves identity."""
    problems = []
    if values["factor.size_total"] != values["switches.moves"]:
        problems.append(
            f"factor.size_total {values['factor.size_total']} != "
            f"switches.moves {values['switches.moves']}"
        )
    expected = REFERENCES.get((name, None), REFERENCES.get((name, seed)))
    if expected is not None:
        for key, want in zip(REFERENCE_KEYS, expected):
            if values[key] != want:
                problems.append(f"{key} is {values[key]}, recorded {want}")
    return problems
