"""The benchmark's workloads: closed loop, one caller, outputs checked.

Each workload builds its inputs from the seed alone and exposes
``step(tracer)``, which makes one timed call into splitfactor, checks what
came back and returns a :class:`Step`.  A call that raises becomes a failed
item carrying its instance id, and the run goes on.  With a tracer the same
step also records spans around each call it makes and counts the work done;
without one it only reads the clock around the timed call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter_ns as now

from splitfactor import (
    CHECK_NAMES,
    CorpusSpec,
    apply_two_switch,
    build_by_formula,
    corpus_size,
    enumerate_two_switches,
    instance,
    instance_id,
    splitmix64,
    verify_all,
)

RELEASE_SEED = 4242
# The release random corpus: 10,000 instances from the release seed.
RANDOM_COUNT = 10_000
# Walk steps between checks that the reversed move restores the graph.
UNDO_EVERY = 16


@dataclass
class Step:
    """Outcome of one call: items attempted and failed, the call's duration
    (None when it raised), failed CHECK lines, and (instance id, reason)
    notes for the failures."""

    items: int
    failed: int
    ns: int | None
    checks_failed: int = 0
    notes: list[tuple[str, str]] = field(default_factory=list)


def _raised(iid: str, items: int, exc: Exception) -> Step:
    return Step(items, items, None, notes=[(iid, f"raised {exc!r}")])


class Sweep:
    """``verify_all`` on one corpus instance per step, one worker.

    Indices run through the corpus from a seeded offset with a seeded stride
    coprime to its size: any prefix of the order samples the whole corpus
    (a prefix of ``generate()`` would leave the last independent vertices'
    neighbourhoods almost empty), and ``size`` steps visit every instance
    exactly once.  Past the end the order repeats.
    """

    def __init__(self, spec: CorpusSpec, seed: int):
        self.spec = spec
        self.size = corpus_size(spec)
        self.offset = splitmix64(seed, 0) % self.size
        stride = splitmix64(seed, 1) % self.size | 1
        while math.gcd(stride, self.size) != 1:
            stride += 2
        self.stride = stride
        self.t = 0

    def next_index(self) -> int:
        index = (self.offset + self.t * self.stride) % self.size
        self.t += 1
        return index

    def step(self, tracer=None) -> Step:
        index = self.next_index()
        iid = instance_id(self.spec, index)
        try:
            t0 = now()
            S = instance(self.spec, index)
            t1 = now()
            report = verify_all(S, instance=iid)
            t2 = now()
        except Exception as exc:
            return _raised(iid, 1, exc)
        bad = report.failures()
        notes = [(iid, c.line()) for c in bad]
        names = sorted(c.name for c in report.checks)
        if names != sorted(CHECK_NAMES):
            notes.append((iid, f"report has checks {names}, expected {sorted(CHECK_NAMES)}"))
        if report.instance != iid:
            notes.append((iid, f"report names instance {report.instance!r}"))
        if tracer is not None:
            tracer.span(index, "corpus.generate", t0, t1)
            tracer.span(index, "verify.verify_all", t1, t2)
            tracer.add("corpus.instances", 1)
            tracer.add("verify.checks_failed", len(bad))
        return Step(1, int(bool(notes)), t2 - t1, len(bad), notes)


class Walk:
    """A seeded 2-switch random walk on the random 12x12 split graph of the
    release seed.

    Every seed starts from the same graph: 2-switches keep the degree
    sequence, and with it the walk's state space and its ~600 moves per
    state, which vary twofold between the starts of different seeds.  The
    seed picks the moves: step t enumerates the state's moves, takes the
    one that ``splitmix64(seed, t)`` picks, applies it and builds the new
    state's factor graph.  It checks that the degree sequence is kept, that the
    factor graph's size equals the number of moves enumerated, and every
    ``UNDO_EVERY`` steps that the reversed move restores the previous graph.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.S = instance(CorpusSpec("random", 12, 12, count=1, seed=RELEASE_SEED), 0)
        self.phi = build_by_formula(self.S)
        self.degrees = self.S.degrees()
        self.t = 0

    def step(self, tracer=None) -> Step:
        t, S, phi = self.t, self.S, self.phi
        self.t += 1
        iid = f"walk-s{self.seed}-step{t}"
        try:
            t0 = now()
            moves = enumerate_two_switches(S)
            move = moves[splitmix64(self.seed, t) % len(moves)]
            t1 = now()
            nxt = apply_two_switch(S, move)
            t2 = now()
            nxt_phi = build_by_formula(nxt)
            t3 = now()
            undone = t % UNDO_EVERY != 0 or apply_two_switch(nxt, move.reversed()) == S
        except Exception as exc:
            return _raised(iid, 1, exc)
        notes = []
        if phi.size() != len(moves):
            notes.append((iid, f"factor graph size {phi.size()} != {len(moves)} moves"))
        if nxt.degrees() != self.degrees:
            notes.append((iid, "degree sequence changed"))
        if not undone:
            notes.append((iid, f"reversed {move} does not restore the graph"))
        if tracer is not None:
            tracer.span(t, "switches.enumerate", t0, t1)
            tracer.span(t, "switches.apply", t1, t2)
            tracer.span(t, "factor.formula", t2, t3)
            tracer.add("switches.enumerate_calls", 1)
            tracer.add("switches.moves", len(moves))
            tracer.add("switches.applies", 1)
            tracer.add("factor.size_total", phi.size())
            tracer.add("factor.simple_edges", phi.simple_edge_count())
        self.S, self.phi = nxt, nxt_phi
        return Step(1, int(bool(notes)), t3 - t0, notes=notes)


WORKLOADS = {
    "sweep-exhaustive-4x4": lambda seed: Sweep(CorpusSpec("exhaustive", 4, 4), seed),
    "sweep-random-8x8": lambda seed: Sweep(
        CorpusSpec("random", 8, 8, count=RANDOM_COUNT, seed=RELEASE_SEED), seed
    ),
    "walk-12x12": Walk,
}

# Calls made untimed after construction, so timing starts on warm code;
# part of set-up.
WARMUP_STEPS = {
    "sweep-exhaustive-4x4": 400,
    "sweep-random-8x8": 50,
    "walk-12x12": 100,
}


def make(name: str, seed: int):
    """Construct a workload and warm it up; returns it with the warm-up steps."""
    workload = WORKLOADS[name](seed)
    return workload, [workload.step() for _ in range(WARMUP_STEPS[name])]
