"""Instance corpora for sweeps: exhaustive and seeded-random split graphs.

An instance over sizes (k, i) is determined by the neighborhood of each
independent vertex, a subset of the clique, i.e. a k-bit mask.  The
exhaustive corpus walks every code in [0, 2**(k*i)); the random corpus
draws masks from SplitMix64, a 64-bit counter-based generator whose
output at counter c from seed s is the pure function mix(s + (c+1)*G)
with G the golden-ratio increment.  Randomness is therefore
index-addressable: instance t consumes counters t*i .. t*i+i-1, so any
index range of the stream can be regenerated independently (workers
shard by range) and streams reproduce bit-identically across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .graph import GraphError, SplitGraph

_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1

EXHAUSTIVE_BIT_BUDGET = 20


def splitmix64(seed: int, counter: int) -> int:
    """SplitMix64 output at a counter position; pure in (seed, counter)."""
    z = (seed + (counter + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class CorpusSpec:
    """Parameters of one corpus.

    mode ``exhaustive``: every instance at sizes (k_max, i_max); the bit
    budget k_max * i_max is capped so sweeps stay enumerable.  mode
    ``random``: ``count`` instances at those sizes from seed ``seed``.
    """

    mode: str
    k_max: int
    i_max: int
    count: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("exhaustive", "random"):
            raise GraphError(f"unknown corpus mode {self.mode!r}")
        for name in ("k_max", "i_max", "count", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise GraphError(f"{name} must be an int, got {value!r}")
        if self.k_max < 0 or self.i_max < 0:
            raise GraphError("sizes must be non-negative")
        if self.mode == "exhaustive" and self.k_max * self.i_max > EXHAUSTIVE_BIT_BUDGET:
            raise GraphError(
                f"exhaustive budget exceeded: k*i = {self.k_max * self.i_max} "
                f"> {EXHAUSTIVE_BIT_BUDGET}"
            )
        if self.mode == "random":
            if self.count < 1:
                raise GraphError("random corpus needs count >= 1")
            if self.k_max > 63:
                raise GraphError("random corpus draws at most 63 clique bits per vertex")


_empty_cache: dict[tuple[int, int], SplitGraph] = {}


def _empty_graph(k: int, i: int) -> SplitGraph:
    """The instance at sizes (k, i) with no I-K edges, built once per size."""
    key = (k, i)
    if key not in _empty_cache:
        _empty_cache[key] = SplitGraph(
            tuple(f"x{j}" for j in range(1, k + 1)),
            tuple(f"y{j}" for j in range(1, i + 1)),
        )
    return _empty_cache[key]


def corpus_labels(k: int, i: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Standard labels: clique x1..xk, independent y1..yi."""
    empty = _empty_graph(k, i)
    return empty.clique, empty.independent


def corpus_size(spec: CorpusSpec) -> int:
    if spec.mode == "exhaustive":
        return 1 << (spec.k_max * spec.i_max)
    return spec.count


def instance_id(spec: CorpusSpec, index: int) -> str:
    if spec.mode == "exhaustive":
        return f"exhaustive-k{spec.k_max}-i{spec.i_max}-{index}"
    return f"random-k{spec.k_max}-i{spec.i_max}-s{spec.seed}-{index}"


def _masks_for(spec: CorpusSpec, index: int) -> list[int]:
    k, i = spec.k_max, spec.i_max
    kmask = (1 << k) - 1
    if spec.mode == "exhaustive":
        code = index
        return [(code >> (j * k)) & kmask for j in range(i)]
    base = index * i
    return [splitmix64(spec.seed, base + j) & kmask for j in range(i)]


def instance(spec: CorpusSpec, index: int) -> SplitGraph:
    """Materialize one instance by index; pure in (spec, index)."""
    total = corpus_size(spec)
    if not 0 <= index < total:
        raise GraphError(f"index {index} outside corpus of size {total}")
    return _empty_graph(spec.k_max, spec.i_max).with_masks(_masks_for(spec, index))


def generate(
    spec: CorpusSpec, start: int = 0, stop: int | None = None
) -> Iterator[tuple[str, SplitGraph]]:
    """Yield (instance id, graph) for an index range of the corpus."""
    total = corpus_size(spec)
    if stop is None:
        stop = total
    if not (0 <= start <= stop <= total):
        raise GraphError(f"range [{start}, {stop}) outside corpus of size {total}")
    for index in range(start, stop):
        yield instance_id(spec, index), instance(spec, index)
