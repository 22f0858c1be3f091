"""The extremal family attaining the factor-graph diameter bound.

For every n >= 1 there is a split graph with exactly n 2-switches whose
factor graph is a path of length ceil((n+1)/2), meeting the diameter
bound with equality.  The family is built inductively from the 4-vertex
path (n=1, K = {x1,x2}, I = {y1,y2}):

- odd n = 2k-1 -> n+1: add independent vertex y_{k+2} whose neighborhood
  is the union of the neighborhoods of y_1..y_k;
- even n = 2k-2 -> n+1: add a clique vertex and join it to y_{k+1}.

Along the factor path the multiplicities are 1 at the end the family
grows away from, 2 on every interior edge, and 2 or 1 at the far end for
odd or even n.
"""

from __future__ import annotations

from dataclasses import dataclass

from .factor import FactorGraph, build_by_formula
from .graph import GraphError, SplitGraph
from .switches import enumerate_two_switches
from .verify import CheckResult

EXTREMAL_DEGREE = "extremal-switch-degree"
EXTREMAL_PATH = "extremal-path-shape"
EXTREMAL_PATTERN = "extremal-multiplicity-pattern"
EXTREMAL_EXACT = "extremal-factor-exact"
EXTREMAL_DIAMETER = "extremal-diameter-sharp"

EXTREMAL_CHECK_NAMES = (
    EXTREMAL_DEGREE,
    EXTREMAL_PATH,
    EXTREMAL_PATTERN,
    EXTREMAL_EXACT,
    EXTREMAL_DIAMETER,
)


@dataclass(frozen=True)
class ExtremalInstance:
    """The n-th family member plus its independently constructed factor graph."""

    n: int
    graph: SplitGraph
    expected_factor: FactorGraph

    @property
    def path_length(self) -> int:
        return (self.n + 2) // 2  # ceil((n+1)/2)


def _check_index(n: object) -> None:
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise GraphError(f"extremal family is indexed by integers n >= 1, got {n!r}")


def expected_multiplicities(n: int) -> list[int]:
    """Multiplicities along the factor path, from the always-simple end."""
    _check_index(n)
    length = (n + 2) // 2
    if length == 1:
        return [1]
    return [1] + [2] * (length - 2) + [2 if n % 2 else 1]


def build_extremal(n: int) -> ExtremalInstance:
    """Construct the n-th family member by running the induction from n=1."""
    _check_index(n)
    clique = ["x1", "x2"]
    nbhd: dict[str, set[str]] = {"y1": {"x1"}, "y2": {"x2"}}
    for m in range(1, n):
        if m % 2 == 1:
            half = (m + 1) // 2
            union: set[str] = set()
            for j in range(1, half + 1):
                union |= nbhd[f"y{j}"]
            nbhd[f"y{half + 2}"] = union
        else:
            half = (m + 2) // 2
            new_x = f"x{len(clique) + 1}"
            clique.append(new_x)
            nbhd[f"y{half + 1}"] = nbhd[f"y{half + 1}"] | {new_x}
    graph = SplitGraph.from_neighborhoods(clique, nbhd)
    mults = expected_multiplicities(n)
    ys = graph.independent
    expected = FactorGraph(
        ys, {(ys[t], ys[t + 1]): mults[t] for t in range(len(mults))}
    )
    return ExtremalInstance(n, graph, expected)


def _spanning_path(phi: FactorGraph) -> tuple[str, ...] | None:
    """phi's simple view as one path through every vertex, from its
    smaller-index end, or None when the simple view is no such path."""
    nbr = phi.neighbor_masks()
    ends = [v for v, mask in enumerate(nbr) if mask.bit_count() == 1]
    if len(ends) != 2 or any(mask.bit_count() > 2 for mask in nbr):
        return None
    order = [ends[0]]
    seen = 1 << ends[0]
    while step := nbr[order[-1]] & ~seen:
        order.append(step.bit_length() - 1)
        seen |= step
    if len(order) != len(nbr):
        return None
    return tuple(phi.vertices[v] for v in order)


def verify_extremal(inst: ExtremalInstance) -> list[CheckResult]:
    """Recompute the factor graph and check every promised property."""
    n = inst.n
    phi = build_by_formula(inst.graph)
    length = inst.path_length
    results: list[CheckResult] = []

    moves = len(enumerate_two_switches(inst.graph))
    degree_ok = phi.size() == n and moves == n
    results.append(
        CheckResult(
            EXTREMAL_DEGREE,
            degree_ok,
            None if degree_ok else f"n={n}; factor size {phi.size()}, {moves} enumerated moves",
        )
    )

    order = _spanning_path(phi)
    shape_ok = order is not None and len(order) == length + 1
    results.append(
        CheckResult(
            EXTREMAL_PATH,
            shape_ok,
            None if shape_ok else f"n={n}; factor graph is not a path of length {length}",
        )
    )

    pattern_ok = False
    if order is not None:
        along = [phi.multiplicity(order[t], order[t + 1]) for t in range(len(order) - 1)]
        expected = expected_multiplicities(n)
        pattern_ok = along == expected or along[::-1] == expected
    results.append(
        CheckResult(
            EXTREMAL_PATTERN,
            pattern_ok,
            None if pattern_ok else f"n={n}; multiplicities along the path are off",
        )
    )

    exact_ok = phi == inst.expected_factor
    results.append(
        CheckResult(
            EXTREMAL_EXACT,
            exact_ok,
            None if exact_ok else f"n={n}; recomputed factor differs from construction",
        )
    )

    summary = phi.diameter()
    bound = (phi.size() + 2) // 2
    diam_ok = summary.connected and summary.value == length and bound == length
    results.append(
        CheckResult(
            EXTREMAL_DIAMETER,
            diam_ok,
            None if diam_ok else f"n={n}; diameter {summary.value}, bound {bound}, want {length}",
        )
    )
    return results
