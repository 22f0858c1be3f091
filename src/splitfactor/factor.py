"""The factor multigraph of a split graph.

The factor graph lives on the independent set I.  The multiplicity of a
pair {u, v} is the number of 2-switches whose deleted edges touch u and
v, which factors as (d_u - c)(d_v - c) where c is the common neighbor
count: each move pairs a private neighbor of u with a private neighbor
of v.  Two builders are provided, one evaluating that product and one
counting enumerated moves, so each serves as an oracle for the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .graph import GraphError, SplitGraph, bits
from .switches import enumerate_two_switches


@dataclass(frozen=True)
class DiameterSummary:
    """Diameter of the underlying simple view.

    ``value`` is None when the graph is disconnected; per-component
    diameters are then reported instead.  The empty graph gets value 0
    and the ``empty`` flag.
    """

    connected: bool
    value: int | None
    component_diameters: tuple[int, ...]
    empty: bool = False


class FactorGraph:
    """Loopless multigraph on labeled vertices with positive multiplicities.

    The multiplicity map is sparse: absent pairs have multiplicity zero
    and zero entries are never stored.  Instances are immutable.
    """

    __slots__ = ("vertices", "_index", "_mult", "_nbr_masks")

    vertices: tuple[str, ...]

    def __init__(
        self,
        vertices: Iterable[str],
        multiplicities: Mapping[tuple[str, str], int],
    ):
        verts = tuple(vertices)
        index: dict[str, int] = {}
        for pos, v in enumerate(verts):
            if v in index:
                raise GraphError(f"duplicate vertex label: {v!r}")
            index[v] = pos
        mult: dict[tuple[int, int], int] = {}
        nbr = [0] * len(verts)
        for (a_lab, b_lab), m in multiplicities.items():
            if a_lab not in index or b_lab not in index:
                bad = a_lab if a_lab not in index else b_lab
                raise GraphError(f"multiplicity references unknown vertex {bad!r}")
            if a_lab == b_lab:
                raise GraphError(f"loop multiplicity on {a_lab!r}")
            if type(m) is not int or m < 0:  # exact type: bool is an int subclass
                raise GraphError(f"multiplicity of {a_lab!r}-{b_lab!r} must be a non-negative int")
            if m == 0:
                continue
            a, b = index[a_lab], index[b_lab]
            key = (a, b) if a < b else (b, a)
            if key in mult and mult[key] != m:
                raise GraphError(f"conflicting multiplicities for {a_lab!r}-{b_lab!r}")
            mult[key] = m
            nbr[a] |= 1 << b
            nbr[b] |= 1 << a
        self.vertices = verts
        self._index = index
        self._mult = mult
        self._nbr_masks = tuple(nbr)

    def __setattr__(self, name, value):
        if hasattr(self, "_nbr_masks") and name != "_nbr_masks":
            raise AttributeError("FactorGraph is immutable")
        object.__setattr__(self, name, value)

    # -- queries --------------------------------------------------------------

    def index_of(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise GraphError(f"unknown vertex {label!r}") from None

    def multiplicity(self, u: str, v: str) -> int:
        a, b = self.index_of(u), self.index_of(v)
        if a == b:
            raise GraphError(f"multiplicity of a loop queried: {u!r}")
        return self._mult.get((a, b) if a < b else (b, a), 0)

    def multiplicity_table(self) -> list[int]:
        """All multiplicities as a flat row-major list: entry ``a * |V| + b``
        is the multiplicity of vertex indices a and b, zero on the diagonal."""
        n = len(self.vertices)
        table = [0] * (n * n)
        for (a, b), m in self._mult.items():
            table[a * n + b] = table[b * n + a] = m
        return table

    def neighbor_masks(self) -> tuple[int, ...]:
        """Adjacency bitmasks of the underlying simple view, by vertex index."""
        return self._nbr_masks

    def neighbors(self, v: str) -> tuple[str, ...]:
        mask = self._nbr_masks[self.index_of(v)]
        return tuple(self.vertices[b] for b in bits(mask))

    def edges(self) -> list[tuple[str, str, int]]:
        """Positive-multiplicity pairs as (u, v, m), canonically ordered."""
        return [
            (self.vertices[a], self.vertices[b], self._mult[(a, b)])
            for (a, b) in sorted(self._mult)
        ]

    def size(self) -> int:
        """Edge count with multiplicity."""
        return sum(self._mult.values())

    def simple_edge_count(self) -> int:
        return len(self._mult)

    def underlying_simple(self) -> dict[str, frozenset[str]]:
        """Adjacency of the simple view: neighbors = positive-multiplicity pairs."""
        return {v: frozenset(self.neighbors(v)) for v in self.vertices}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FactorGraph):
            return NotImplemented
        return self.vertices == other.vertices and self._mult == other._mult

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"FactorGraph(|V|={len(self.vertices)}, size={self.size()})"

    # -- metrics ---------------------------------------------------------------

    def reach(self, source: int) -> tuple[int, int]:
        """Breadth-first search from vertex index ``source`` of the simple view:
        the mask of the vertices reached and the source's eccentricity among them."""
        nbr = self._nbr_masks
        seen = frontier = 1 << source
        dist = -1
        while frontier:
            dist += 1
            nxt = 0
            for w in bits(frontier):
                nxt |= nbr[w]
            frontier = nxt & ~seen
            seen |= frontier
        return seen, dist

    def diameter(self) -> DiameterSummary:
        n = len(self.vertices)
        if n == 0:
            return DiameterSummary(connected=True, value=0, component_diameters=(), empty=True)
        comps: dict[int, int] = {}  # a BFS's reach is its component; discovery order
        for v in range(n):
            seen, dist = self.reach(v)
            comps[seen] = max(comps.get(seen, 0), dist)
        per_comp = tuple(comps.values())
        if len(per_comp) == 1:
            return DiameterSummary(connected=True, value=per_comp[0], component_diameters=per_comp)
        return DiameterSummary(connected=False, value=None, component_diameters=per_comp)


# -- builders ---------------------------------------------------------------------


def build_by_formula(S: SplitGraph) -> FactorGraph:
    """Factor graph via the private-neighbor product, no move enumeration."""
    labels = S.labels
    masks = S.adj_masks
    k = S.k_size
    n = len(labels)
    mult: dict[tuple[str, str], int] = {}
    for a in range(k, n):
        ma = masks[a]
        da = ma.bit_count()
        for b in range(a + 1, n):
            mb = masks[b]
            shared = (ma & mb).bit_count()
            m = (da - shared) * (mb.bit_count() - shared)
            if m:
                mult[(labels[a], labels[b])] = m
    return FactorGraph(S.independent, mult)


def build_by_enumeration(S: SplitGraph) -> FactorGraph:
    """Factor graph by counting enumerated 2-switches per I-pair."""
    counts: dict[tuple[str, str], int] = {}
    for u, _, v, _ in enumerate_two_switches(S):
        counts[u, v] = counts.get((u, v), 0) + 1
    return FactorGraph(S.independent, counts)


# -- output -----------------------------------------------------------------------


def format_multiplicity_listing(phi: FactorGraph) -> str:
    """One line per positive pair: 'u v m'."""
    return "".join(f"{u} {v} {m}\n" for u, v, m in phi.edges())


def to_dot(phi: FactorGraph, name: str = "phi") -> str:
    """DOT rendering; each edge carries label and penwidth equal to its multiplicity.

    Labels are DOT quoted strings, with backslash and double quote escaped.
    """
    quoted = {v: '"' + v.replace("\\", "\\\\").replace('"', '\\"') + '"' for v in phi.vertices}
    lines = [f"graph {name} {{"]
    for v in phi.vertices:
        lines.append(f"  {quoted[v]};")
    for u, v, m in phi.edges():
        lines.append(f"  {quoted[u]} -- {quoted[v]} [label={m}, penwidth={m}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
