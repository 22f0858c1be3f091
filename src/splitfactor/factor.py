"""The factor multigraph of a split graph.

The factor graph lives on the independent set I.  The multiplicity of a
pair {u, v} is the number of 2-switches whose deleted edges touch u and
v, which factors as (d_u - c)(d_v - c) where c is the common neighbor
count: each move pairs a private neighbor of u with a private neighbor
of v.  Two builders are provided, so each serves as an oracle for the
other.  One evaluates that product from degrees and common-neighbor
counts.  The other reads each I-pair's private neighbor labels off its
masks, as ``enumerate_two_switches`` does, and counts the pair's moves by
listing them, one (x, y) pair per move; it never multiplies the two
list sizes, so a fault in the product does not carry over to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Mapping

from .graph import GraphError, SplitGraph, _pair, bits
from .switches import _private_label_pairs


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
        given: dict[tuple[int, int], int] = {}  # every entry, zeros included
        mult: dict[tuple[int, int], int] = {}
        nbr = [0] * len(verts)
        for key, m in multiplicities.items():
            a_lab, b_lab = _pair(key)
            if a_lab not in index or b_lab not in index:
                bad = a_lab if a_lab not in index else b_lab
                raise GraphError(f"multiplicity references unknown vertex {bad!r}")
            if a_lab == b_lab:
                raise GraphError(f"loop multiplicity on {a_lab!r}")
            if type(m) is not int or m < 0:  # exact type: bool is an int subclass
                raise GraphError(f"multiplicity of {a_lab!r}-{b_lab!r} must be a non-negative int")
            a, b = index[a_lab], index[b_lab]
            key = (a, b) if a < b else (b, a)
            if given.setdefault(key, m) != m:
                raise GraphError(f"conflicting multiplicities for {a_lab!r}-{b_lab!r}")
            if m == 0:
                continue
            mult[key] = m
            nbr[a] |= 1 << b
            nbr[b] |= 1 << a
        _assemble(self, verts, mult, nbr, index)

    def __setattr__(self, name, value):
        # _nbr_masks is set last, by _assemble and by pickle and copy, which follow __slots__
        if hasattr(self, "_nbr_masks"):
            raise AttributeError("FactorGraph is immutable")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        raise AttributeError("FactorGraph is immutable")

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


def _assemble(
    g: FactorGraph,
    vertices: tuple[str, ...],
    mult: dict[tuple[int, int], int],
    nbr: list[int],
    index: dict[str, int] | None = None,
) -> FactorGraph:
    """Fill ``g`` from index space and return it.  ``mult`` holds the positive
    multiplicities keyed (a, b) with a < b, by position in ``vertices``,
    ``nbr`` the matching neighbor masks and ``index`` each vertex's position
    (built here when not given).  Nothing is checked."""
    if index is None:
        index = dict(zip(vertices, range(len(vertices))))
    init = object.__setattr__  # skips the immutability guard's lookups
    init(g, "vertices", vertices)
    init(g, "_index", index)
    init(g, "_mult", mult)
    init(g, "_nbr_masks", tuple(nbr))
    return g


# -- builders ---------------------------------------------------------------------


def build_by_formula(S: SplitGraph) -> FactorGraph:
    """Factor graph via the private-neighbor product, no move enumeration."""
    k = S.k_size
    masks = S.adj_masks[k:]
    degrees = [m.bit_count() for m in masks]
    n = len(masks)
    mult: dict[tuple[int, int], int] = {}
    nbr = [0] * n
    for a in range(n):
        ma = masks[a]
        da = degrees[a]
        for b in range(a + 1, n):
            shared = (ma & masks[b]).bit_count()
            m = (da - shared) * (degrees[b] - shared)
            if m:
                mult[a, b] = m
                nbr[a] |= 1 << b
                nbr[b] |= 1 << a
    return _assemble(object.__new__(FactorGraph), S.independent, mult, nbr)


def build_by_enumeration(S: SplitGraph) -> FactorGraph:
    """Factor graph by counting each I-pair's 2-switches as they are listed.

    The moves of a pair are the (x, y) pairs of its private neighbor
    labels, read off the masks as ``enumerate_two_switches`` reads them.
    They are listed one element per move and counted, without building
    ``TwoSwitch`` records and without multiplying the two list sizes, so
    the count stays independent of the product ``build_by_formula`` uses.
    """
    mult: dict[tuple[int, int], int] = {}
    nbr = [0] * len(S.independent)
    for a, b, xs, ys in _private_label_pairs(S):
        mult[a, b] = len(list(product(xs, ys)))
        nbr[a] |= 1 << b
        nbr[b] |= 1 << a
    return _assemble(object.__new__(FactorGraph), S.independent, mult, nbr)


# -- output -----------------------------------------------------------------------


def format_multiplicity_listing(phi: FactorGraph) -> str:
    """One line per positive pair: 'u v m'."""
    return "".join(f"{u} {v} {m}\n" for u, v, m in phi.edges())


# DOT keywords, case-insensitive, which cannot name a graph unquoted
_DOT_KEYWORDS = frozenset({"node", "edge", "graph", "digraph", "subgraph", "strict"})


def _dot_quoted(text: str) -> str:
    """A DOT quoted string, with backslash and double quote escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(phi: FactorGraph, name: str = "phi") -> str:
    """DOT rendering; each edge carries label and penwidth equal to its multiplicity.

    Labels are DOT quoted strings.  ``name`` is written bare when it is an
    ASCII identifier other than a DOT keyword, and quoted the same way
    otherwise.
    """
    quoted = {v: _dot_quoted(v) for v in phi.vertices}
    if not name.isascii() or not name.isidentifier() or name.lower() in _DOT_KEYWORDS:
        name = _dot_quoted(name)
    lines = [f"graph {name} {{"]
    for v in phi.vertices:
        lines.append(f"  {quoted[v]};")
    for u, v, m in phi.edges():
        lines.append(f"  {quoted[u]} -- {quoted[v]} [label={m}, penwidth={m}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
