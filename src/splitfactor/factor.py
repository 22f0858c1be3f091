"""The factor multigraph of a split graph.

The factor graph lives on the independent set I.  The multiplicity of a
pair {u, v} is the number of 2-switches whose deleted edges touch u and
v, which factors as (d_u - c)(d_v - c) where c is the common neighbor
count: each move pairs a private neighbor of u with a private neighbor
of v.  Two builders are provided, so each serves as an oracle for the
other.  One evaluates that product from degrees and common-neighbor
counts.  The other takes its multiplicities from ``switch_counts`` in
``switches``, the 2-switch oracle, which counts each I-pair's moves from
its private neighbor masks without multiplying.  ``verify_all`` compares
the oracle's count map with the formula graph directly, so it builds one
factor graph.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Mapping

from .graph import GraphError, SplitGraph, _label_index, _lookup, _mapping, _members, _pair, _Value, bits
from .switches import switch_counts


class FactorGraph(_Value):
    """Loopless multigraph on labeled vertices with positive multiplicities.

    Vertex labels follow ``SplitGraph``'s rule: unique non-empty strings
    with no whitespace, not starting with '#'.  The multiplicity map is
    sparse: absent pairs have multiplicity zero and zero entries are never
    stored.  Instances are immutable.
    """

    __slots__ = ("vertices", "_index", "_mult", "_nbr_masks")

    vertices: tuple[str, ...]

    def __new__(
        cls,
        vertices: Iterable[str],
        multiplicities: Mapping[tuple[str, str], int],
    ) -> "FactorGraph":
        verts = tuple(_members(vertices, "expected a collection of vertex labels"))
        index = _label_index(verts)
        given: dict[tuple[int, int], int] = {}  # every entry, zeros included
        mult: dict[tuple[int, int], int] = {}
        for key, m in _mapping("multiplicities", multiplicities).items():
            a_lab, b_lab = _pair(key)
            a = _lookup(index, a_lab, "multiplicity")
            b = _lookup(index, b_lab, "multiplicity")
            if a == b:
                raise GraphError(f"loop multiplicity on {a_lab!r}")
            if type(m) is not int or m < 0:  # exact type: bool is an int subclass
                raise GraphError(f"multiplicity of {a_lab!r}-{b_lab!r} must be a non-negative int")
            key = (a, b) if a < b else (b, a)
            if given.setdefault(key, m) != m:
                raise GraphError(f"conflicting multiplicities for {a_lab!r}-{b_lab!r}")
            if m:
                mult[key] = m
        return cls._new(*_fields(verts, mult, index))

    # -- queries --------------------------------------------------------------

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

    def matches_counts(
        self, vertices: tuple[str, ...], counts: Mapping[tuple[int, int], int]
    ) -> bool:
        """Whether this is the graph on ``vertices`` whose positive
        multiplicities are ``counts``, keyed (a, b) with a < b by position
        in ``vertices``, as ``switch_counts`` returns them."""
        return self.vertices == vertices and self._mult == counts

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FactorGraph):
            return NotImplemented
        return self.vertices == other.vertices and self._mult == other._mult

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

    def diameter(self) -> int | None:
        """The largest distance between two vertices of the simple view: 0 on
        at most one vertex, None when the view is disconnected."""
        everyone = (1 << len(self.vertices)) - 1
        value = 0
        for v in range(len(self.vertices)):
            seen, dist = self.reach(v)
            if seen != everyone:
                return None
            value = max(value, dist)
        return value


def _fields(
    vertices: tuple[str, ...],
    mult: dict[tuple[int, int], int],
    index: dict[str, int] | None = None,
) -> tuple:
    """The fields of the factor graph on ``vertices``, in ``__slots__`` order.
    ``mult`` holds the positive multiplicities keyed (a, b) with a < b, by
    position in ``vertices``, and ``index`` each vertex's position (the
    builders' shared index when not given).  The simple view's neighbor
    masks are derived from ``mult``'s keys.  Nothing is checked."""
    if index is None:
        index = _builder_index(vertices)
    nbr = [0] * len(vertices)
    for a, b in mult:
        nbr[a] |= 1 << b
        nbr[b] |= 1 << a
    return vertices, index, mult, tuple(nbr)


# the builders' graphs on one independent set share its label index, as the
# split graphs derived from one graph share theirs; the bound keeps a long
# session from holding the index of every independent set it has seen
@lru_cache(maxsize=16)
def _builder_index(vertices: tuple[str, ...]) -> dict[str, int]:
    """Each vertex's position in ``vertices``, which are already checked."""
    return dict(zip(vertices, range(len(vertices))))


# -- builders ---------------------------------------------------------------------


def build_by_formula(S: SplitGraph) -> FactorGraph:
    """Factor graph via the private-neighbor product, no move enumeration."""
    k = S.k_size
    masks = S.adj_masks[k:]
    degrees = [m.bit_count() for m in masks]
    n = len(masks)
    mult: dict[tuple[int, int], int] = {}
    for a in range(n):
        ma = masks[a]
        da = degrees[a]
        for b in range(a + 1, n):
            shared = (ma & masks[b]).bit_count()
            m = (da - shared) * (degrees[b] - shared)
            if m:
                mult[a, b] = m
    return FactorGraph._new(*_fields(S.independent, mult))


def build_by_enumeration(S: SplitGraph) -> FactorGraph:
    """Factor graph by counting each I-pair's 2-switches: the graph on
    ``S.independent`` whose multiplicities are ``switch_counts(S)``."""
    return FactorGraph._new(*_fields(S.independent, switch_counts(S)))


# -- output -----------------------------------------------------------------------


def format_multiplicity_listing(phi: FactorGraph) -> str:
    """One line per positive pair: 'u v m'."""
    return "".join(f"{u} {v} {m}\n" for u, v, m in phi.edges())


def _dot_quoted(text: str) -> str:
    """A DOT quoted string, with backslash and double quote escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(phi: FactorGraph) -> str:
    """DOT rendering as ``graph phi``; each edge carries label and penwidth
    equal to its multiplicity, and labels are DOT quoted strings."""
    quoted = {v: _dot_quoted(v) for v in phi.vertices}
    lines = ["graph phi {"]
    for v in phi.vertices:
        lines.append(f"  {quoted[v]};")
    for u, v, m in phi.edges():
        lines.append(f"  {quoted[u]} -- {quoted[v]} [label={m}, penwidth={m}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
