"""Split graphs with a fixed clique/independent-set bipartition.

A split graph is a simple loopless graph whose vertex set is partitioned
into a clique K and an independent set I.  The partition is part of the
data: the same underlying graph carrying a different partition is a
different value.  Instances are immutable; every query is pure.

Vertex labels are opaque strings.  Internally each vertex gets a dense
integer index (clique first, then independent set, both in input order)
and adjacency is one bitmask per vertex over that index space, which
keeps neighborhood algebra cheap during exhaustive sweeps.

Text format (one graph per file)::

    # comment lines start with '#'
    K: x1 x2
    I: y1 y2 y3
    y1 x1
    y2 x2
    y3 x1

Header lines declare the partition; the remaining lines give edges.
Edges inside K are implied by the partition and may be omitted (they are
reconstructed); an explicit edge inside I is a hard error.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence


class GraphError(ValueError):
    """Invalid graph data or a violated operation precondition."""


class ParseError(GraphError):
    """Malformed graph text; the message carries the 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _check_label(label: object) -> str:
    if not isinstance(label, str) or not label:
        raise GraphError(f"vertex label must be a non-empty string, got {label!r}")
    if any(ch.isspace() for ch in label):
        raise GraphError(f"vertex label may not contain whitespace: {label!r}")
    if label.startswith("#"):
        raise GraphError(f"vertex label may not start with '#': {label!r}")
    return label


class SplitGraph:
    """Immutable split graph ``(S, K, I)``.

    Construction validates the partition invariants: labels are unique
    and well formed, K is completed to a clique (missing K-K edges are
    added), and any explicit edge between two independent-set vertices
    is rejected.  Loops are rejected.
    """

    __slots__ = ("clique", "independent", "labels", "adj_masks", "k_size", "_index")

    clique: tuple[str, ...]
    independent: tuple[str, ...]
    labels: tuple[str, ...]
    adj_masks: tuple[int, ...]
    k_size: int

    def __init__(
        self,
        clique: Iterable[str],
        independent: Iterable[str],
        edges: Iterable[tuple[str, str]] = (),
    ):
        clique_t = tuple(_check_label(v) for v in clique)
        independent_t = tuple(_check_label(v) for v in independent)
        labels = clique_t + independent_t
        index: dict[str, int] = {}
        for pos, lab in enumerate(labels):
            if lab in index:
                raise GraphError(f"duplicate vertex label: {lab!r}")
            index[lab] = pos
        k = len(clique_t)
        adj = [0] * len(labels)
        # K is a clique by definition; materialize those edges up front.
        k_mask = (1 << k) - 1
        for a in range(k):
            adj[a] = k_mask ^ (1 << a)
        for a_lab, b_lab in edges:
            try:
                a = index[a_lab]
            except KeyError:
                raise GraphError(f"edge references unknown vertex {a_lab!r}") from None
            try:
                b = index[b_lab]
            except KeyError:
                raise GraphError(f"edge references unknown vertex {b_lab!r}") from None
            if a == b:
                raise GraphError(f"loop on vertex {a_lab!r}")
            if a >= k and b >= k:
                raise GraphError(
                    f"edge {a_lab!r}-{b_lab!r} joins two independent-set vertices"
                )
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        self.clique = clique_t
        self.independent = independent_t
        self.labels = labels
        self.adj_masks = tuple(adj)
        self.k_size = k
        self._index = index

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_neighborhoods(
        cls, clique: Iterable[str], neighborhoods: Mapping[str, Iterable[str]]
    ) -> "SplitGraph":
        """Build from a map: independent vertex -> its clique neighbors."""
        edges = [(v, w) for v, members in neighborhoods.items() for w in members]
        return cls(clique, neighborhoods.keys(), edges)

    def with_masks(self, masks: Sequence[int]) -> "SplitGraph":
        """The graph on this partition where independent vertex j has clique
        neighborhood ``masks[j]``, a bitmask over clique indices.

        Labels and the label index are shared with this graph, which has
        already validated them; only the masks are checked.
        """
        k = self.k_size
        i = len(self.independent)
        if len(masks) != i:
            raise GraphError(f"expected {i} neighborhood masks, got {len(masks)}")
        k_mask = (1 << k) - 1
        adj = [m & k_mask for m in self.adj_masks[:k]]
        for j, mask in enumerate(masks):
            if mask >> k:
                raise GraphError(f"mask {mask!r} of {self.independent[j]!r} lies outside K")
            bit = 1 << (k + j)
            for b in bits(mask):
                adj[b] |= bit
        adj.extend(masks)
        g = object.__new__(SplitGraph)
        init = object.__setattr__  # skips the immutability guard's lookups
        init(g, "clique", self.clique)
        init(g, "independent", self.independent)
        init(g, "labels", self.labels)
        init(g, "adj_masks", tuple(adj))
        init(g, "k_size", k)
        init(g, "_index", self._index)
        return g

    # -- queries ---------------------------------------------------------------

    def __setattr__(self, name, value):
        if hasattr(self, "_index") and name != "_index":
            raise AttributeError("SplitGraph is immutable")
        object.__setattr__(self, name, value)

    def index_of(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise GraphError(f"unknown vertex {label!r}") from None

    def has_vertex(self, label: str) -> bool:
        return label in self._index

    def has_edge(self, a: str, b: str) -> bool:
        return bool(self.adj_masks[self.index_of(a)] >> self.index_of(b) & 1)

    def degree(self, v: str) -> int:
        return self.adj_masks[self.index_of(v)].bit_count()

    def neighborhood(self, v: str) -> frozenset[str]:
        """Open neighborhood; for an independent-set vertex it lies inside K."""
        return frozenset(self.labels[b] for b in bits(self.adj_masks[self.index_of(v)]))

    def independent_edges(self) -> list[tuple[str, str]]:
        """All I-K edges as (independent label, clique label), in index order."""
        out = []
        for pos in range(self.k_size, len(self.labels)):
            v = self.labels[pos]
            for b in bits(self.adj_masks[pos]):
                out.append((v, self.labels[b]))
        return out

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj_masks) // 2

    def degrees(self) -> tuple[int, ...]:
        """Degrees in label order (clique first, then independent set)."""
        return tuple(m.bit_count() for m in self.adj_masks)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SplitGraph):
            return NotImplemented
        return (
            self.clique == other.clique
            and self.independent == other.independent
            and self.adj_masks == other.adj_masks
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"SplitGraph(|K|={self.k_size}, |I|={len(self.independent)}, "
            f"edges={self.edge_count()})"
        )


# -- text format ----------------------------------------------------------------


def parse_split_text(text: str) -> SplitGraph:
    """Parse the split-graph text format; raises ParseError with line numbers."""
    clique: tuple[str, ...] | None = None
    independent: tuple[str, ...] | None = None
    header_line = 1
    edges: list[tuple[str, str]] = []
    edge_lines: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if clique is None:
            if not line.startswith("K:"):
                raise ParseError(lineno, f"expected 'K:' header, got {raw!r}")
            clique = tuple(line[2:].split())
            header_line = lineno
            continue
        if independent is None:
            if not line.startswith("I:"):
                raise ParseError(lineno, f"expected 'I:' header, got {raw!r}")
            independent = tuple(line[2:].split())
            header_line = lineno
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(lineno, f"expected an edge line 'u v', got {raw!r}")
        edges.append((parts[0], parts[1]))
        edge_lines.append(lineno)
    if clique is None:
        raise ParseError(1, "missing 'K:' header")
    if independent is None:
        raise ParseError(header_line, "missing 'I:' header")
    try:
        return SplitGraph(clique, independent, edges)
    except GraphError as exc:
        # Re-attribute the complaint to its source line: edge-level messages
        # quote the offending labels, everything else stems from the headers.
        # A line naming both quoted labels wins over one naming just one.
        msg = str(exc)
        if msg.startswith(("edge", "loop")):
            best = None
            for (a, b), lineno in zip(edges, edge_lines):
                if repr(a) in msg and repr(b) in msg:
                    best = lineno
                    break
                if best is None and (repr(a) in msg or repr(b) in msg):
                    best = lineno
            if best is not None:
                raise ParseError(best, msg) from None
        raise ParseError(header_line, msg) from None


def format_split_text(S: SplitGraph) -> str:
    """Serialize to the text format (K-K edges left implicit)."""
    lines = [
        "K: " + " ".join(S.clique) if S.clique else "K:",
        "I: " + " ".join(S.independent) if S.independent else "I:",
    ]
    lines.extend(f"{v} {w}" for v, w in S.independent_edges())
    return "\n".join(lines) + "\n"


def load_split_file(path: str) -> SplitGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_split_text(fh.read())


# -- recognition ------------------------------------------------------------------


def recognize_split(
    edges: Iterable[tuple[str, str]], vertices: Iterable[str] = ()
) -> SplitGraph | None:
    """Find a split partition of an arbitrary simple graph, or None.

    Deterministic: among all valid partitions the returned one maximizes
    |K|.  The base partition comes from the degree-sequence splittance
    test (sort degrees non-increasing, m = max{i : d_i >= i-1}; the graph
    is split iff sum of the top m degrees equals m(m-1) + sum of the
    rest, in which case the top m vertices form a clique).  If some
    leftover vertex is adjacent to all of that clique, the
    lexicographically smallest such swing vertex is moved into K; at most
    one move is ever possible.
    """
    adj: dict[str, set[str]] = {}
    for v in vertices:
        adj.setdefault(_check_label(v), set())
    for a, b in edges:
        _check_label(a)
        _check_label(b)
        if a == b:
            raise GraphError(f"loop on vertex {a!r}")
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    order = sorted(adj, key=lambda v: (-len(adj[v]), v))
    n = len(order)
    if n == 0:
        return SplitGraph((), ())
    deg = [len(adj[v]) for v in order]
    m = 0
    for i in range(1, n + 1):
        if deg[i - 1] >= i - 1:
            m = i
    if sum(deg[:m]) != m * (m - 1) + sum(deg[m:]):
        return None
    k_set = set(order[:m])
    rest = order[m:]
    swing = None
    for v in sorted(rest):
        if k_set <= adj[v]:
            swing = v
            break
    if swing is not None:
        k_set.add(swing)
    clique = sorted(k_set)
    indep = sorted(v for v in adj if v not in k_set)
    all_edges = [(a, b) for a in adj for b in adj[a] if a < b]
    return SplitGraph(clique, indep, all_edges)
