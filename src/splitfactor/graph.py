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

``parse_edge_list`` reads the other text format, a plain graph's edge list:
one ``u v`` per line, with ``V:`` lines declaring vertices.
"""

from __future__ import annotations

import contextlib
from collections.abc import Iterable, Iterator, Mapping, Sequence
from functools import lru_cache


class GraphError(ValueError):
    """Invalid graph data or a violated operation precondition."""


class ParseError(GraphError):
    """Malformed graph text; the message carries the 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def _subset_table(items: Sequence) -> tuple[tuple, ...]:
    """For every value v below 2**len(items), the items at v's set bits, in
    order: value v with top bit t set lists the items of v - 2**t, then item t."""
    rows: list[tuple] = [()]
    for item in items:
        rows += [row + (item,) for row in rows]
    return tuple(rows)


# one table per byte position, so the cache grows with the widest mask seen
@lru_cache(maxsize=None)
def _byte_bits(position: int) -> tuple[tuple[int, ...], ...]:
    """For every byte value, the indices of its set bits when it is byte
    ``position`` of a mask, ascending."""
    return _subset_table(range(8 * position, 8 * position + 8))


_BYTE_BITS = _byte_bits(0)


def bits(mask: int) -> tuple[int, ...]:
    """Indices of the set bits of ``mask``, a non-negative int, ascending.

    A mask below 256 reads them from one table; a wider one reads each
    non-zero byte from the table of its position.  Once the mask is 2**16
    or more, a zero byte is a run of them: the read jumps straight to the
    byte that holds the lowest set bit, so a wide sparse mask costs its
    non-zero bytes, not its width.
    """
    if mask < 256:
        return _BYTE_BITS[mask]
    out: tuple[int, ...] = ()
    position = 0
    while mask:
        if byte := mask & 255:
            out += _byte_bits(position)[byte]
        elif mask > 0xFFFF:
            skip = ((mask & -mask).bit_length() - 1) >> 3
            mask >>= skip << 3
            position += skip
            continue
        mask >>= 8
        position += 1
    return out


def _check_label(label: object) -> str:
    if not isinstance(label, str) or not label:
        raise GraphError(f"vertex label must be a non-empty string, got {label!r}")
    if any(ch.isspace() for ch in label):
        raise GraphError(f"vertex label may not contain whitespace: {label!r}")
    if label.startswith("#"):
        raise GraphError(f"vertex label may not start with '#': {label!r}")
    return label


def _label_index(labels: Sequence[object]) -> dict[str, int]:
    """Each label's position in ``labels``.  Every label is checked to be
    well formed before any is checked to be unique; GraphError names the
    first fault."""
    for label in labels:
        _check_label(label)
    index: dict[str, int] = {}
    for pos, label in enumerate(labels):
        if index.setdefault(label, pos) != pos:
            raise GraphError(f"duplicate vertex label: {label!r}")
    return index


def _lookup(index: Mapping[str, int], label: object, owner: str = "") -> int:
    """``label``'s position in the label index ``index``.  Anything that is
    not one of its labels, a non-string or unhashable value included, raises
    GraphError "unknown vertex", prefixed "<owner> references " when the
    label is an end of an edge or a multiplicity key."""
    try:
        return index[label]
    except (KeyError, TypeError):
        prefix = f"{owner} references " if owner else ""
        raise GraphError(f"{prefix}unknown vertex {label!r}") from None


def _pair(item: object) -> tuple[object, object]:
    """The two ends of an edge or of a multiplicity key.  A string is not a
    pair, even of two characters, and neither is anything that does not
    unpack into exactly two items."""
    if not isinstance(item, str):
        try:
            a, b = item
        except (TypeError, ValueError):
            pass
        else:
            return a, b
    raise GraphError(f"expected a pair of vertex labels, got {item!r}")


def _mapping(name: str, value: object) -> Mapping:
    """``value``, the argument ``name``, when it is a mapping."""
    if not isinstance(value, Mapping):
        raise GraphError(f"{name} must be a mapping, got {value!r}")
    return value


def _members(value: object, expected: str) -> Iterator[object]:
    """An iterator over ``value``, a collection of labels, edges or paths.
    A string is not such a collection, even of one-character labels, and
    neither is anything that cannot be iterated: either raises GraphError
    "<expected>, got <value>"."""
    if not isinstance(value, str):
        try:
            return iter(value)
        except TypeError:
            pass
    raise GraphError(f"{expected}, got {value!r}")


def _plain_edge(a: str, b: str) -> tuple[str, str]:
    """Edge a-b of a simple graph: both labels well formed, and not a loop."""
    _check_label(a)
    _check_label(b)
    if a == b:
        raise GraphError(f"loop on vertex {a!r}")
    return a, b


def _edge_ends(index: Mapping[str, int], k: int, a: str, b: str) -> tuple[int, int]:
    """The indices of edge a-b's ends in a split graph with label index
    ``index`` whose first ``k`` indices form the clique.  Raises GraphError
    for an unknown vertex, a loop or an edge inside the independent set."""
    ends = _lookup(index, a, "edge"), _lookup(index, b, "edge")
    _plain_edge(a, b)  # rejects a loop: labels in the index are well formed
    if min(ends) >= k:
        raise GraphError(f"edge {a!r}-{b!r} joins two independent-set vertices")
    return ends


class _Value:
    """An immutable value whose fields are its slots.  ``_new`` writes them
    once, in ``__slots__`` order: a subclass's validating ``__new__`` ends
    in it, and pickle, copy and deepcopy rebuild a value through it.  Every
    other write or delete raises AttributeError "<type> is immutable".
    Subclasses hold a label index ``_index``."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # each slot's member descriptor writes it past the guard; its __set__
        # is looked up once per class, not once per field of every value
        cls._slot_writers = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    @classmethod
    def _new(cls, *fields: object):
        """A value of this type with ``fields``; nothing is checked."""
        value = object.__new__(cls)
        for write, field in zip(cls._slot_writers, fields):
            write(value, field)
        return value

    def __reduce__(self):
        return type(self)._new, tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __hash__ = None  # type: ignore[assignment]

    def index_of(self, label: str) -> int:
        return _lookup(self._index, label)


class SplitGraph(_Value):
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

    def __new__(
        cls,
        clique: Iterable[str],
        independent: Iterable[str],
        edges: Iterable[tuple[str, str]] = (),
    ) -> "SplitGraph":
        clique_t = tuple(_members(clique, "expected a collection of vertex labels"))
        independent_t = tuple(_members(independent, "expected a collection of vertex labels"))
        labels = clique_t + independent_t
        index = _label_index(labels)
        k = len(clique_t)
        adj = [0] * len(labels)
        # K is a clique by definition; materialize those edges up front.
        k_mask = (1 << k) - 1
        for a in range(k):
            adj[a] = k_mask ^ (1 << a)
        for edge in _members(edges, "expected a collection of edges"):
            a, b = _edge_ends(index, k, *_pair(edge))
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        return cls._new(clique_t, independent_t, labels, tuple(adj), k, index)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_neighborhoods(
        cls, clique: Iterable[str], neighborhoods: Mapping[str, Iterable[str]]
    ) -> "SplitGraph":
        """Build from a map: independent vertex -> its clique neighbors.
        Anything but a mapping raises GraphError, and so does a
        neighborhood that is a string, even of one-character labels."""
        edges = [
            (v, w)
            for v, members in _mapping("neighborhoods", neighborhoods).items()
            for w in _members(members, f"neighborhood of {v!r} must be a collection of vertex labels")
        ]
        return cls(clique, neighborhoods.keys(), edges)

    def with_masks(self, masks: Sequence[int]) -> "SplitGraph":
        """The graph on this partition where independent vertex j has clique
        neighborhood ``masks[j]``, a bitmask over clique indices.

        Labels and the label index are shared with this graph, which has
        already validated the labels; only the masks are checked: each must
        be an ``int`` (not a ``bool``) with no bit at or above |K|.  The
        clique rows are rebuilt from the masks.
        """
        k = self.k_size
        i = len(self.independent)
        try:
            count = len(masks)
        except TypeError:
            raise GraphError(f"expected a sequence of neighborhood masks, got {masks!r}") from None
        if count != i:
            raise GraphError(f"expected {i} neighborhood masks, got {count}")
        k_mask = (1 << k) - 1
        adj = [m & k_mask for m in self.adj_masks[:k]]
        for j, mask in enumerate(masks):
            if type(mask) is not int:  # exact type: bool is an int subclass
                raise GraphError(f"mask {mask!r} of {self.independent[j]!r} must be an int")
            if mask >> k:
                raise GraphError(f"mask {mask!r} of {self.independent[j]!r} lies outside K")
            bit = 1 << (k + j)
            for b in bits(mask):
                adj[b] |= bit
        adj.extend(masks)
        return self._derive(tuple(adj))

    def _derive(self, adj_masks: tuple[int, ...]) -> "SplitGraph":
        """The graph on this partition with adjacency rows ``adj_masks``,
        sharing its labels and label index.  Nothing is checked: the rows
        must already form a split graph over (K, I)."""
        return SplitGraph._new(
            self.clique, self.independent, self.labels, adj_masks, self.k_size, self._index
        )

    # -- queries ---------------------------------------------------------------

    def has_vertex(self, label: str) -> bool:
        return isinstance(label, str) and label in self._index

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

    def __repr__(self) -> str:
        return (
            f"SplitGraph(|K|={self.k_size}, |I|={len(self.independent)}, "
            f"edges={self.edge_count()})"
        )


# -- text formats ---------------------------------------------------------------


def _content_lines(text: str) -> Iterator[tuple[int, str, str]]:
    """The 1-based number, stripped text and raw text of every line that is
    neither blank nor a '#' comment.

    Lines end at '\n' alone, or at '\r\n', whose '\r' ``raw`` drops;
    ``str.splitlines`` would also break at a form feed, '\x1c'-'\x1e',
    '\x85' or '\u2028', which here are whitespace inside a line."""
    for lineno, raw in enumerate(text.split("\n"), start=1):
        raw = raw.removesuffix("\r")
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line, raw


@contextlib.contextmanager
def _blame(lineno: int) -> Iterator[None]:
    """Re-raise a GraphError from the block as a ParseError on ``lineno``."""
    try:
        yield
    except GraphError as exc:
        raise ParseError(lineno, str(exc)) from None


def parse_split_text(text: str) -> SplitGraph:
    """Parse the split-graph text format; raises ParseError with line numbers.

    Every line's shape is checked before any label.  Then a bad clique label
    is blamed on the ``K:`` line, any other label fault on the ``I:`` line,
    and an edge fault on the edge's own line.
    """
    clique: list[str] | None = None
    independent: list[str] | None = None
    clique_line = independent_line = 1
    edges: list[tuple[int, str, str]] = []
    for lineno, line, raw in _content_lines(text):
        if clique is None:
            if not line.startswith("K:"):
                raise ParseError(lineno, f"expected 'K:' header, got {raw!r}")
            clique, clique_line = line[2:].split(), lineno
        elif independent is None:
            if not line.startswith("I:"):
                raise ParseError(lineno, f"expected 'I:' header, got {raw!r}")
            independent, independent_line = line[2:].split(), lineno
        else:
            parts = line.split()
            if len(parts) != 2:
                raise ParseError(lineno, f"expected an edge line 'u v', got {raw!r}")
            edges.append((lineno, *parts))
    if clique is None:
        raise ParseError(1, "missing 'K:' header")
    if independent is None:
        raise ParseError(clique_line, "missing 'I:' header")
    with _blame(clique_line):
        SplitGraph(clique, ())
    with _blame(independent_line):
        S = SplitGraph(clique, independent)
    for lineno, a, b in edges:
        with _blame(lineno):
            _edge_ends(S._index, S.k_size, a, b)
    return SplitGraph(clique, independent, [(a, b) for _, a, b in edges])


def parse_edge_list(text: str) -> tuple[list[str], list[tuple[str, str]]]:
    """The declared vertices and the edges of an edge list: one ``u v`` edge
    per line, and ``V:`` lines that declare vertices, isolated ones included.
    A malformed line, a bad label or a loop raises ParseError naming its line."""
    vertices: list[str] = []
    edges: list[tuple[str, str]] = []
    for lineno, line, raw in _content_lines(text):
        if line.startswith("V:"):
            with _blame(lineno):
                vertices.extend(map(_check_label, line[2:].split()))
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(lineno, f"expected an edge line 'u v', got {raw!r}")
        with _blame(lineno):
            edges.append(_plain_edge(*parts))
    return vertices, edges


def format_split_text(S: SplitGraph) -> str:
    """Serialize to the text format (K-K edges left implicit)."""
    lines = [
        "K: " + " ".join(S.clique) if S.clique else "K:",
        "I: " + " ".join(S.independent) if S.independent else "I:",
    ]
    lines.extend(f"{v} {w}" for v, w in S.independent_edges())
    return "\n".join(lines) + "\n"


# -- recognition ------------------------------------------------------------------


def recognize_split(
    edges: Iterable[tuple[str, str]], vertices: Iterable[str] = ()
) -> SplitGraph | None:
    """Find a split partition of an arbitrary simple graph, or None.

    Deterministic: among all valid partitions the returned one maximizes
    |K|.  The base partition comes from the degree-sequence splittance
    test (sort degrees non-increasing, m = max{i : d_i >= i-1}; the graph
    is split iff sum of the top m degrees equals m(m-1) + sum of the
    rest, in which case the top m vertices form a clique).  That clique
    is maximum: m is the last i with d_i >= i-1, so d_{m+1} <= m-1, and
    every vertex outside the top m has degree below m = |K| and misses
    some vertex of K (Hammer and Simeone, "The splittance of a graph",
    Combinatorica 1, 1981).
    """
    adj: dict[str, set[str]] = {}
    for v in _members(vertices, "expected a collection of vertex labels"):
        adj.setdefault(_check_label(v), set())
    for edge in _members(edges, "expected a collection of edges"):
        a, b = _plain_edge(*_pair(edge))
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
    all_edges = [(a, b) for a in adj for b in adj[a] if a < b]
    return SplitGraph(sorted(order[:m]), sorted(order[m:]), all_edges)
