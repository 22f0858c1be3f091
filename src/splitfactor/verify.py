"""Structural laws of factor graphs, as machine-checkable named predicates.

Every guarantee the library makes about a factor graph ``phi`` of a split
graph ``S`` is a named check here.  A check never raises on a violated
law; it returns a failed :class:`CheckResult` whose witness pinpoints the
offending pair, path, or cycle so the single check can be re-run against
it.  Exceptions are reserved for malformed inputs (precondition errors).

The laws, by check name:

- ``builders-agree``: formula and move-counting builders give the same map.
- ``size-equals-switch-degree``: total multiplicity = number of 2-switches.
- ``nesting-iff-zero``: multiplicity 0 with d_v <= d_u iff N_v is contained
  in N_u (every ordered pair).
- ``equality-iff-zero-equal-degrees``: multiplicity 0 with equal degrees iff
  equal neighborhoods.
- ``twins-equal-phi-rows``: equal neighborhoods force equal factor-graph
  neighbor sets.
- ``simple-edge-balanced``: multiplicity 1 forces equal degrees and single
  private neighbors on both sides.
- ``path-max-at-ends``: on an induced path the degree maximum is attained
  within the first two or last two positions.
- ``path-inclusion-chain``: head-maximal orientation: d_i >= d_j and
  N_i contains N_j whenever j >= i+2.
- ``path-union-collapse``: head-maximal orientation: N_i contains the union
  of all N_j with j >= i+2, and the whole union is N_1 with N_2.
- ``path-parity-monotone``: head-maximal orientation: degrees are
  non-increasing along each parity class.
- ``path-min-at-tail``: head-maximal orientation: the degree minimum is
  attained within the last two positions.
- ``p5-max-not-middle``: no induced 5-vertex path has its degree maximum at
  the middle vertex.
- ``first-edge-divisible-by-union-excess``: head-maximal orientation: the
  size of the union of path neighborhoods minus the head degree divides the
  first edge multiplicity.
- ``first-edge-divisible-by-clique-excess``: when phi IS the path and K is
  the union of all I-neighborhoods: |K| minus the head degree divides the
  first edge multiplicity.
- ``union-sqrt-bound``: the union excess squared is at most the first edge
  multiplicity.
- ``cycle-length-bound``: every induced cycle has length 3 or 4.
- ``simple-edges-terminal``: on an induced path, multiplicity-1 edges occur
  only in first or last position.
- ``p4-no-simple-middle``: no induced 4-path carries a multiplicity-1 middle
  edge (reported per degree pattern: peak, valley, ascent).
- ``p3-pendant-difference``: induced 3-path, d_1 <= d_2, last edge simple:
  N_1 - N_2 is a single vertex and equals N_3 - N_2.
- ``p3-tail-decomposition``: same hypothesis: N_3 is that vertex plus
  N_2 with N_3 shared part, and is a proper subset of N_1 union N_2.
- ``p3-first-multiplicity``: same hypothesis: the first edge multiplicity is
  exactly d_2 - d_1 + 1.
- ``diameter-bound``: a connected phi has diameter at most
  ceil((size + 1) / 2); disconnected instances pass with a note.

All 22 laws run on one check context, which picks the formula factor
graph when none is given, checks it against S's independent set once and
keeps each law's first witness and note.  ``verify_all`` runs every law on
one context, and each public check builds one of its own.  The two
whole-graph laws decide by certificate where one exists (an umbrella-free
degree order; a connected phi with |I| - 1 within the bound) and search
for a witness only otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial, reduce
from operator import or_
from typing import Iterable, Sequence

from .corpus import CorpusSpec, corpus_size, instance, instance_id
from .factor import FactorGraph, build_by_enumeration, build_by_formula
from .graph import GraphError, SplitGraph, bits

BUILDERS_AGREE = "builders-agree"
SIZE_DEGREE = "size-equals-switch-degree"
NESTING_IFF = "nesting-iff-zero"
EQUALITY_IFF = "equality-iff-zero-equal-degrees"
TWIN_ROWS = "twins-equal-phi-rows"
SIMPLE_BALANCED = "simple-edge-balanced"
PATH_MAX = "path-max-at-ends"
PATH_INCLUSION = "path-inclusion-chain"
PATH_UNION = "path-union-collapse"
PATH_PARITY = "path-parity-monotone"
PATH_MIN = "path-min-at-tail"
P5_MIDDLE = "p5-max-not-middle"
DIV_UNION = "first-edge-divisible-by-union-excess"
DIV_CLIQUE = "first-edge-divisible-by-clique-excess"
SQRT_BOUND = "union-sqrt-bound"
CYCLE_BOUND = "cycle-length-bound"
SIMPLE_TERMINAL = "simple-edges-terminal"
P4_MIDDLE = "p4-no-simple-middle"
P3_PENDANT = "p3-pendant-difference"
P3_DECOMP = "p3-tail-decomposition"
P3_MULT = "p3-first-multiplicity"
DIAMETER_BOUND = "diameter-bound"

CHECK_NAMES: tuple[str, ...] = (
    BUILDERS_AGREE,
    SIZE_DEGREE,
    NESTING_IFF,
    EQUALITY_IFF,
    TWIN_ROWS,
    SIMPLE_BALANCED,
    PATH_MAX,
    PATH_INCLUSION,
    PATH_UNION,
    PATH_PARITY,
    PATH_MIN,
    P5_MIDDLE,
    DIV_UNION,
    DIV_CLIQUE,
    SQRT_BOUND,
    CYCLE_BOUND,
    SIMPLE_TERMINAL,
    P4_MIDDLE,
    P3_PENDANT,
    P3_DECOMP,
    P3_MULT,
    DIAMETER_BOUND,
)

# the laws checked on each induced path, in CHECK_NAMES order
_PATH_LAWS = tuple(
    name for name in CHECK_NAMES[CHECK_NAMES.index(PATH_MAX):-1] if name != CYCLE_BOUND
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    witness: str | None = None
    note: str | None = None

    def line(self) -> str:
        tail = f" {self.witness}" if (not self.passed and self.witness) else ""
        return f"CHECK {self.name} {'PASS' if self.passed else 'FAIL'}{tail}"


@dataclass
class VerificationReport:
    instance: str
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def lines(self) -> list[str]:
        return [c.line() for c in self.checks]


# -- induced path / cycle machinery ------------------------------------------------


def _is_induced(phi: FactorGraph, vertices: Sequence[str], closed: bool) -> bool:
    """Whether the vertices are distinct, each is adjacent to the next (and
    the last to the first when closed), and phi has no other edge among them."""
    seq = [phi.index_of(v) for v in vertices]
    n = len(seq)
    if n < (3 if closed else 2) or len(set(seq)) != n:
        return False
    nbr = phi.neighbor_masks()
    steps = list(zip(seq, seq[1:] + seq[:1] if closed else seq[1:]))
    on = sum(1 << v for v in seq)
    # each step is a distinct pair, so an edge count of one per step leaves no chord
    edges = sum((nbr[v] & on).bit_count() for v in seq) // 2
    return edges == len(steps) and all(nbr[a] >> b & 1 for a, b in steps)


def is_induced_path(phi: FactorGraph, vertices: Sequence[str]) -> bool:
    return _is_induced(phi, vertices, False)


def is_induced_cycle(phi: FactorGraph, vertices: Sequence[str]) -> bool:
    return _is_induced(phi, vertices, True)


def _induced_path_indices(nbr: tuple[int, ...], max_len: int) -> list[tuple[int, ...]]:
    """Induced paths on 2..max_len vertices, each kept once, from its smaller end.

    ``blocked`` holds the path's vertices and the neighbours of every vertex
    before the last, so a path grows only by neighbours of its last vertex
    outside it.  A path is kept from start ``s`` only if it ends above s, so
    no search starts at the last vertex, and a path's children are not
    pushed once they would block every vertex above s.
    """
    out: list[tuple[int, ...]] = []
    n = len(nbr)
    for s in range(n - 1):
        above = (1 << n) - (1 << (s + 1))
        stack: list[tuple[tuple[int, ...], int]] = [((s,), 1 << s)]
        while stack:
            path, blocked = stack.pop()
            last = path[-1]
            child = blocked | nbr[last]
            grow = len(path) + 1 < max_len and above & ~child
            for w in bits(nbr[last] & ~blocked):
                grown = path + (w,)
                if s < w:
                    out.append(grown)
                if grow:
                    stack.append((grown, child))
    return out


def _induced_cycle_indices(nbr: tuple[int, ...]) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []
    n = len(nbr)
    for s in range(n):
        above = ~((1 << (s + 1)) - 1)
        stack: list[tuple[tuple[int, ...], int, int]] = [
            ((s, w), (1 << s) | (1 << w), 0) for w in bits(nbr[s] & above)
        ]
        while stack:
            path, used, forbid = stack.pop()
            last = path[-1]
            for w in bits(nbr[last] & above & ~used & ~forbid):
                if nbr[w] >> s & 1:
                    # closing edge; a longer walk through w would chord back to s
                    if len(path) >= 2 and path[1] < w:
                        out.append(path + (w,))
                    continue
                stack.append((path + (w,), used | (1 << w), forbid | nbr[last]))
    return out


def _umbrella_free(nbr: Sequence[int], order: Sequence[int]) -> bool:
    """Whether ``order``, a permutation of the vertex indices of the simple
    graph with adjacency masks ``nbr``, has no umbrella: u before v before w
    with uw an edge and uv, vw non-edges.

    An umbrella-free order transitively orients the complement, so the graph
    is a cocomparability graph and has no induced cycle on 5 or more
    vertices (Golumbic, Monma and Trotter, "Tolerance graphs", 1984).
    """
    later = (1 << len(nbr)) - 1
    earlier = 0
    for v in order:
        later ^= 1 << v
        far = later & ~nbr[v]
        if far:
            for u in bits(earlier & ~nbr[v]):
                if nbr[u] & far:
                    return False
        earlier |= 1 << v
    return True


def _path_cap(n: int, max_len: int | None) -> int:
    if max_len is None:
        return n
    if type(max_len) is not int or max_len < 2:  # exact type: bool is an int subclass
        raise GraphError(f"max_len must be an int of at least 2, got {max_len!r}")
    return min(max_len, n)


def enumerate_induced_paths(phi: FactorGraph, max_len: int | None = None) -> list[tuple[str, ...]]:
    """All induced paths on 2..max_len vertices of phi's simple view.

    Consecutive multiplicities are positive, all other pairs zero.  Each
    path appears once, oriented so that the endpoint with the smaller
    vertex index comes first.
    """
    verts = phi.vertices
    return [
        tuple(verts[i] for i in seq)
        for seq in _induced_path_indices(phi.neighbor_masks(), _path_cap(len(verts), max_len))
    ]


def enumerate_induced_cycles(phi: FactorGraph) -> list[tuple[str, ...]]:
    """All induced cycles of phi's simple view, one rotation and direction each.

    Each cycle starts at its minimum-index vertex, and its second vertex
    has a smaller index than its last.
    """
    verts = phi.vertices
    return [tuple(verts[i] for i in seq) for seq in _induced_cycle_indices(phi.neighbor_masks())]


# -- check context ------------------------------------------------------------------


class _Context:
    """Index-level view of one (S, phi) instance, built once per verification.

    ``phi`` defaults to the formula factor graph of S, and must live on S's
    independent set.  ``mult`` is phi's flat multiplicity table (entry
    ``a * n + b``).  ``failed`` maps a law name to the witness of its first
    failure and ``notes`` a law name to its note; a law that never failed is
    absent from ``failed``, so witnesses are formatted only on failure.
    """

    __slots__ = ("phi", "labels", "n", "deg", "nmask", "mult", "nbr", "k_size", "clique_law",
                 "failed", "notes")

    def __init__(self, S: SplitGraph, phi: FactorGraph | None = None):
        phi = build_by_formula(S) if phi is None else phi
        if set(phi.vertices) != set(S.independent):
            raise GraphError("factor graph vertices do not match the independent set")
        self.phi = phi
        self.labels = phi.vertices
        self.n = len(self.labels)
        self.nmask = [S.adj_masks[S.index_of(v)] for v in self.labels]
        self.deg = [m.bit_count() for m in self.nmask]
        self.mult = phi.multiplicity_table()
        self.nbr = phi.neighbor_masks()
        self.k_size = S.k_size
        union = reduce(or_, self.nmask, 0)
        # the clique-excess law speaks of a phi that is a path over all of I,
        # with K the union of all I-neighborhoods
        self.clique_law = union == (1 << S.k_size) - 1 and phi.simple_edge_count() == self.n - 1
        self.failed: dict[str, str] = {}
        self.notes: dict[str, str] = {}

    def fail(self, name: str, seq: Sequence[int], detail: str) -> None:
        """Record a path law's failure unless an earlier one is kept."""
        if name not in self.failed:
            self.failed[name] = f"path {' '.join(self.labels[i] for i in seq)}; {detail}"

    def results(self, names: Iterable[str]) -> list[CheckResult]:
        failed, notes = self.failed, self.notes
        return [CheckResult(name, name not in failed, failed.get(name), notes.get(name))
                for name in names]


# -- law predicates (index level) ---------------------------------------------------


def _check_pairs(ctx: _Context) -> None:
    """Pair laws over every ordered pair; the number of equal-neighborhood
    pairs, when there are any, is noted on nesting-iff-zero."""
    labels, deg, nmask, nbr, failed = ctx.labels, ctx.deg, ctx.nmask, ctx.nbr, ctx.failed
    n, mult = ctx.n, ctx.mult
    equal_pairs = 0
    for a in range(n):
        da, Na = deg[a], nmask[a]
        row = a * n
        for b in range(n):
            if a == b:
                continue
            m = mult[row + b]
            Nb = nmask[b]
            if (m == 0 and deg[b] <= da) != ((Nb & ~Na) == 0):
                failed.setdefault(NESTING_IFF, f"pair {labels[a]} {labels[b]}")
            if a < b:
                equal = Na == Nb
                if (m == 0 and da == deg[b]) != equal:
                    failed.setdefault(EQUALITY_IFF, f"pair {labels[a]} {labels[b]}")
                if equal:
                    equal_pairs += 1
                    if nbr[a] != nbr[b]:
                        failed.setdefault(TWIN_ROWS, f"pair {labels[a]} {labels[b]}")
                if m == 1 and not (
                    da == deg[b]
                    and (Na & ~Nb).bit_count() == 1
                    and (Nb & ~Na).bit_count() == 1
                ):
                    failed.setdefault(SIMPLE_BALANCED, f"pair {labels[a]} {labels[b]}")
    if equal_pairs:
        ctx.notes[NESTING_IFF] = f"neighborhood-equal-pairs={equal_pairs}"


def _check_oriented(ctx: _Context, seq: tuple[int, ...]) -> None:
    """Item and divisibility laws for one orientation whose head degree is the path max.

    One scan from tail to head keeps the union of the neighborhoods from
    position i + 2 on; the last failing position it meets is the first
    along the path.  Degrees are neighborhood sizes, so N_j inside N_i
    gives d_j <= d_i: the inclusion chain's degree clause needs no test,
    and the chain and the union collapse first fail at the same position.
    A position below both of the last two breaks the minimum law; the
    head, being the maximum, never is.
    """
    deg, nmask = ctx.deg, ctx.nmask
    n = len(seq)
    low = min(deg[seq[-1]], deg[seq[-2]])
    later = 0
    spill = parity = -1
    dip = False
    for i in range(n - 3, -1, -1):
        v, w = seq[i], seq[i + 2]
        dv = deg[v]
        later |= nmask[w]
        if later & ~nmask[v]:
            spill = i
        if dv < deg[w]:
            parity = i
        if dv < low:
            dip = True
    if spill >= 0:
        Nv = nmask[seq[spill]]
        j = next(j for j in range(spill + 2, n) if nmask[seq[j]] & ~Nv)
        ctx.fail(PATH_INCLUSION, seq, f"positions {spill + 1} vs {j + 1}")
        ctx.fail(PATH_UNION, seq, f"position {spill + 1} misses later neighbors")
    if parity >= 0:
        ctx.fail(PATH_PARITY, seq, f"positions {parity + 1} vs {parity + 3}")
    if dip:
        ctx.fail(PATH_MIN, seq, "minimum not within last two positions")
    # no union-clause test: the later union inside N_1 makes the whole union N_1 | N_2
    _check_first_edge(ctx, seq, later | nmask[seq[0]] | nmask[seq[1]])


def _check_first_edge(ctx: _Context, seq: tuple[int, ...], union: int) -> None:
    """Divisibility laws on the first edge of a head-maximal orientation whose
    path neighborhoods have union ``union``."""
    excess = union.bit_count() - ctx.deg[seq[0]]
    first = ctx.mult[seq[0] * ctx.n + seq[1]]
    if excess == 0:
        # impossible while first > 0; reaching this means the instance is inconsistent
        ctx.fail(DIV_UNION, seq, "degenerate divisor (internal inconsistency)")
        ctx.fail(SQRT_BOUND, seq, "degenerate divisor (internal inconsistency)")
    else:
        if first % excess:
            ctx.fail(DIV_UNION, seq,
                     f"union excess {excess} does not divide first multiplicity {first}")
        if excess * excess > first:
            ctx.fail(SQRT_BOUND, seq,
                     f"union excess {excess} exceeds sqrt of first multiplicity {first}")
    if ctx.clique_law and len(seq) == ctx.n:
        clique_excess = ctx.k_size - ctx.deg[seq[0]]
        if clique_excess == 0:
            ctx.fail(DIV_CLIQUE, seq, "degenerate divisor (internal inconsistency)")
        elif first % clique_excess:
            ctx.fail(DIV_CLIQUE, seq,
                     f"clique excess {clique_excess} does not divide first multiplicity {first}")


def _check_path(ctx: _Context, p: tuple[int, ...]) -> None:
    """Every per-path law on one induced path, first failures kept in ``ctx.failed``.

    The max-position, P5 and simple-edge laws hold in either direction; the
    item and divisibility laws are asserted for every orientation whose
    head degree attains the path maximum (zero, one, or two of them).  On a
    single edge only the first-edge divisibility laws have content, and with
    equal end degrees both orientations give one verdict, so the edge is
    checked once, head-maximal and named as given when the degrees tie.
    On four or fewer vertices every position lies within the first two or
    the last two, so path-max-at-ends is evaluated from five vertices on.
    On three vertices the only position before the last two is the head of
    a head-maximal orientation, which is the maximum, so path-min-at-tail
    cannot fail there and its scan test never fires.
    """
    deg = ctx.deg
    n = len(p)
    if n == 2:
        a, b = p
        _check_first_edge(ctx, p if deg[a] >= deg[b] else (b, a), ctx.nmask[a] | ctx.nmask[b])
        return
    d = [deg[v] for v in p]
    top = max(d)
    if n > 4 and top not in (d[0], d[1], d[-2], d[-1]):
        ctx.fail(PATH_MAX, p, f"max degree {top} only at interior positions")
    if d[0] == top:
        _check_oriented(ctx, p)
    if d[-1] == top:
        _check_oriented(ctx, p[::-1])
    if n == 5 and d[2] == top:
        ctx.fail(P5_MIDDLE, p, "middle degree equals the maximum")

    mult, stride = ctx.mult, ctx.n
    for t in range(1, n - 2):
        if mult[p[t] * stride + p[t + 1]] == 1:
            ctx.fail(SIMPLE_TERMINAL, p, f"interior edge {t + 1} has multiplicity 1")
            break

    if n == 4 and mult[p[1] * stride + p[2]] == 1:
        for seq in (p, p[::-1]):
            d1, d2, d4 = deg[seq[0]], deg[seq[1]], deg[seq[3]]
            if d1 <= d2 >= d4:
                pattern = "peak"
            elif d1 >= d2 <= d4:
                pattern = "valley"
            elif d1 <= d2 <= d4:
                pattern = "ascending"
            else:
                continue
            ctx.fail(P4_MIDDLE, seq, f"simple middle edge, {pattern} degrees")
            break

    if n == 3:
        for seq in (p, p[::-1]):
            a, b, c = seq
            if deg[a] > deg[b] or mult[b * stride + c] != 1:
                continue
            Na, Nb, Nc = ctx.nmask[a], ctx.nmask[b], ctx.nmask[c]
            priv_a = Na & ~Nb
            if not (priv_a.bit_count() == 1 and priv_a == Nc & ~Nb):
                ctx.fail(P3_PENDANT, seq, "head/tail private neighbors differ")
            union_ab = Na | Nb
            decomposed = Nc == (priv_a | (Nb & Nc))
            proper = (Nc & ~union_ab) == 0 and Nc != union_ab
            if not (decomposed and proper):
                ctx.fail(P3_DECOMP, seq, "tail neighborhood fails the pendant decomposition")
            if mult[a * stride + b] != deg[b] - deg[a] + 1:
                ctx.fail(P3_MULT, seq, "first multiplicity differs from degree gap plus one")


def _check_paths(
    ctx: _Context, paths: Iterable[Sequence[str]] | None, max_len: int | None = None
) -> None:
    """Per-path laws over the caller's paths, each validated as induced, or
    over every induced path of phi on at most ``max_len`` vertices."""
    if paths is None:
        seqs = _induced_path_indices(ctx.nbr, _path_cap(ctx.n, max_len))
    else:
        seqs = []
        for path in paths:
            if not is_induced_path(ctx.phi, path):
                raise GraphError(f"not an induced path: {' '.join(path)}")
            seqs.append(tuple(ctx.phi.index_of(v) for v in path))
    for p in seqs:
        _check_path(ctx, p)


def _check_cycles(ctx: _Context) -> None:
    """Every induced cycle has length 3 or 4.

    Cycles are enumerated only when I, ordered by degree in S (largest
    first, ties by index), has an umbrella.  On phi(S) it never has one:
    multiplicity 0 means nested neighborhoods, so non-edges u-v, v-w down
    the order nest N_w in N_u and make u-w a non-edge too.
    """
    if _umbrella_free(ctx.nbr, sorted(range(ctx.n), key=ctx.deg.__getitem__, reverse=True)):
        return
    cycle = next((seq for seq in _induced_cycle_indices(ctx.nbr) if len(seq) > 4), None)
    if cycle:
        labels = " ".join(ctx.labels[i] for i in cycle)
        ctx.failed[CYCLE_BOUND] = f"cycle {labels}; length {len(cycle)}"


def _check_diameter(ctx: _Context) -> None:
    """A connected phi has diameter <= ceil((size + 1) / 2).

    One search decides connectivity.  All-pairs BFS runs only when |I| - 1,
    which bounds the diameter, exceeds the bound.
    """
    phi, n = ctx.phi, ctx.n
    if n == 0:
        ctx.notes[DIAMETER_BOUND] = "empty factor graph"
    elif phi.reach(0)[0] != (1 << n) - 1:
        ctx.notes[DIAMETER_BOUND] = "not applicable: disconnected"
    else:
        bound = (phi.size() + 2) // 2
        if n - 1 > bound and (value := phi.diameter().value) > bound:
            ctx.failed[DIAMETER_BOUND] = f"diameter {value} exceeds bound {bound}"


# -- public checks -------------------------------------------------------------------


def check_paths(
    S: SplitGraph,
    phi: FactorGraph | None = None,
    paths: Iterable[Sequence[str]] | None = None,
) -> list[CheckResult]:
    """Every per-path law over the given induced paths of phi, or over all of them.

    ``phi`` defaults to the formula factor graph of S.  Results come in
    ``CHECK_NAMES`` order; a caller path that is not induced in phi raises
    :class:`GraphError`.
    """
    ctx = _Context(S, phi)
    _check_paths(ctx, paths)
    return ctx.results(_PATH_LAWS)


def check_cycle_bound(S: SplitGraph, phi: FactorGraph | None = None) -> CheckResult:
    """Every induced cycle of phi, by default the formula factor graph of S,
    has length 3 or 4; decided by an umbrella-free degree order where one
    exists, by cycle enumeration otherwise."""
    ctx = _Context(S, phi)
    _check_cycles(ctx)
    return ctx.results((CYCLE_BOUND,))[0]


def check_diameter_bound(S: SplitGraph, phi: FactorGraph | None = None) -> CheckResult:
    """A connected phi, by default the formula factor graph of S, has
    diameter <= ceil((size + 1) / 2); an empty or disconnected phi passes
    with a note."""
    ctx = _Context(S, phi)
    _check_diameter(ctx)
    return ctx.results((DIAMETER_BOUND,))[0]


def verify_all(
    S: SplitGraph, instance: str | None = None, max_len: int | None = None
) -> VerificationReport:
    """Run every structural check against one split graph.

    Builds the factor graph both ways, checks the builder and size
    identities, the pairwise laws, every path law over the full
    induced-path enumeration (capped at ``max_len`` vertices when given),
    and the two whole-graph laws, all on one check context.
    """
    if instance is None:
        instance = f"splitgraph-k{S.k_size}-i{len(S.independent)}-e{S.edge_count()}"
    ctx = _Context(S)
    # one count per enumerated move, so its size is the 2-switch degree
    phi_enum = build_by_enumeration(S)
    size = ctx.phi.size()
    if ctx.phi != phi_enum:
        ctx.failed[BUILDERS_AGREE] = "formula and enumeration builders disagree"
    if size != phi_enum.size():
        ctx.failed[SIZE_DEGREE] = f"size {size} != switch degree {phi_enum.size()}"
    _check_pairs(ctx)
    _check_paths(ctx, None, max_len)
    _check_cycles(ctx)
    _check_diameter(ctx)
    return VerificationReport(instance, ctx.results(CHECK_NAMES))


# -- corpus sweeps -------------------------------------------------------------------


@dataclass(frozen=True)
class SweepSummary:
    instances: int
    failed: tuple[tuple[str, tuple[CheckResult, ...]], ...]

    @property
    def failures(self) -> int:
        return len(self.failed)

    @property
    def ok(self) -> bool:
        return not self.failed


def _failures(
    spec: CorpusSpec, max_len: int | None, index: int
) -> tuple[str, tuple[CheckResult, ...]] | None:
    """The id and failed checks of one corpus instance, or None when it passes."""
    instance_name = instance_id(spec, index)
    report = verify_all(instance(spec, index), instance=instance_name, max_len=max_len)
    return None if report.ok else (instance_name, tuple(report.failures()))


def sweep(spec: CorpusSpec, workers: int = 1, max_len: int | None = None) -> SweepSummary:
    """Verify every instance of a corpus; reports merge in index order."""
    total = corpus_size(spec)
    check = partial(_failures, spec, max_len)
    if workers <= 1 or total < 2048:
        failed = [found for found in map(check, range(total)) if found]
    else:
        import multiprocessing

        chunk = max(256, -(-total // (workers * 4)))
        with multiprocessing.Pool(workers) as pool:
            failed = [found for found in pool.imap(check, range(total), chunk) if found]
    return SweepSummary(total, tuple(failed))
