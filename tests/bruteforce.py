"""Independent brute-force oracles for the test suite.

Everything here recomputes library answers from first principles with
the dumbest correct algorithm available: quartic scans, permutation
filters, dict-based BFS.  Nothing imports the code paths under test
beyond the plain data types.
"""

from __future__ import annotations

from itertools import combinations, permutations

from splitfactor import CorpusSpec, FactorGraph, SplitGraph, splitmix64


def brute_neighborhood(S: SplitGraph, v: str) -> set[str]:
    return {w for w in S.labels if w != v and S.has_edge(v, w)}


def two_switch_key(a: str, b: str, c: str, d: str) -> tuple:
    """Canonical identity of the move deleting ab, cd and inserting ac, bd."""
    deleted = frozenset({frozenset({a, b}), frozenset({c, d})})
    inserted = frozenset({frozenset({a, c}), frozenset({b, d})})
    return (deleted, inserted)


def brute_two_switch_keys(S: SplitGraph) -> tuple[set[tuple], int]:
    """All 2-switch identities by ordered quartic scan, plus the raw tuple count."""
    keys = set()
    raw = 0
    labels = S.labels
    for a, b, c, d in permutations(labels, 4):
        if (
            S.has_edge(a, b)
            and S.has_edge(c, d)
            and not S.has_edge(a, c)
            and not S.has_edge(b, d)
        ):
            raw += 1
            keys.add(two_switch_key(a, b, c, d))
    return keys, raw


def brute_apply_two_switch(S: SplitGraph, move: tuple[str, str, str, str]) -> SplitGraph:
    """The switched graph rebuilt from labelled edges: S's I-K edges minus
    u-x and v-y, plus u-y and v-x.  Assumes the move is valid in S."""
    u, x, v, y = move
    edges = [e for e in S.independent_edges() if e != (u, x) and e != (v, y)]
    edges.append((u, y))
    edges.append((v, x))
    return SplitGraph(S.clique, S.independent, edges)


def brute_instance(spec: CorpusSpec, index: int) -> SplitGraph:
    """Corpus instance rebuilt from labelled edges.  Independent vertex
    y(j+1) has clique neighborhood mask j: bits j*k .. j*k+k-1 of the index
    in exhaustive mode, the low k bits of SplitMix64 output index*i + j in
    random mode."""
    k, i = spec.k_max, spec.i_max
    clique = [f"x{b + 1}" for b in range(k)]
    independent = [f"y{j + 1}" for j in range(i)]
    edges = []
    for j in range(i):
        if spec.mode == "exhaustive":
            mask = index >> (j * k) & ((1 << k) - 1)
        else:
            mask = splitmix64(spec.seed, index * i + j) & ((1 << k) - 1)
        edges.extend((independent[j], clique[b]) for b in range(k) if mask >> b & 1)
    return SplitGraph(clique, independent, edges)


def brute_split_partitions(
    vertices: list[str], edges: set[frozenset[str]]
) -> list[tuple[frozenset[str], frozenset[str]]]:
    """Every bipartition (K, I) with K a clique and I independent."""
    out = []
    n = len(vertices)
    for code in range(1 << n):
        K = frozenset(vertices[t] for t in range(n) if code >> t & 1)
        I = frozenset(v for v in vertices if v not in K)
        if any(frozenset({a, b}) not in edges for a, b in combinations(sorted(K), 2)):
            continue
        if any(frozenset({a, b}) in edges for a, b in combinations(sorted(I), 2)):
            continue
        out.append((K, I))
    return out


def brute_induced_paths(phi: FactorGraph, max_len: int) -> set[tuple[str, ...]]:
    """Canonical induced paths by filtering every vertex sequence."""
    verts = phi.vertices
    idx = {v: phi.index_of(v) for v in verts}
    found = set()
    for size in range(2, min(max_len, len(verts)) + 1):
        for seq in permutations(verts, size):
            if idx[seq[0]] > idx[seq[-1]]:
                continue
            good = True
            for i in range(size):
                for j in range(i + 1, size):
                    positive = phi.multiplicity(seq[i], seq[j]) > 0
                    if positive != (j == i + 1):
                        good = False
                        break
                if not good:
                    break
            if good:
                found.add(seq)
    return found


def brute_induced_cycles(phi: FactorGraph) -> set[tuple[str, ...]]:
    """Canonical induced cycles by filtering every cyclic sequence."""
    verts = phi.vertices
    idx = {v: phi.index_of(v) for v in verts}
    found = set()
    for size in range(3, len(verts) + 1):
        for seq in permutations(verts, size):
            if any(idx[seq[t]] < idx[seq[0]] for t in range(1, size)):
                continue
            if idx[seq[1]] > idx[seq[-1]]:
                continue
            good = True
            for i in range(size):
                for j in range(i + 1, size):
                    consecutive = (j == i + 1) or (i == 0 and j == size - 1)
                    if (phi.multiplicity(seq[i], seq[j]) > 0) != consecutive:
                        good = False
                        break
                if not good:
                    break
            if good:
                found.add(seq)
    return found


def brute_is_induced(phi: FactorGraph, seq: tuple[str, ...], closed: bool) -> bool:
    """Whether ``seq`` is an induced cycle of phi (``closed``) or an induced
    path, by scanning every pair of positions: positive multiplicity exactly
    on consecutive positions, and on first-last as well when closed."""
    n = len(seq)
    if n < (3 if closed else 2) or len(set(seq)) != n:
        return False
    for i in range(n):
        for j in range(i + 1, n):
            consecutive = j == i + 1 or (closed and i == 0 and j == n - 1)
            if (phi.multiplicity(seq[i], seq[j]) > 0) != consecutive:
                return False
    return True


def brute_diameter(simple: dict[str, frozenset[str]]) -> tuple[bool, int | None]:
    """(connected, diameter) of a simple adjacency map via dict BFS."""
    verts = list(simple)
    if not verts:
        return True, 0
    best = 0
    for s in verts:
        dist = {s: 0}
        frontier = [s]
        while frontier:
            nxt = []
            for v in frontier:
                for w in simple[v]:
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
            frontier = nxt
        if len(dist) != len(verts):
            return False, None
        best = max(best, max(dist.values()))
    return True, best


def brute_umbrella(phi: FactorGraph, order: list[str]) -> tuple[str, str, str] | None:
    """The first umbrella of a vertex order, scanning every triple: u before v
    before w with uw an edge and uv, vw non-edges.  None when there is none."""
    for u, v, w in combinations(order, 3):
        if (
            phi.multiplicity(u, w) > 0
            and phi.multiplicity(u, v) == 0
            and phi.multiplicity(v, w) == 0
        ):
            return u, v, w
    return None


PATH_LAW_NAMES = (
    "path-max-at-ends",
    "path-inclusion-chain",
    "path-union-collapse",
    "path-parity-monotone",
    "path-min-at-tail",
    "p5-max-not-middle",
    "first-edge-divisible-by-union-excess",
    "first-edge-divisible-by-clique-excess",
    "union-sqrt-bound",
    "simple-edges-terminal",
    "p4-no-simple-middle",
    "p3-pendant-difference",
    "p3-tail-decomposition",
    "p3-first-multiplicity",
)


def brute_path_laws(
    S: SplitGraph, phi: FactorGraph, paths: list[tuple[str, ...]]
) -> dict[str, str]:
    """The witness of each per-path law's first failure over ``paths``, in
    their order; a law that never fails is absent.

    Every law is written out on label lists and neighbourhood sets, each
    list scan in full, and every law is evaluated on every path whatever
    its length.
    """
    verts = phi.vertices
    N = {v: frozenset(brute_neighborhood(S, v)) for v in verts}
    deg = {v: len(N[v]) for v in verts}
    union_all = frozenset().union(*N.values())
    simple_edges = sum(1 for a, b in combinations(verts, 2) if phi.multiplicity(a, b) > 0)
    # phi is a path over all of I and K is the union of the I-neighbourhoods
    clique_law = union_all == frozenset(S.clique) and simple_edges == len(verts) - 1
    failed: dict[str, str] = {}

    def fail(law, seq, detail):
        failed.setdefault(law, f"path {' '.join(seq)}; {detail}")

    def first_edge(seq, union):
        excess = len(union) - deg[seq[0]]
        first = phi.multiplicity(seq[0], seq[1])
        if excess == 0:
            fail("first-edge-divisible-by-union-excess", seq,
                 "degenerate divisor (internal inconsistency)")
            fail("union-sqrt-bound", seq, "degenerate divisor (internal inconsistency)")
        else:
            if first % excess:
                fail("first-edge-divisible-by-union-excess", seq,
                     f"union excess {excess} does not divide first multiplicity {first}")
            if excess * excess > first:
                fail("union-sqrt-bound", seq,
                     f"union excess {excess} exceeds sqrt of first multiplicity {first}")
        if clique_law and len(seq) == len(verts):
            clique_excess = len(S.clique) - deg[seq[0]]
            if clique_excess == 0:
                fail("first-edge-divisible-by-clique-excess", seq,
                     "degenerate divisor (internal inconsistency)")
            elif first % clique_excess:
                fail("first-edge-divisible-by-clique-excess", seq,
                     f"clique excess {clique_excess} does not divide first multiplicity {first}")

    def oriented(seq):
        n = len(seq)
        d = [deg[v] for v in seq]
        Ns = [N[v] for v in seq]
        for i in range(n - 2):
            bad = [j for j in range(i + 2, n) if d[i] < d[j] or not Ns[j] <= Ns[i]]
            if bad:
                fail("path-inclusion-chain", seq, f"positions {i + 1} vs {bad[0] + 1}")
                break
        for i in range(n - 2):
            later = frozenset().union(*Ns[i + 2:])
            if not later <= Ns[i]:
                fail("path-union-collapse", seq, f"position {i + 1} misses later neighbors")
                break
        for t in range(n - 2):
            if d[t] < d[t + 2]:
                fail("path-parity-monotone", seq, f"positions {t + 1} vs {t + 3}")
                break
        if min(d) != min(d[-2], d[-1]):
            fail("path-min-at-tail", seq, "minimum not within last two positions")
        first_edge(seq, frozenset().union(*Ns))

    for p in paths:
        n = len(p)
        if n == 2:
            a, b = p
            first_edge(p if deg[a] >= deg[b] else (b, a), N[a] | N[b])
            continue
        d = [deg[v] for v in p]
        top = max(d)
        if top not in (d[0], d[1], d[-2], d[-1]):
            fail("path-max-at-ends", p, f"max degree {top} only at interior positions")
        if d[0] == top:
            oriented(p)
        if d[-1] == top:
            oriented(p[::-1])
        if n == 5 and d[2] == top:
            fail("p5-max-not-middle", p, "middle degree equals the maximum")
        for t in range(1, n - 2):
            if phi.multiplicity(p[t], p[t + 1]) == 1:
                fail("simple-edges-terminal", p, f"interior edge {t + 1} has multiplicity 1")
                break
        if n == 4 and phi.multiplicity(p[1], p[2]) == 1:
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
                fail("p4-no-simple-middle", seq, f"simple middle edge, {pattern} degrees")
                break
        if n == 3:
            for seq in (p, p[::-1]):
                a, b, c = seq
                if deg[a] > deg[b] or phi.multiplicity(b, c) != 1:
                    continue
                priv_a = N[a] - N[b]
                if not (len(priv_a) == 1 and priv_a == N[c] - N[b]):
                    fail("p3-pendant-difference", seq, "head/tail private neighbors differ")
                union_ab = N[a] | N[b]
                decomposed = N[c] == priv_a | (N[b] & N[c])
                if not (decomposed and N[c] < union_ab):
                    fail("p3-tail-decomposition", seq,
                         "tail neighborhood fails the pendant decomposition")
                if phi.multiplicity(a, b) != deg[b] - deg[a] + 1:
                    fail("p3-first-multiplicity", seq,
                         "first multiplicity differs from degree gap plus one")
    return failed
