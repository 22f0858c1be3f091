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
