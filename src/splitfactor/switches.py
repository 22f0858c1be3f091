"""2-switches of a split graph.

A 2-switch deletes two edges ab, cd and inserts the non-edges ac, bd.
In a split graph every deleted edge necessarily runs between I and K
(a deleted K-K edge would force an I-I edge among the inserted pair),
so every 2-switch has the normal form (u, x, v, y) with u, v in I and
x, y in K where ux, vy are deleted and uy, vx inserted.  The move is
identified by the unordered pair of deleted edges; the canonical
representative puts the I-endpoint with the smaller internal index
first.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import GraphError, SplitGraph, bits


@dataclass(frozen=True)
class TwoSwitch:
    """Deletes edges u-x and v-y, inserts u-y and v-x.

    u, v are independent-set vertices, x, y clique vertices.  Validity in
    a given graph means: u-x and v-y are edges while u-y and v-x are not.
    """

    u: str
    x: str
    v: str
    y: str

    def reversed(self) -> "TwoSwitch":
        """The inverse move, valid on the graph this move produces."""
        return TwoSwitch(self.u, self.y, self.v, self.x)


def enumerate_two_switches(S: SplitGraph) -> list[TwoSwitch]:
    """All 2-switches of S, one per unordered pair of deleted edges.

    For each unordered I-pair {u, v} the moves are exactly the pairs
    (x, y) with x a private neighbor of u and y a private neighbor of v.
    Output is sorted by internal index: (u, x, v, y) with u before v.
    """
    labels = S.labels
    masks = S.adj_masks
    k = S.k_size
    n = len(labels)
    out: list[TwoSwitch] = []
    for a in range(k, n):
        for b in range(a + 1, n):
            only_a = masks[a] & ~masks[b]
            if not only_a:
                continue
            only_b = masks[b] & ~masks[a]
            if not only_b:
                continue
            u, v = labels[a], labels[b]
            for x in bits(only_a):
                for y in bits(only_b):
                    out.append(TwoSwitch(u, labels[x], v, labels[y]))
    return out


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise GraphError(message)


def apply_two_switch(S: SplitGraph, move: TwoSwitch) -> SplitGraph:
    """Apply a 2-switch, returning a new graph on the same partition.

    Degrees are preserved and the result is again split over (K, I):
    only I-K edges change.  Every precondition is checked and a violation
    names the offending edge condition.
    """
    u, x, v, y = move.u, move.x, move.v, move.y
    iu, ix = S.index_of(u), S.index_of(x)
    iv, iy = S.index_of(v), S.index_of(y)
    k = S.k_size
    _require(iu >= k, f"vertex {u!r} is not in the independent set")
    _require(iv >= k, f"vertex {v!r} is not in the independent set")
    _require(ix < k, f"vertex {x!r} is not in the clique")
    _require(iy < k, f"vertex {y!r} is not in the clique")
    _require(u != v, f"independent endpoints coincide: {u!r}")
    _require(x != y, f"clique endpoints coincide: {x!r}")
    _require(S.adj_masks[iu] >> ix & 1, f"missing edge {u!r}-{x!r}")
    _require(S.adj_masks[iv] >> iy & 1, f"missing edge {v!r}-{y!r}")
    _require(not S.adj_masks[iu] >> iy & 1, f"edge {u!r}-{y!r} already present")
    _require(not S.adj_masks[iv] >> ix & 1, f"edge {v!r}-{x!r} already present")
    edges = [e for e in S.independent_edges() if e != (u, x) and e != (v, y)]
    edges.append((u, y))
    edges.append((v, x))
    return SplitGraph(S.clique, S.independent, edges)
