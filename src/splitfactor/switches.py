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

from functools import partial
from itertools import product
from typing import NamedTuple

from .graph import GraphError, SplitGraph, bits


class TwoSwitch(NamedTuple):
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


# Builds a TwoSwitch from a 4-tuple without running Python-level code.
_make_move = partial(tuple.__new__, TwoSwitch)


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
        ma = masks[a]
        for b in range(a + 1, n):
            mb = masks[b]
            only_a = ma & ~mb
            if not only_a:
                continue
            only_b = mb & ~ma
            if not only_b:
                continue
            xs = [labels[x] for x in bits(only_a)]
            ys = [labels[y] for y in bits(only_b)]
            out.extend(map(_make_move, product((labels[a],), xs, (labels[b],), ys)))
    return out


def apply_two_switch(S: SplitGraph, move: TwoSwitch) -> SplitGraph:
    """Apply a 2-switch, returning a new graph on the same partition.

    Degrees are preserved and the result is again split over (K, I):
    only I-K edges change.  Every precondition is checked and a violation
    names the offending edge condition.
    """
    u, x, v, y = move
    iu, ix = S.index_of(u), S.index_of(x)
    iv, iy = S.index_of(v), S.index_of(y)
    k = S.k_size
    masks = S.adj_masks
    if iu < k:
        raise GraphError(f"vertex {u!r} is not in the independent set")
    if iv < k:
        raise GraphError(f"vertex {v!r} is not in the independent set")
    if ix >= k:
        raise GraphError(f"vertex {x!r} is not in the clique")
    if iy >= k:
        raise GraphError(f"vertex {y!r} is not in the clique")
    if u == v:
        raise GraphError(f"independent endpoints coincide: {u!r}")
    if x == y:
        raise GraphError(f"clique endpoints coincide: {x!r}")
    if not masks[iu] >> ix & 1:
        raise GraphError(f"missing edge {u!r}-{x!r}")
    if not masks[iv] >> iy & 1:
        raise GraphError(f"missing edge {v!r}-{y!r}")
    if masks[iu] >> iy & 1:
        raise GraphError(f"edge {u!r}-{y!r} already present")
    if masks[iv] >> ix & 1:
        raise GraphError(f"edge {v!r}-{x!r} already present")
    # u trades x for y and v trades y for x: the same two bits flip in both.
    flip = 1 << ix | 1 << iy
    independent = list(masks[k:])
    independent[iu - k] ^= flip
    independent[iv - k] ^= flip
    return S.with_masks(independent)
