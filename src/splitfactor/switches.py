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

from functools import lru_cache
from itertools import chain, product, repeat
from typing import Callable, Iterator, NamedTuple

from .graph import GraphError, SplitGraph, _subset_table


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


# a clique's table is built once for all graphs on its labels; the bound keeps
# a long session from holding the table of every partition it has seen
@lru_cache(maxsize=16)
def _mask_labeler(clique: tuple[str, ...]) -> Callable[[int], tuple[str, ...]]:
    """The function from a mask over ``clique`` to the labels of its set
    bits, in ascending index order.  It reads them from a table holding,
    for each 8-bit chunk of the mask, the label tuple of every chunk value,
    and concatenates the chunks' tuples when |K| > 8: with two lookups and
    no loop up to |K| = 16, chunk by chunk beyond."""
    # an empty clique still gets one chunk, which maps mask 0 to no labels
    low, *high = [_subset_table(clique[base : base + 8]) for base in range(0, len(clique) or 1, 8)]
    if not high:
        return low.__getitem__
    if len(high) == 1:
        (top,) = high

        def two_chunks(mask: int) -> tuple[str, ...]:
            return low[mask & 255] + top[mask >> 8]

        return two_chunks

    def labels_of(mask: int) -> tuple[str, ...]:
        out = low[mask & 255]
        for chunk in high:
            mask >>= 8
            out += chunk[mask & 255]
        return out

    return labels_of


def _private_label_pairs(
    S: SplitGraph,
) -> Iterator[tuple[int, int, tuple[str, ...], tuple[str, ...]]]:
    """Each I-pair with 2-switches, as (a, b, xs, ys).

    a < b are indices into ``S.independent``, visited in index order, and
    xs, ys are tuples of the labels of the clique vertices adjacent to a
    but not b, and to b but not a, in ascending index order; a pair is
    skipped when either would be empty.  The pair's moves are exactly the
    pairs (x, y) with x in xs and y in ys.  The labels are read from the
    table of S's clique labels, one lookup per mask byte.
    """
    masks = S.adj_masks[S.k_size :]
    n = len(masks)
    labels_of = _mask_labeler(S.clique)
    for a in range(n):
        ma = masks[a]
        for b in range(a + 1, n):
            mb = masks[b]
            only_a = ma & ~mb
            if not only_a:
                continue
            only_b = mb & ~ma
            if not only_b:
                continue
            yield a, b, labels_of(only_a), labels_of(only_b)


def enumerate_two_switches(S: SplitGraph) -> list[TwoSwitch]:
    """All 2-switches of S, one per unordered pair of deleted edges.

    For each unordered I-pair {u, v} the moves are exactly the pairs
    (x, y) with x a private neighbor of u and y a private neighbor of v.
    Output is sorted by the internal indices of (u, v, x, y): u before v,
    then x, then y.
    """
    independent = S.independent
    moves = chain.from_iterable(
        product((independent[a],), xs, (independent[b],), ys)
        for a, b, xs, ys in _private_label_pairs(S)
    )
    # one pass over every pair's moves; tuple.__new__ builds each TwoSwitch
    # without Python-level code
    return list(map(tuple.__new__, repeat(TwoSwitch), moves))


def apply_two_switch(S: SplitGraph, move: TwoSwitch) -> SplitGraph:
    """Apply a 2-switch, returning a new graph on the same partition.

    Degrees are preserved and the result is again split over (K, I):
    only I-K edges change.  Every precondition is checked and a violation
    names the offending edge condition; a move that is not four vertex
    labels raises GraphError too.  The move flips two bits in each
    of four adjacency rows, those of u, v, x and y; every other row and
    the labels are shared with S.
    """
    try:  # a string is not four labels, even one of four characters
        u, x, v, y = () if isinstance(move, str) else move
    except (TypeError, ValueError):
        raise GraphError(f"a 2-switch is four vertex labels (u, x, v, y), got {move!r}") from None
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
    # u trades x for y and v trades y for x, so the same two clique bits
    # flip in rows u and v, and the same two independent bits in x and y.
    adj = list(masks)
    flip = 1 << ix | 1 << iy
    adj[iu] ^= flip
    adj[iv] ^= flip
    flip = 1 << iu | 1 << iv
    adj[ix] ^= flip
    adj[iy] ^= flip
    return S._derive(tuple(adj))
