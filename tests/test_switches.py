"""2-switch enumeration and application."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitfactor import (
    CorpusSpec,
    GraphError,
    SplitGraph,
    TwoSwitch,
    apply_two_switch,
    enumerate_two_switches,
    format_split_text,
    generate,
    instance,
    parse_split_text,
    splitmix64,
)
from splitfactor import switches as switches_module
from splitfactor.switches import _mask_labeler, _private_pairs

from bruteforce import (
    brute_apply_two_switch,
    brute_private_label_pairs,
    brute_two_switch_keys,
    two_switch_key,
)
from test_graph import split_graphs

DEMO_MOVES = [
    ("1", "x", "2", "y"),
    ("2", "y", "3", "x"),
    ("2", "y", "3", "z"),
    ("3", "z", "4", "y"),
    ("3", "z", "4", "t"),
]


def test_demo_moves_frozen(demo_graph):
    got = [(m.u, m.x, m.v, m.y) for m in enumerate_two_switches(demo_graph)]
    assert got == DEMO_MOVES


def test_moves_are_immutable_named_tuples(demo_graph):
    move = enumerate_two_switches(demo_graph)[0]
    assert isinstance(move, tuple) and move == ("1", "x", "2", "y")
    assert repr(move) == "TwoSwitch(u='1', x='x', v='2', y='y')"
    assert move.reversed() == TwoSwitch("1", "y", "2", "x")
    with pytest.raises(AttributeError):
        move.x = "z"


def test_equal_neighborhoods_admit_no_moves():
    S = SplitGraph.from_neighborhoods(["x", "y"], {"1": {"x", "y"}, "2": {"x", "y"}})
    assert enumerate_two_switches(S) == []


def _assert_matches_bruteforce(S):
    moves = enumerate_two_switches(S)
    # the move deletes u-x, v-y and inserts u-y, v-x; in the oracle's
    # (a,b,c,d) convention (delete ab, cd; insert ac, bd) that is (u,x,y,v)
    keys = {two_switch_key(m.u, m.x, m.y, m.v) for m in moves}
    assert len(keys) == len(moves)  # no duplicate identities
    brute_keys, raw = brute_two_switch_keys(S)
    assert keys == brute_keys
    # the quartic scan sees each move as 4 ordered tuples: (u,x,v,y) flipped
    # per deleted edge and with the two deleted edges exchanged
    assert raw == 4 * len(moves)


def test_bruteforce_agreement_demo(demo_graph):
    _assert_matches_bruteforce(demo_graph)


def test_bruteforce_agreement_exhaustive_3x3():
    for _, S in generate(CorpusSpec("exhaustive", 3, 3)):
        _assert_matches_bruteforce(S)


@settings(max_examples=40, deadline=None)
@given(split_graphs(k_max=5, i_max=4))
def test_bruteforce_agreement_property(S):
    _assert_matches_bruteforce(S)


def _brute_moves_in_order(S):
    """The oracle's moves as (u, x, v, y) tuples, sorted by the internal
    indices of (u, v, x, y): the exact list enumeration must return."""
    k = S.k_size
    moves = []
    for deleted, _ in brute_two_switch_keys(S)[0]:
        # clique indices come first, so each deleted edge sorts as (I-end, K-end)
        (u, x), (v, y) = sorted(
            (sorted(edge, key=S.index_of, reverse=True) for edge in deleted),
            key=lambda edge: S.index_of(edge[0]),
        )
        assert S.index_of(x) < k <= S.index_of(u)
        moves.append((u, x, v, y))
    return sorted(moves, key=lambda m: [S.index_of(m[t]) for t in (0, 2, 1, 3)])


@pytest.mark.parametrize(
    "spec",
    [
        CorpusSpec("exhaustive", 3, 3),
        CorpusSpec("random", 12, 12, count=3, seed=4242),
        CorpusSpec("random", 5, 16, count=3, seed=7),
        # clique masks wider than one byte
        CorpusSpec("random", 16, 6, count=3, seed=11),
        # wider than two bytes
        CorpusSpec("random", 17, 6, count=3, seed=11),
    ],
    ids=lambda spec: f"{spec.mode}-{spec.k_max}x{spec.i_max}",
)
def test_move_order_matches_sorted_bruteforce(spec):
    for _, S in generate(spec):
        moves = enumerate_two_switches(S)
        assert all(type(m) is TwoSwitch for m in moves)
        assert [tuple(m) for m in moves] == _brute_moves_in_order(S)


class TestApply:
    def test_exact_edge_exchange(self, demo_graph):
        after = apply_two_switch(demo_graph, TwoSwitch("1", "x", "2", "y"))
        assert after.neighborhood("1") == {"y"}
        assert after.neighborhood("2") == {"x"}
        assert after.neighborhood("3") == {"x", "z"}
        assert after.neighborhood("4") == {"x", "y", "t"}

    def test_degrees_preserved(self, demo_graph):
        for move in enumerate_two_switches(demo_graph):
            assert apply_two_switch(demo_graph, move).degrees() == demo_graph.degrees()

    def test_involution(self, demo_graph):
        for move in enumerate_two_switches(demo_graph):
            there = apply_two_switch(demo_graph, move)
            assert apply_two_switch(there, move.reversed()) == demo_graph
            assert there != demo_graph

    def test_matches_oracle_exhaustive_3x3(self):
        for _, S in generate(CorpusSpec("exhaustive", 3, 3)):
            for move in enumerate_two_switches(S):
                assert apply_two_switch(S, move) == brute_apply_two_switch(S, move)

    def test_missing_edge_rejected(self, demo_graph):
        with pytest.raises(GraphError, match="missing edge '1'-'y'"):
            apply_two_switch(demo_graph, TwoSwitch("1", "y", "2", "x"))

    def test_present_edge_rejected(self, demo_graph):
        # inserting 3-x fails: the edge exists
        with pytest.raises(GraphError, match="'3'-'x' already present"):
            apply_two_switch(demo_graph, TwoSwitch("1", "x", "3", "z"))

    def test_partition_sides_checked(self, demo_graph):
        with pytest.raises(GraphError, match="not in the independent set"):
            apply_two_switch(demo_graph, TwoSwitch("x", "1", "2", "y"))
        with pytest.raises(GraphError, match="not in the clique"):
            apply_two_switch(demo_graph, TwoSwitch("1", "3", "2", "y"))

    @pytest.mark.parametrize(
        "move, message",
        [
            (("x", "1", "2", "y"), "vertex 'x' is not in the independent set"),
            (("1", "x", "y", "2"), "vertex 'y' is not in the independent set"),
            (("1", "3", "2", "y"), "vertex '3' is not in the clique"),
            (("1", "x", "2", "4"), "vertex '4' is not in the clique"),
            (("1", "x", "1", "y"), "independent endpoints coincide: '1'"),
            (("1", "x", "2", "x"), "clique endpoints coincide: 'x'"),
            (("1", "y", "2", "x"), "missing edge '1'-'y'"),
            (("1", "x", "2", "z"), "missing edge '2'-'z'"),
            (("4", "x", "2", "y"), "edge '4'-'y' already present"),
            (("1", "x", "3", "z"), "edge '3'-'x' already present"),
        ],
    )
    def test_precondition_messages(self, demo_graph, move, message):
        # the ten checks in their order; each case passes every check before its own
        with pytest.raises(GraphError) as exc:
            apply_two_switch(demo_graph, TwoSwitch(*move))
        assert str(exc.value) == message

    @pytest.mark.parametrize("move, message", [
        ((["1"], "x", "2", "y"), "unknown vertex ['1']"),
        (("1", "x", "2"), "a 2-switch is four vertex labels (u, x, v, y), got ('1', 'x', '2')"),
        (("1", "x", "2", "y", "z"),
         "a 2-switch is four vertex labels (u, x, v, y), got ('1', 'x', '2', 'y', 'z')"),
        ("1x2y", "a 2-switch is four vertex labels (u, x, v, y), got '1x2y'"),
    ], ids=["unhashable-label", "three-labels", "five-labels", "string"])
    def test_malformed_move_rejected(self, demo_graph, move, message):
        with pytest.raises(GraphError) as exc:
            apply_two_switch(demo_graph, move)
        assert str(exc.value) == message

    def test_coincident_endpoints_rejected(self, demo_graph):
        with pytest.raises(GraphError, match="coincide"):
            apply_two_switch(demo_graph, TwoSwitch("1", "x", "1", "y"))

    @settings(max_examples=60, deadline=None)
    @given(split_graphs(), st.randoms(use_true_random=False))
    def test_apply_property(self, S, rng):
        moves = enumerate_two_switches(S)
        if not moves:
            return
        move = rng.choice(moves)
        after = apply_two_switch(S, move)
        assert after == brute_apply_two_switch(S, move)
        # same partition, same degree sequence, move reversed restores S
        assert after.clique == S.clique and after.independent == S.independent
        assert after.degrees() == S.degrees()
        assert apply_two_switch(after, move.reversed()) == S

    @settings(max_examples=60, deadline=None)
    @given(split_graphs(), st.randoms(use_true_random=False))
    def test_text_round_trip_after_apply(self, S, rng):
        moves = enumerate_two_switches(S)
        if not moves:
            return
        after = apply_two_switch(S, rng.choice(moves))
        assert parse_split_text(format_split_text(after)) == after


def _assert_step(S, move, after):
    """``after`` is S with ``move`` applied: it equals the graph that
    ``with_masks`` rebuilds from the flipped I-masks, K rows included, and
    every K-row bit mirrors the matching I-row bit."""
    k = S.k_size
    iu, ix, iv, iy = (S.index_of(label) for label in move)
    flip = 1 << ix | 1 << iy
    masks = list(S.adj_masks[k:])
    masks[iu - k] ^= flip
    masks[iv - k] ^= flip
    assert after == S.with_masks(masks)
    rows = after.adj_masks
    assert type(rows) is tuple and all(type(row) is int for row in rows)
    for x in range(k):
        for u in range(k, len(rows)):
            assert rows[x] >> u & 1 == rows[u] >> x & 1


# measured with every step rebuilt whole through with_masks, independently of
# the row flips: SHA-256 of repr(adj_masks) after the last step, and the
# number of moves summed over every visited state
WALK_DIGEST = "b5b03da21aecfd5f3dd06a92b0494f25e6a7ff7875dbe4065632ba1481b566ed"
WALK_MOVES = 1_199_038


def test_walk_pinned():
    S = instance(CorpusSpec("random", 12, 12, count=1, seed=4242), 0)
    total = 0
    for t in range(2000):
        moves = enumerate_two_switches(S)
        total += len(moves)
        move = moves[splitmix64(7, t) % len(moves)]
        after = apply_two_switch(S, move)
        _assert_step(S, move, after)
        S = after
    assert hashlib.sha256(repr(S.adj_masks).encode()).hexdigest() == WALK_DIGEST
    assert total == WALK_MOVES


def test_every_move_of_exhaustive_3x3_steps_exactly():
    for _, S in generate(CorpusSpec("exhaustive", 3, 3)):
        for move in enumerate_two_switches(S):
            _assert_step(S, move, apply_two_switch(S, move))


@pytest.mark.parametrize("k", [0, 1, 7, 8, 9, 12, 15, 16, 17, 63])
def test_private_labels_match_low_bit_oracle(k):
    """The per-byte label table agrees with the low-bit loop at every
    chunk boundary, on dense and on sparse seeded masks."""
    S = SplitGraph([f"x{j}" for j in range(k)], [f"y{j}" for j in range(8)])
    k_mask = (1 << k) - 1
    for trial in range(20):
        draws = [splitmix64(k, 16 * trial + j) for j in range(16)]
        for masks in (draws[:8], [a & b for a, b in zip(draws[:8], draws[8:])]):
            G = S.with_masks([m & k_mask for m in masks])
            labels_of = _mask_labeler(G.clique)
            got = [
                (a, b, labels_of(only_a), labels_of(only_b))
                for a, b, only_a, only_b in _private_pairs(G)
            ]
            assert all(type(xs) is tuple and type(ys) is tuple for *_, xs, ys in got)
            assert [(a, b, list(xs), list(ys)) for a, b, xs, ys in got] == (
                brute_private_label_pairs(G)
            )


@pytest.fixture
def table_builds():
    """The number of clique label tables built since the test began: the
    label cache starts empty, so no earlier test has built their table."""
    switches_module._mask_labeler.cache_clear()
    return lambda: switches_module._mask_labeler.cache_info().misses


def test_label_table_built_once_per_walk(table_builds):
    S = instance(CorpusSpec("random", 12, 12, count=1, seed=4242), 0)
    for t in range(100):
        moves = enumerate_two_switches(S)
        S = apply_two_switch(S, moves[splitmix64(7, t) % len(moves)])
    assert table_builds() == 1


def test_label_table_built_once_per_corpus_partition(table_builds):
    specs = [CorpusSpec("exhaustive", 3, 3), CorpusSpec("random", 10, 5, count=200, seed=3)]
    for spec in specs:
        for _, S in generate(spec):
            enumerate_two_switches(S)
        enumerate_two_switches(instance(spec, 0).with_masks([0] * spec.i_max))
    assert table_builds() == len(specs)
