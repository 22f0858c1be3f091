"""2-switch enumeration and application."""

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
    parse_split_text,
)

from bruteforce import brute_apply_two_switch, brute_two_switch_keys, two_switch_key
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
    ],
    ids=lambda spec: f"{spec.mode}-{spec.k_max}x{spec.i_max}",
)
def test_move_order_matches_sorted_bruteforce(spec):
    for _, S in generate(spec):
        got = [tuple(m) for m in enumerate_two_switches(S)]
        assert got == _brute_moves_in_order(S)


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
