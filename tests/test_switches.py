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
    generate,
)

from bruteforce import brute_two_switch_keys, two_switch_key
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
        # same partition, same degree sequence, move reversed restores S
        assert after.clique == S.clique and after.independent == S.independent
        assert after.degrees() == S.degrees()
        assert apply_two_switch(after, move.reversed()) == S
