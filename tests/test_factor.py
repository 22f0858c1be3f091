"""Factor multigraph: the two builders, metrics, output formats."""

import ast
import copy
import inspect
import pickle
import random
import textwrap
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import splitfactor.switches
from splitfactor import (
    CorpusSpec,
    FactorGraph,
    GraphError,
    SplitGraph,
    build_by_enumeration,
    build_by_formula,
    corpus_size,
    enumerate_two_switches,
    format_multiplicity_listing,
    generate,
    instance,
    to_dot,
    verify_all,
)
from splitfactor.switches import _private_pairs, switch_counts

from bruteforce import brute_diameter, brute_simple_view
from test_graph import split_graphs

DEMO_EDGES = [("1", "2", 1), ("2", "3", 2), ("3", "4", 2)]

DEMO_DOT = """\
graph phi {
  "1";
  "2";
  "3";
  "4";
  "1" -- "2" [label=1, penwidth=1];
  "2" -- "3" [label=2, penwidth=2];
  "3" -- "4" [label=2, penwidth=2];
}
"""


def test_demo_factor_frozen(demo_graph):
    phi = build_by_formula(demo_graph)
    assert phi.vertices == ("1", "2", "3", "4")
    assert phi.edges() == DEMO_EDGES
    assert phi.size() == 5
    assert phi.simple_edge_count() == 3
    assert phi.multiplicity("1", "2") == 1
    assert phi.multiplicity("1", "3") == 0
    assert phi.multiplicity("3", "2") == 2  # order-insensitive


def test_builders_agree_demo(demo_graph):
    assert build_by_formula(demo_graph) == build_by_enumeration(demo_graph)


def test_builders_agree_exhaustive_small():
    for k, i in ((3, 3), (2, 4), (4, 2)):
        for _, S in generate(CorpusSpec("exhaustive", k, i)):
            assert build_by_formula(S) == build_by_enumeration(S)


@settings(max_examples=80, deadline=None)
@given(split_graphs(k_max=6, i_max=5))
def test_builders_agree_property(S):
    assert build_by_formula(S) == build_by_enumeration(S)



# (corpus, stride): every instance of the corpus whose index is a multiple of stride
differential = pytest.mark.parametrize("spec, stride", [
    pytest.param(CorpusSpec("exhaustive", 3, 3), 1, id="exhaustive-3x3"),
    pytest.param(CorpusSpec("exhaustive", 4, 4), 13, id="exhaustive-4x4-every-13th"),
    pytest.param(CorpusSpec("random", 12, 12, count=5, seed=4242), 1, id="random-12x12"),
    pytest.param(CorpusSpec("random", 5, 16, count=5, seed=7), 1, id="random-5x16"),
    # clique masks wider than one byte
    pytest.param(CorpusSpec("random", 16, 6, count=5, seed=11), 1, id="random-16x6"),
    # three mask bytes, so the clique labeler runs its chunk loop
    pytest.param(CorpusSpec("random", 24, 24, count=3, seed=7), 1, id="random-24x24"),
    # many I-pairs, each with few private neighbours
    pytest.param(CorpusSpec("random", 12, 40, count=3, seed=7), 1, id="random-12x40"),
])


def differential_graphs(spec, stride):
    return [instance(spec, index) for index in range(0, corpus_size(spec), stride)]


def move_counts(S):
    """Moves per I-pair (u, v), u before v, counted off the move records."""
    return Counter((m.u, m.v) for m in enumerate_two_switches(S))


@differential
def test_enumeration_builder_counts_the_move_records(spec, stride):
    for S in differential_graphs(spec, stride):
        phi = build_by_enumeration(S)
        positive = {}
        for u, v in combinations(S.independent, 2):
            if phi.multiplicity(u, v):
                positive[u, v] = phi.multiplicity(u, v)
        assert positive == move_counts(S)
        assert phi.size() == len(enumerate_two_switches(S))


@differential
def test_builders_match_the_public_constructor(spec, stride):
    # both builders assemble in index space; the reference takes labels and validates them
    for S in differential_graphs(spec, stride):
        reference = FactorGraph(S.independent, move_counts(S))
        for phi in (build_by_enumeration(S), build_by_formula(S)):
            assert phi == reference
            assert phi.edges() == reference.edges()
            assert phi.neighbor_masks() == reference.neighbor_masks()
            assert phi.multiplicity_table() == reference.multiplicity_table()
            for v in S.independent:
                assert phi.index_of(v) == reference.index_of(v)


@differential
def test_enumeration_builder_reads_each_moving_pairs_private_mask_once(spec, stride, monkeypatch):
    # the count walks N_a - N_b one private neighbour at a time: bits is called
    # once per I-pair with moves, in (a, b) order, on the mask of the x's of its moves
    read = []
    real = splitfactor.switches.bits

    def spy(mask):
        read.append(mask)
        return real(mask)

    monkeypatch.setattr(splitfactor.switches, "bits", spy)
    for S in differential_graphs(spec, stride):
        private = {}
        for m in enumerate_two_switches(S):
            private[m.u, m.v] = private.get((m.u, m.v), 0) | 1 << S.index_of(m.x)
        read.clear()
        build_by_enumeration(S)
        assert read == list(private.values())


# -- metamorphic laws: changes to S that must leave phi alone ------------------------


BUILDERS = pytest.mark.parametrize(
    "build", [build_by_formula, build_by_enumeration], ids=["formula", "enumeration"]
)


@BUILDERS
@settings(max_examples=60, deadline=None)
@given(split_graphs(k_max=5, i_max=5))
def test_restricting_phi_is_phi_of_the_restricted_graph(build, S):
    # a multiplicity depends only on its two neighborhoods, so phi(S) on each
    # subset P of I is phi of S on K and P
    phi = build(S)
    for size in range(len(S.independent) + 1):
        for part in combinations(S.independent, size):
            restricted = SplitGraph.from_neighborhoods(
                S.clique, {v: S.neighborhood(v) for v in part}
            )
            induced = {(u, v): m for u, v, m in phi.edges() if u in part and v in part}
            assert build(restricted) == FactorGraph(part, induced)


@BUILDERS
@settings(max_examples=60, deadline=None)
@given(split_graphs(k_max=5, i_max=5))
def test_complementing_every_neighborhood_within_k_keeps_phi(build, S):
    # the complement swaps each pair's two private sets, so their product stays
    full = (1 << S.k_size) - 1
    flipped = S.with_masks([full ^ mask for mask in S.adj_masks[S.k_size:]])
    assert build(flipped) == build(S)
    assert verify_all(flipped).ok


@BUILDERS
@pytest.mark.parametrize("joined", [True, False], ids=["joined-to-all-of-I", "joined-to-none"])
@settings(max_examples=40, deadline=None)
@given(split_graphs(k_max=4, i_max=5))
def test_a_clique_vertex_seen_alike_by_all_of_i_keeps_phi(build, joined, S):
    # a vertex in every neighborhood, or in none, is private to no one
    extra = {"z"} if joined else set()
    widened = SplitGraph.from_neighborhoods(
        S.clique + ("z",), {v: S.neighborhood(v) | extra for v in S.independent}
    )
    assert build(widened) == build(S)


def test_enumeration_builder_never_multiplies():
    # the count adds, so it cannot repeat the formula builder's product, and
    # the builder around it only assembles the count map; the count and the
    # scan it reads work on masks alone and read no label
    for function in (_private_pairs, switch_counts, build_by_enumeration):
        tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
        assert not [node for node in ast.walk(tree) if isinstance(node, ast.Mult)]
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert "product" not in names
        if function is not build_by_enumeration:
            assert not names & {"labels", "clique", "independent"}


@BUILDERS
@settings(max_examples=60, deadline=None)
@given(st.data(), split_graphs(k_max=5, i_max=5))
def test_relabelling_k_keeps_phi_and_relabelling_i_relabels_it(build, data, S):
    # a multiplicity depends on the sizes of two private sets, not on which
    # clique labels or positions they hold; phi lives on I, so new names or a
    # new order of I give phi those names and that order
    phi = build(S)
    rename_k = dict(zip(S.clique, data.draw(st.permutations([f"k{j}" for j in range(S.k_size)]))))
    relabelled_k = SplitGraph.from_neighborhoods(
        sorted(rename_k.values()),
        {v: {rename_k[x] for x in S.neighborhood(v)} for v in S.independent},
    )
    assert build(relabelled_k) == phi
    order = data.draw(st.permutations(S.independent))
    rename_i = {v: f"i{j}" for j, v in enumerate(data.draw(st.permutations(S.independent)))}
    relabelled_i = SplitGraph.from_neighborhoods(
        S.clique, {rename_i[v]: S.neighborhood(v) for v in order}
    )
    assert build(relabelled_i) == FactorGraph(
        [rename_i[v] for v in order], {(rename_i[u], rename_i[v]): m for u, v, m in phi.edges()}
    )


class TestFactorGraphType:
    def test_zero_multiplicities_dropped(self):
        phi = FactorGraph(("a", "b", "c"), {("a", "b"): 0, ("b", "c"): 3})
        assert phi.simple_edge_count() == 1
        assert phi.multiplicity("a", "b") == 0
        assert phi.edges() == [("b", "c", 3)]

    def test_consistent_duplicate_keys_merge(self):
        phi = FactorGraph(("a", "b"), {("a", "b"): 2, ("b", "a"): 2})
        assert phi.edges() == [("a", "b", 2)]

    def test_conflicting_duplicate_keys_rejected(self):
        with pytest.raises(GraphError, match="conflicting"):
            FactorGraph(("a", "b"), {("a", "b"): 1, ("b", "a"): 2})

    @pytest.mark.parametrize(
        "entries",
        [
            {("a", "b"): 3, ("b", "a"): 0},
            {("a", "b"): 0, ("b", "a"): 3},
        ],
        ids=["positive-first", "zero-first"],
    )
    def test_zero_conflicting_with_positive_rejected(self, entries):
        with pytest.raises(GraphError, match="conflicting multiplicities for"):
            FactorGraph(("a", "b"), entries)

    def test_two_zero_entries_accepted(self):
        phi = FactorGraph(("a", "b"), {("a", "b"): 0, ("b", "a"): 0})
        assert phi.edges() == [] and phi.simple_edge_count() == 0

    def test_loop_rejected(self):
        with pytest.raises(GraphError, match="loop"):
            FactorGraph(("a",), {("a", "a"): 1})

    def test_unknown_vertex_rejected(self):
        with pytest.raises(GraphError, match="unknown vertex 'q'"):
            FactorGraph(("a", "b"), {("a", "q"): 1})

    def test_bad_multiplicity_rejected(self):
        with pytest.raises(GraphError, match="non-negative int"):
            FactorGraph(("a", "b"), {("a", "b"): -1})

    def test_bool_multiplicity_rejected(self):
        with pytest.raises(GraphError, match="non-negative int"):
            FactorGraph(("a", "b"), {("a", "b"): True})

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(GraphError, match="duplicate"):
            FactorGraph(("a", "a"), {})

    @pytest.mark.parametrize("mult", [[(("a", "b"), 1)], None], ids=["pairs", "none"])
    def test_non_mapping_multiplicities_rejected(self, mult):
        with pytest.raises(GraphError) as exc:
            FactorGraph(("a", "b"), mult)
        assert str(exc.value) == f"multiplicities must be a mapping, got {mult!r}"

    @pytest.mark.parametrize("vertices, mult, message", [
        ([1, 2], {(1, 2): 1}, "vertex label must be a non-empty string, got 1"),
        ([["a"]], {}, "vertex label must be a non-empty string, got ['a']"),
        (["a", "b c"], {}, "vertex label may not contain whitespace: 'b c'"),
        (["a", "a", 7], {}, "vertex label must be a non-empty string, got 7"),
    ], ids=["int", "unhashable", "whitespace", "bad-label-before-duplicate"])
    def test_bad_vertex_label_rejected(self, vertices, mult, message):
        with pytest.raises(GraphError) as exc:
            FactorGraph(vertices, mult)
        assert str(exc.value) == message

    def test_unhashable_query_rejected(self, demo_graph):
        phi = build_by_formula(demo_graph)
        with pytest.raises(GraphError) as exc:
            phi.multiplicity(["1"], "2")
        assert str(exc.value) == "unknown vertex ['1']"

    def test_unknown_vertex_query_rejected(self):
        phi = FactorGraph(("a", "b"), {("a", "b"): 1})
        with pytest.raises(GraphError) as exc:
            phi.multiplicity("a", "q")
        assert str(exc.value) == "unknown vertex 'q'"

    def test_loop_query_rejected(self):
        phi = FactorGraph(("a", "b"), {("a", "b"): 1})
        with pytest.raises(GraphError, match="loop"):
            phi.multiplicity("a", "a")

    def test_neighbors_and_simple_view(self):
        phi = FactorGraph(("a", "b", "c"), {("a", "b"): 5, ("a", "c"): 1})
        assert phi.neighbors("a") == ("b", "c")
        assert phi.neighbor_masks() == (0b110, 0b001, 0b001)

    def test_repr_and_foreign_equality(self):
        phi = FactorGraph(("a", "b", "c"), {("a", "b"): 5, ("a", "c"): 1})
        assert repr(phi) == "FactorGraph(|V|=3, size=6)"
        assert phi.__eq__(phi.edges()) is NotImplemented

    def test_immutable(self):
        phi = FactorGraph(("a",), {})
        with pytest.raises(AttributeError):
            phi.vertices = ()

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda phi: setattr(phi, "_nbr_masks", (0, 0)),
            lambda phi: delattr(phi, "vertices"),
            lambda phi: delattr(phi, "_nbr_masks"),
        ],
        ids=["set-private", "del-public", "del-private"],
    )
    def test_immutable_sentinel_and_delete(self, mutate):
        # no field can be written or deleted after construction, private ones included
        phi = FactorGraph(("1", "2"), {("1", "2"): 3})
        with pytest.raises(AttributeError, match="FactorGraph is immutable"):
            mutate(phi)
        assert phi.neighbors("1") == ("2",)

    @pytest.mark.parametrize(
        "clone",
        [lambda phi: pickle.loads(pickle.dumps(phi)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_round_trips_past_the_guard(self, demo_graph, clone):
        # each rebuilds the graph from its fields, past the guard that refuses every later write
        phi = build_by_formula(demo_graph)
        twin = clone(phi)
        assert twin == phi and twin is not phi
        assert twin.neighbor_masks() == phi.neighbor_masks()
        # the same graph built afresh through the validating constructor
        listed = FactorGraph(phi.vertices, {(u, v): m for u, v, m in phi.edges()})
        assert pickle.dumps(phi) == pickle.dumps(twin) == pickle.dumps(listed)
        with pytest.raises(AttributeError):
            twin.vertices = ()


class TestDiameter:
    def test_demo(self, demo_graph):
        assert build_by_formula(demo_graph).diameter() == 3

    def test_empty(self):
        assert FactorGraph((), {}).diameter() == 0

    def test_single_vertex(self):
        assert FactorGraph(("a",), {}).diameter() == 0

    def test_disconnected(self):
        phi = FactorGraph(("a", "b", "c", "d"), {("a", "b"): 1, ("c", "d"): 9})
        assert phi.diameter() is None

    def test_reach_from_one_vertex(self, demo_graph):
        path = build_by_formula(demo_graph)
        assert path.reach(0) == (0b1111, 3)
        assert path.reach(1) == (0b1111, 2)
        split = FactorGraph(("a", "b", "c", "d"), {("a", "b"): 1, ("c", "d"): 9})
        assert split.reach(2) == (0b1100, 1)
        assert FactorGraph(("a",), {}).reach(0) == (1, 0)

    def test_matches_bruteforce_on_random_multigraphs(self):
        rng = random.Random(1337)
        for _ in range(300):
            n = rng.randint(0, 8)
            verts = tuple(f"v{t}" for t in range(n))
            mult = {
                (verts[a], verts[b]): rng.randint(1, 3)
                for a in range(n)
                for b in range(a + 1, n)
                if rng.random() < 0.3
            }
            phi = FactorGraph(verts, mult)
            assert phi.diameter() == brute_diameter(brute_simple_view(phi))[1]


class TestOutput:
    def test_multiplicity_listing(self, demo_graph):
        text = format_multiplicity_listing(build_by_formula(demo_graph))
        assert text == "1 2 1\n2 3 2\n3 4 2\n"

    def test_dot_frozen(self, demo_graph):
        assert to_dot(build_by_formula(demo_graph)) == DEMO_DOT
