"""Core graph type: construction invariants, text format, recognition."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitfactor import (
    CorpusSpec,
    GraphError,
    ParseError,
    SplitGraph,
    format_split_text,
    generate,
    parse_split_text,
    recognize_split,
)

from bruteforce import brute_neighborhood, brute_split_partitions


# every split graph at sizes (k, i) as a hypothesis strategy
def split_graphs(k_max=4, i_max=4):
    def build(draw):
        k = draw(st.integers(1, k_max))
        i = draw(st.integers(1, i_max))
        masks = draw(st.lists(st.integers(0, (1 << k) - 1), min_size=i, max_size=i))
        clique = [f"x{j}" for j in range(1, k + 1)]
        nbhd = {
            f"y{j + 1}": {clique[b] for b in range(k) if masks[j] >> b & 1}
            for j in range(i)
        }
        return SplitGraph.from_neighborhoods(clique, nbhd)

    return st.composite(build)()


class TestConstruction:
    def test_demo_shape(self, demo_graph):
        S = demo_graph
        assert S.k_size == 4
        assert S.labels == ("x", "y", "z", "t", "1", "2", "3", "4")
        assert S.clique == ("x", "y", "z", "t")
        assert S.independent == ("1", "2", "3", "4")
        assert S.edge_count() == 13  # 6 clique edges + 7 cross edges
        assert S.degrees() == (6, 5, 4, 4, 1, 1, 2, 3)

    def test_clique_edges_implicit(self, demo_graph):
        for a, b in combinations(demo_graph.clique, 2):
            assert demo_graph.has_edge(a, b)

    def test_independent_set_has_no_edges(self, demo_graph):
        for a, b in combinations(demo_graph.independent, 2):
            assert not demo_graph.has_edge(a, b)

    def test_explicit_independent_edge_rejected(self):
        with pytest.raises(GraphError, match="independent-set"):
            SplitGraph(["x"], ["1", "2"], [("1", "2")])

    def test_loop_rejected(self):
        with pytest.raises(GraphError, match="loop"):
            SplitGraph(["x"], ["1"], [("x", "x")])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(GraphError, match="unknown vertex"):
            SplitGraph(["x"], ["1"], [("1", "q")])

    def test_duplicate_label_rejected(self):
        with pytest.raises(GraphError, match="duplicate"):
            SplitGraph(["x", "y"], ["x"])

    @pytest.mark.parametrize("label", ["", "a b", "#tag", 7, None])
    def test_bad_labels_rejected(self, label):
        with pytest.raises(GraphError):
            SplitGraph([label], [])

    def test_immutable(self, demo_graph):
        with pytest.raises(AttributeError):
            demo_graph.k_size = 0

    def test_from_neighborhoods_matches_explicit_edges(self, demo_graph):
        explicit = SplitGraph(
            ["x", "y", "z", "t"],
            ["1", "2", "3", "4"],
            [("1", "x"), ("2", "y"), ("3", "x"), ("3", "z"),
             ("4", "x"), ("4", "y"), ("4", "t")],
        )
        assert explicit == demo_graph

    def test_equality_is_partition_sensitive(self, demo_graph):
        relabeled = SplitGraph(
            ["y", "x", "z", "t"],
            ["1", "2", "3", "4"],
            demo_graph.independent_edges(),
        )
        assert relabeled != demo_graph

    def test_empty_graph(self):
        S = SplitGraph((), ())
        assert S.labels == ()
        assert S.edge_count() == 0


class TestWithMasks:
    def test_masks_replace_neighborhoods(self, demo_graph):
        # bits over the clique x, y, z, t; the demo's own I-K edges must go
        S = demo_graph.with_masks([0b0010, 0b0001, 0b1100, 0])
        expected = SplitGraph.from_neighborhoods(
            ["x", "y", "z", "t"], {"1": {"y"}, "2": {"x"}, "3": {"z", "t"}, "4": set()}
        )
        assert S == expected

    @settings(max_examples=60, deadline=None)
    @given(split_graphs())
    def test_matches_constructor_property(self, S):
        empty = SplitGraph(S.clique, S.independent)
        assert empty.with_masks(S.adj_masks[S.k_size:]) == S

    @pytest.mark.parametrize("masks", [[1, 2, 4], [1, 2, 4, 8, 0]], ids=["short", "long"])
    def test_wrong_mask_count_rejected(self, demo_graph, masks):
        with pytest.raises(GraphError, match="expected 4 neighborhood masks"):
            demo_graph.with_masks(masks)

    @pytest.mark.parametrize("mask", [0b10000, -1], ids=["beyond-k", "negative"])
    def test_mask_outside_clique_rejected(self, demo_graph, mask):
        with pytest.raises(GraphError, match="of '2' lies outside K"):
            demo_graph.with_masks([1, mask, 0, 0])


class TestQueries:
    def test_neighborhoods_match_bruteforce(self, demo_graph):
        for v in demo_graph.labels:
            nb = demo_graph.neighborhood(v)
            assert isinstance(nb, frozenset)
            assert nb == brute_neighborhood(demo_graph, v)
            assert len(nb) == demo_graph.degree(v)

    def test_independent_edges_listing(self, demo_graph):
        assert demo_graph.independent_edges() == [
            ("1", "x"), ("2", "y"), ("3", "x"), ("3", "z"),
            ("4", "x"), ("4", "y"), ("4", "t"),
        ]

    def test_index_of_unknown(self, demo_graph):
        with pytest.raises(GraphError, match="unknown vertex"):
            demo_graph.index_of("nope")
        assert not demo_graph.has_vertex("nope")

    @settings(max_examples=60, deadline=None)
    @given(split_graphs())
    def test_neighborhood_oracle_property(self, S):
        for v in S.labels:
            assert S.neighborhood(v) == brute_neighborhood(S, v)


class TestTextFormat:
    def test_round_trip(self, demo_graph):
        assert parse_split_text(format_split_text(demo_graph)) == demo_graph

    def test_round_trip_exhaustive_2x2(self):
        for _, S in generate(CorpusSpec("exhaustive", 2, 2)):
            assert parse_split_text(format_split_text(S)) == S

    def test_comments_and_blanks_ignored(self):
        text = "# a comment\n\nK: x\n# another\nI: 1 2\n\n1 x\n"
        S = parse_split_text(text)
        assert S.clique == ("x",)
        assert S.degree("1") == 1 and S.degree("2") == 0

    def test_explicit_clique_edge_tolerated(self):
        S = parse_split_text("K: x y\nI: 1\nx y\n1 x\n")
        assert S.edge_count() == 2

    def test_missing_k_header(self):
        with pytest.raises(ParseError, match="missing 'K:'") as exc:
            parse_split_text("# nothing else\n")
        assert exc.value.lineno == 1

    def test_wrong_first_header(self):
        with pytest.raises(ParseError, match="expected 'K:'") as exc:
            parse_split_text("I: 1\nK: x\n")
        assert exc.value.lineno == 1

    def test_missing_i_header(self):
        with pytest.raises(ParseError, match="missing 'I:'") as exc:
            parse_split_text("K: x\n")
        assert exc.value.lineno == 1

    def test_malformed_edge_line(self):
        with pytest.raises(ParseError, match="expected an edge line") as exc:
            parse_split_text("K: x\nI: 1\n1 x extra\n")
        assert exc.value.lineno == 3

    def test_unknown_vertex_blamed_on_its_line(self):
        with pytest.raises(ParseError, match="unknown vertex") as exc:
            parse_split_text("K: x\nI: 1\n1 x\n1 q\n")
        assert exc.value.lineno == 4

    def test_independent_edge_blamed_on_its_line(self):
        with pytest.raises(ParseError, match="independent-set") as exc:
            parse_split_text("K: x\nI: 1 2\n1 x\n1 2\n")
        assert exc.value.lineno == 4

    def test_duplicate_label_blamed_on_header(self):
        with pytest.raises(ParseError, match="duplicate") as exc:
            parse_split_text("K: a\nI: a\n")
        assert exc.value.lineno == 2

    @settings(max_examples=60, deadline=None)
    @given(split_graphs())
    def test_round_trip_property(self, S):
        assert parse_split_text(format_split_text(S)) == S


def _random_edge_set(n, rng):
    verts = [chr(ord("a") + t) for t in range(n)]
    edges = {
        frozenset({u, v})
        for u, v in combinations(verts, 2)
        if rng.random() < 0.5
    }
    return verts, edges


def _assert_recognition_agrees(verts, edges):
    """recognize_split against the exhaustive bipartition oracle."""
    partitions = brute_split_partitions(verts, edges)
    got = recognize_split([tuple(sorted(e)) for e in edges], verts)
    if not partitions:
        assert got is None
        return
    assert got is not None
    assert set(got.labels) == set(verts)
    reconstructed = {
        frozenset({a, b})
        for a in got.labels
        for b in brute_neighborhood(got, a)
    }
    assert reconstructed == edges
    assert got.k_size == max(len(K) for K, _ in partitions)


class TestRecognition:
    def test_exhaustive_small_graphs(self):
        # every graph on 4 vertices, then every graph on 5
        for n in (4, 5):
            verts = [chr(ord("a") + t) for t in range(n)]
            pairs = list(combinations(verts, 2))
            for code in range(1 << len(pairs)):
                edges = {
                    frozenset(pairs[t]) for t in range(len(pairs)) if code >> t & 1
                }
                _assert_recognition_agrees(verts, edges)

    def test_random_medium_graphs(self):
        rng = random.Random(9001)
        for _ in range(200):
            n = rng.randint(6, 8)
            verts, edges = _random_edge_set(n, rng)
            _assert_recognition_agrees(verts, edges)

    def test_five_cycle_is_not_split(self):
        cycle = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")]
        assert recognize_split(cycle) is None

    def test_complete_graph_is_all_clique(self):
        edges = list(combinations("abcd", 2))
        S = recognize_split(edges)
        assert S is not None
        assert set(S.clique) == set("abcd") and S.independent == ()

    def test_edgeless_graph(self):
        S = recognize_split([], vertices=["a", "b", "c"])
        assert S is not None
        assert S.k_size == 1 and set(S.independent) == {"b", "c"}

    def test_empty_input(self):
        S = recognize_split([])
        assert S is not None and S.labels == ()

    def test_swing_vertex_maximizes_clique(self):
        # a path a-b-c: both {a,b} and {b,c} work, never just {b}
        S = recognize_split([("a", "b"), ("b", "c")])
        assert S is not None and S.k_size == 2

    def test_loop_rejected(self):
        with pytest.raises(GraphError, match="loop"):
            recognize_split([("a", "a")])
