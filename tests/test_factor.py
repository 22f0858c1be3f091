"""Factor multigraph: the two builders, metrics, output formats."""

import random

import pytest
from hypothesis import given, settings

from splitfactor import (
    CorpusSpec,
    FactorGraph,
    GraphError,
    build_by_enumeration,
    build_by_formula,
    format_multiplicity_listing,
    generate,
    to_dot,
)

from bruteforce import brute_diameter
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

    def test_loop_query_rejected(self):
        phi = FactorGraph(("a", "b"), {("a", "b"): 1})
        with pytest.raises(GraphError, match="loop"):
            phi.multiplicity("a", "a")

    def test_neighbors_and_simple_view(self):
        phi = FactorGraph(("a", "b", "c"), {("a", "b"): 5, ("a", "c"): 1})
        assert phi.neighbors("a") == ("b", "c")
        assert phi.underlying_simple() == {
            "a": frozenset({"b", "c"}),
            "b": frozenset({"a"}),
            "c": frozenset({"a"}),
        }

    def test_immutable(self):
        phi = FactorGraph(("a",), {})
        with pytest.raises(AttributeError):
            phi.vertices = ()


class TestDiameter:
    def test_demo(self, demo_graph):
        summary = build_by_formula(demo_graph).diameter()
        assert summary.connected and summary.value == 3
        assert summary.component_diameters == (3,)
        assert not summary.empty

    def test_empty(self):
        summary = FactorGraph((), {}).diameter()
        assert summary.empty and summary.connected and summary.value == 0
        assert summary.component_diameters == ()

    def test_single_vertex(self):
        summary = FactorGraph(("a",), {}).diameter()
        assert summary.connected and summary.value == 0
        assert summary.component_diameters == (0,)

    def test_disconnected(self):
        phi = FactorGraph(("a", "b", "c", "d"), {("a", "b"): 1, ("c", "d"): 9})
        summary = phi.diameter()
        assert not summary.connected and summary.value is None
        assert summary.component_diameters == (1, 1)

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
            connected, value = brute_diameter(phi.underlying_simple())
            summary = phi.diameter()
            assert summary.connected == connected
            assert summary.value == value


class TestOutput:
    def test_multiplicity_listing(self, demo_graph):
        text = format_multiplicity_listing(build_by_formula(demo_graph))
        assert text == "1 2 1\n2 3 2\n3 4 2\n"

    def test_dot_frozen(self, demo_graph):
        assert to_dot(build_by_formula(demo_graph)) == DEMO_DOT

    def test_dot_custom_name(self):
        assert to_dot(FactorGraph((), {}), name="g") == "graph g {\n}\n"
