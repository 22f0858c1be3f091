"""Core graph type: construction invariants, text format, recognition."""

import copy
import pickle
import random
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from splitfactor import (
    CorpusSpec,
    FactorGraph,
    GraphError,
    ParseError,
    SplitGraph,
    build_by_formula,
    check_paths,
    enumerate_two_switches,
    format_split_text,
    generate,
    instance,
    is_induced_cycle,
    is_induced_path,
    parse_edge_list,
    parse_split_text,
    recognize_split,
)
from splitfactor.graph import bits

from bruteforce import brute_bits, brute_neighborhood, brute_split_partitions


# every split graph at sizes (k, i) as a hypothesis strategy; labels are
# x1.. and y1.., or distinct draws from ``labels`` when it is given
def split_graphs(k_max=4, i_max=4, labels=None):
    def build(draw):
        k = draw(st.integers(1, k_max))
        i = draw(st.integers(1, i_max))
        masks = draw(st.lists(st.integers(0, (1 << k) - 1), min_size=i, max_size=i))
        if labels is None:
            names = [f"x{j}" for j in range(1, k + 1)] + [f"y{j}" for j in range(1, i + 1)]
        else:
            names = draw(st.lists(labels, min_size=k + i, max_size=k + i, unique=True))
        clique = names[:k]
        nbhd = {
            names[k + j]: {clique[b] for b in range(k) if masks[j] >> b & 1}
            for j in range(i)
        }
        return SplitGraph.from_neighborhoods(clique, nbhd)

    return st.composite(build)()


# labels with dashes and quotes, many of them substrings of others; a
# fault's message quotes its labels, as in edge 'y1'-'y2' ...
AWKWARD_LABELS = st.sampled_from(["-", "'", "a", "aa", "a-", "-a", "a'", "b"])


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

    def test_unknown_first_endpoint_rejected(self):
        with pytest.raises(GraphError) as exc:
            SplitGraph(["x"], ["1"], [("q", "1")])
        assert str(exc.value) == "edge references unknown vertex 'q'"

    def test_duplicate_label_rejected(self):
        with pytest.raises(GraphError, match="duplicate"):
            SplitGraph(["x", "y"], ["x"])

    def test_bad_label_reported_before_duplicate(self):
        with pytest.raises(GraphError) as exc:
            SplitGraph(["x", "x"], [7])
        assert str(exc.value) == "vertex label must be a non-empty string, got 7"

    @pytest.mark.parametrize("edge, bad", [
        ((["a"], "b"), "['a']"),
        (("a", ["b"]), "['b']"),
        ((1, "b"), "1"),
    ], ids=["unhashable-first", "unhashable-second", "int"])
    def test_non_label_edge_end_rejected(self, edge, bad):
        with pytest.raises(GraphError) as exc:
            SplitGraph(["a"], ["b"], [edge])
        assert str(exc.value) == f"edge references unknown vertex {bad}"

    @pytest.mark.parametrize("item", ["ab", ("a", "b", "c"), 5], ids=["string", "triple", "int"])
    @pytest.mark.parametrize("build", [
        lambda item: SplitGraph(["a"], ["b"], [item]),
        lambda item: recognize_split([item]),
        lambda item: FactorGraph(("a", "b"), {item: 1}),
    ], ids=["SplitGraph", "recognize_split", "FactorGraph"])
    def test_non_pair_edge_rejected(self, build, item):
        with pytest.raises(GraphError) as exc:
            build(item)
        assert str(exc.value) == f"expected a pair of vertex labels, got {item!r}"

    @pytest.mark.parametrize("label", ["", "a b", "#tag", 7, None])
    def test_bad_labels_rejected(self, label):
        with pytest.raises(GraphError):
            SplitGraph([label], [])

    def test_immutable(self, demo_graph):
        with pytest.raises(AttributeError):
            demo_graph.k_size = 0

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda S: setattr(S, "_index", {}),
            lambda S: delattr(S, "adj_masks"),
            lambda S: delattr(S, "_index"),
        ],
        ids=["set-private", "del-public", "del-private"],
    )
    def test_immutable_sentinel_and_delete(self, demo_graph, mutate):
        # no field can be written or deleted after construction, private ones included
        with pytest.raises(AttributeError, match="SplitGraph is immutable"):
            mutate(demo_graph)
        assert demo_graph.index_of("1") == 4

    def test_init_called_again_writes_nothing(self, demo_graph):
        # a value is built and filled in __new__; the inherited __init__ writes nothing
        demo_graph.__init__(["a"], ["b"])
        assert demo_graph.clique == ("x", "y", "z", "t") and demo_graph.index_of("1") == 4

    @pytest.mark.parametrize(
        "k, clone",
        [
            pytest.param(k, clone, id=name if k is None else f"k{k}-{name}")
            for k in (None, 8, 12, 20)
            for name, clone in [
                ("pickle", lambda S: pickle.loads(pickle.dumps(S))),
                ("copy", copy.copy),
                ("deepcopy", copy.deepcopy),
            ]
        ],
    )
    def test_round_trips_past_the_guard(self, demo_graph, k, clone):
        # each rebuilds the graph from its fields, past the guard that refuses
        # every later write; beside the demo graph, a corpus graph with |K| = k
        # whose sibling has listed its moves, which leaves nothing behind in the graph
        if k is None:
            graph = demo_graph
        else:
            spec = CorpusSpec("random", k, 8, count=2, seed=1)
            enumerate_two_switches(instance(spec, 1))
            graph = instance(spec, 0)
        # the same graph built afresh, on which no move was ever listed
        unlisted = SplitGraph(graph.clique, graph.independent, graph.independent_edges())
        twin = clone(graph)
        assert twin == graph and twin is not graph
        assert twin.index_of(graph.independent[3]) == graph.index_of(graph.independent[3])
        assert pickle.dumps(graph) == pickle.dumps(twin) == pickle.dumps(unlisted)
        with pytest.raises(AttributeError):
            twin.k_size = 0

    def test_from_neighborhoods_matches_explicit_edges(self, demo_graph):
        explicit = SplitGraph(
            ["x", "y", "z", "t"],
            ["1", "2", "3", "4"],
            [("1", "x"), ("2", "y"), ("3", "x"), ("3", "z"),
             ("4", "x"), ("4", "y"), ("4", "t")],
        )
        assert explicit == demo_graph

    @pytest.mark.parametrize(
        "members", ["xy", "x", 5, None], ids=["str", "one-char-str", "int", "none"]
    )
    def test_from_neighborhoods_rejects_a_non_collection(self, members):
        # a string is not a set of labels, even of one-character ones
        with pytest.raises(GraphError, match="neighborhood of '1'"):
            SplitGraph.from_neighborhoods(["x", "y"], {"1": members})

    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda S: is_induced_path(build_by_formula(S), 5),
                     "expected a sequence of vertex labels, got 5", id="is_induced_path-int"),
        pytest.param(lambda S: is_induced_cycle(build_by_formula(S), None),
                     "expected a sequence of vertex labels, got None", id="is_induced_cycle-none"),
        pytest.param(lambda S: check_paths(S, paths=5),
                     "expected a collection of paths, got 5", id="check_paths-int"),
        pytest.param(lambda S: check_paths(S, paths=[5]),
                     "expected a sequence of vertex labels, got 5", id="check_paths-int-path"),
        pytest.param(lambda S: S.with_masks(None),
                     "expected a sequence of neighborhood masks, got None", id="with_masks-none"),
        pytest.param(lambda S: S.with_masks(iter([1, 2, 4, 8])),
                     "expected a sequence of neighborhood masks, got <list_iterator",
                     id="with_masks-iterator"),
        pytest.param(lambda S: recognize_split(5),
                     "expected a collection of edges, got 5", id="recognize_split-edges"),
        pytest.param(lambda S: recognize_split([("a", "b")], 5),
                     "expected a collection of vertex labels, got 5", id="recognize_split-vertices"),
        # a string is not a collection of labels, even of one-character ones
        pytest.param(lambda S: recognize_split([], "ab"),
                     "expected a collection of vertex labels, got 'ab'",
                     id="recognize_split-string-vertices"),
        pytest.param(lambda S: SplitGraph(["x"], ["1"], 5),
                     "expected a collection of edges, got 5", id="SplitGraph-edges"),
        pytest.param(lambda S: SplitGraph(5, ()),
                     "expected a collection of vertex labels, got 5", id="SplitGraph-int-clique"),
        pytest.param(lambda S: SplitGraph("ab", ()),
                     "expected a collection of vertex labels, got 'ab'",
                     id="SplitGraph-string-clique"),
        pytest.param(lambda S: SplitGraph(["x"], "ab"),
                     "expected a collection of vertex labels, got 'ab'",
                     id="SplitGraph-string-independent"),
        pytest.param(lambda S: FactorGraph(5, {}),
                     "expected a collection of vertex labels, got 5", id="FactorGraph-int"),
        pytest.param(lambda S: FactorGraph("ab", {}),
                     "expected a collection of vertex labels, got 'ab'", id="FactorGraph-string"),
    ])
    def test_non_collection_argument_rejected(self, demo_graph, call, message):
        with pytest.raises(GraphError) as exc:
            call(demo_graph)
        assert str(exc.value).startswith(message)

    @pytest.mark.parametrize("neighborhoods", [[("1", "x")], None], ids=["pairs", "none"])
    def test_from_neighborhoods_rejects_a_non_mapping(self, neighborhoods):
        with pytest.raises(GraphError) as exc:
            SplitGraph.from_neighborhoods(["x"], neighborhoods)
        assert str(exc.value) == f"neighborhoods must be a mapping, got {neighborhoods!r}"

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

    def test_repr_and_foreign_equality(self, demo_graph):
        assert repr(demo_graph) == "SplitGraph(|K|=4, |I|=4, edges=13)"
        assert demo_graph.__eq__(demo_graph.adj_masks) is NotImplemented


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

    @pytest.mark.parametrize("mask", [True, 1.0, "1", None], ids=["bool", "float", "str", "none"])
    def test_non_int_mask_rejected(self, demo_graph, mask):
        with pytest.raises(GraphError, match=f"mask {mask!r} of '3' must be an int"):
            demo_graph.with_masks([1, 2, mask, 0])


class TestBits:
    def test_every_mask_below_4096(self):
        # the table's 256 bytes, and wider masks whose low byte takes every value
        for mask in range(1 << 12):
            assert bits(mask) == tuple(brute_bits(mask))

    def test_seeded_wide_masks(self):
        # first masks whose non-zero bytes have empty bytes between them
        masks = [1 << 8 | 1 << 40, 1 << 8, 0xFF << 16 | 1 << 63, 1 << 7 | 1 << 64 | 1 << 71]
        rng = random.Random(80)
        masks += [rng.getrandbits(rng.randint(1, 80)) for _ in range(3000)]
        for mask in masks:
            assert bits(mask) == tuple(brute_bits(mask))

    @pytest.mark.parametrize("width, share", [(80, 0.02), (200, 0.01)])
    def test_sparse_wide_masks(self, width, share):
        # long runs of zero bytes, which the read jumps over, between few set bits,
        # the lowest at either end of a byte and the top bit at the mask's width
        rng = random.Random(width)
        masks = [1 << (width - 1) | 1 << 16, 1 << (width - 1) | 1 << 23, 1 << 16 | 1 << 255]
        for _ in range(2000):
            chosen = [b for b in range(width) if rng.random() < share]
            masks.append(sum(1 << b for b in chosen) | 1 << (width - 1))
        for mask in masks:
            assert bits(mask) == tuple(brute_bits(mask))

    def test_returns_a_tuple(self):
        assert bits(0) == ()
        assert bits(0b1010) == (1, 3)
        assert bits(1 << 200 | 1) == (0, 200)
        assert type(bits(5)) is tuple and type(bits(1 << 70)) is tuple


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

    def test_unhashable_label_is_unknown(self, demo_graph):
        with pytest.raises(GraphError) as exc:
            demo_graph.neighborhood(["x"])
        assert str(exc.value) == "unknown vertex ['x']"
        assert demo_graph.has_vertex(["x"]) is False

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

    def test_wrong_second_header(self):
        with pytest.raises(ParseError) as exc:
            parse_split_text("K: x\nx 1\n")
        assert exc.value.lineno == 2
        assert str(exc.value) == "line 2: expected 'I:' header, got 'x 1'"

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

    def test_edge_fault_blamed_on_its_line_not_on_a_quoted_label(self):
        # the message quotes 'y1'-'y2', which holds the quoted clique label '-'
        with pytest.raises(ParseError) as exc:
            parse_split_text("K: - x\nI: y1 y2\ny1 -\ny1 y2\n")
        assert str(exc.value) == "line 4: edge 'y1'-'y2' joins two independent-set vertices"

    @settings(max_examples=500, deadline=None)
    @given(split_graphs(3, 3, labels=AWKWARD_LABELS), st.data())
    def test_edge_fault_blamed_on_its_line_property(self, S, data):
        known = st.sampled_from(S.labels)
        kind = data.draw(st.sampled_from(["unknown", "loop", "independent"]))
        if kind == "unknown":
            stranger = data.draw(AWKWARD_LABELS.filter(lambda v: not S.has_vertex(v)))
            edge = data.draw(st.permutations([data.draw(known), stranger]))
        elif kind == "loop":
            edge = [data.draw(known)] * 2
        else:
            assume(len(S.independent) >= 2)
            edge = data.draw(
                st.lists(st.sampled_from(S.independent), min_size=2, max_size=2, unique=True)
            )
        with pytest.raises(GraphError) as expected:
            SplitGraph(S.clique, S.independent, [edge])
        lines = format_split_text(S).splitlines()
        at = data.draw(st.integers(2, len(lines)))  # anywhere after the headers
        lines.insert(at, " ".join(edge))
        with pytest.raises(ParseError) as exc:
            parse_split_text("\n".join(lines) + "\n")
        assert exc.value.lineno == at + 1
        assert str(exc.value) == f"line {at + 1}: {expected.value}"

    @pytest.mark.parametrize(
        "text, message, lineno",
        [
            ("K: x x\nI: 1\n", "duplicate vertex label: 'x'", 1),
            ("K: x #y\nI: 1\n", "may not start with '#'", 1),
            ("# comment\n\nK: x x\nI: 1\n1 x\n", "duplicate vertex label: 'x'", 3),
        ],
        ids=["duplicate", "hash", "after-comments"],
    )
    def test_bad_clique_label_blamed_on_k_line(self, text, message, lineno):
        with pytest.raises(ParseError, match=message) as exc:
            parse_split_text(text)
        assert exc.value.lineno == lineno

    def test_malformed_edge_line_before_bad_clique_label(self):
        with pytest.raises(ParseError, match="expected an edge line") as exc:
            parse_split_text("K: x x\nI: 1\n1\n")
        assert exc.value.lineno == 3

    def test_duplicate_label_blamed_on_header(self):
        with pytest.raises(ParseError, match="duplicate") as exc:
            parse_split_text("K: a\nI: a\n")
        assert exc.value.lineno == 2

    # characters that str.splitlines() breaks at but the text formats do not
    INLINE_BREAKS = ["\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028"]

    @pytest.mark.parametrize("sep", INLINE_BREAKS)
    def test_split_format_counts_lines_at_newlines_only(self, sep):
        with pytest.raises(ParseError) as exc:
            parse_split_text(f"K: x\nI: 1\n1 x{sep}1 q\n")
        assert str(exc.value) == f"line 3: expected an edge line 'u v', got {f'1 x{sep}1 q'!r}"
        assert parse_split_text(f"K: x{sep}y\nI: 1\n") == SplitGraph(["x", "y"], ["1"])

    @pytest.mark.parametrize("sep", INLINE_BREAKS)
    def test_edge_list_counts_lines_at_newlines_only(self, sep):
        with pytest.raises(ParseError) as exc:
            parse_edge_list(f"a b{sep}c c\n")
        assert str(exc.value) == f"line 1: expected an edge line 'u v', got {f'a b{sep}c c'!r}"
        with pytest.raises(ParseError, match="loop") as exc:
            parse_edge_list(f"V: a{sep}b\nc d\nc c\n")
        assert exc.value.lineno == 3
        assert parse_edge_list(f"V: a{sep}b\n") == (["a", "b"], [])

    @pytest.mark.parametrize("parse, text, message", [
        (parse_split_text, "K: x\r\nI: 1\r\n1 x\r\n1 q x\r\n",
         "line 4: expected an edge line 'u v', got '1 q x'"),
        (parse_edge_list, "a b\r\n\r\nc\r\n", "line 3: expected an edge line 'u v', got 'c'"),
    ], ids=["split-format", "edge-list"])
    def test_crlf_is_one_line_break(self, parse, text, message):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert str(exc.value) == message

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


def _random_split_edge_set(n, rng):
    """A split graph on n shuffled labels: a clique of random size, and each
    other vertex joined to a random subset of it."""
    verts = [chr(ord("a") + t) for t in range(n)]
    rng.shuffle(verts)
    k = rng.randint(0, n)
    clique, independent = verts[:k], verts[k:]
    edges = {frozenset(pair) for pair in combinations(clique, 2)}
    for v in independent:
        density = rng.random()
        edges |= {frozenset({v, x}) for x in clique if rng.random() < density}
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

    def test_random_larger_split_graphs_and_one_edge_flips(self):
        rng = random.Random(9011)
        for _ in range(120):
            verts, edges = _random_split_edge_set(rng.randint(9, 11), rng)
            assert recognize_split([tuple(e) for e in edges], verts) is not None
            _assert_recognition_agrees(verts, edges)
            flipped = frozenset(rng.sample(verts, 2))
            _assert_recognition_agrees(verts, edges ^ {flipped})

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

    def test_path_gets_a_maximum_clique(self):
        # a path a-b-c: both {a,b} and {b,c} work, never just {b}
        S = recognize_split([("a", "b"), ("b", "c")])
        assert S is not None and S.k_size == 2

    def test_loop_rejected(self):
        with pytest.raises(GraphError, match="loop"):
            recognize_split([("a", "a")])
