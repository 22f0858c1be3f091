"""Structural checks: enumerators, per-law verdicts, whole-instance reports."""

import hashlib
import multiprocessing
import random
from collections import Counter
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings

import splitfactor.verify
from splitfactor import (
    CHECK_NAMES,
    CheckResult,
    CorpusSpec,
    FactorGraph,
    GraphError,
    SplitGraph,
    build_by_formula,
    check_cycle_bound,
    check_diameter_bound,
    check_paths,
    corpus_size,
    enumerate_induced_cycles,
    enumerate_induced_paths,
    instance,
    instance_id,
    is_induced_cycle,
    is_induced_path,
    sweep,
    verify_all,
)
from splitfactor.factor import switch_counts
from splitfactor.verify import (
    CYCLE_BOUND,
    DIAMETER_BOUND,
    DIV_CLIQUE,
    DIV_UNION,
    EQUALITY_IFF,
    NESTING_IFF,
    SIMPLE_BALANCED,
    SQRT_BOUND,
    TWIN_ROWS,
    _check_pairs,
    _Context,
    _umbrella_free,
)

from bruteforce import (
    PATH_LAW_NAMES,
    brute_diameter,
    brute_simple_view,
    brute_induced_cycles,
    brute_induced_paths,
    brute_is_induced,
    brute_pair_laws,
    brute_path_laws,
    brute_umbrella,
)
from test_graph import split_graphs


def one_clique_vertex(labels):
    """A split graph whose independent set is ``labels``, all of degree 1."""
    return SplitGraph.from_neighborhoods(["x"], {v: {"x"} for v in labels})


def one_letter_graph(neighborhoods):
    """A split graph from neighborhoods written as strings of one-letter
    clique labels, such as {"a": "xy"}; the clique is their union."""
    spelled = {v: set(members) for v, members in neighborhoods.items()}
    return SplitGraph.from_neighborhoods(sorted(set().union(*spelled.values())), spelled)


def ring(labels, m=1):
    pairs = {(labels[t], labels[(t + 1) % len(labels)]): m for t in range(len(labels))}
    return FactorGraph(labels, pairs)


def chain(labels, mults):
    pairs = {(labels[t], labels[t + 1]): mults[t] for t in range(len(labels) - 1)}
    return FactorGraph(labels, pairs)


def random_multigraph(rng, n, density):
    verts = tuple(f"v{t}" for t in range(n))
    mult = {
        (verts[a], verts[b]): rng.randint(1, 4)
        for a in range(n)
        for b in range(a + 1, n)
        if rng.random() < density
    }
    return FactorGraph(verts, mult)


def fabricated_pair(rng):
    """A split graph on 1-4 clique and 2-7 independent vertices with random
    neighbourhoods, and a random multigraph on its independent set drawn
    without regard to its factor graph.  Half of the multigraphs contain a
    path through every vertex, so long paths and the clique-excess premise
    occur."""
    n = rng.randint(2, 7)
    clique = [f"x{t}" for t in range(rng.randint(1, 4))]
    labels = tuple("abcdefg"[:n])
    S = SplitGraph.from_neighborhoods(
        clique, {v: {x for x in clique if rng.random() < 0.5} for v in labels}
    )
    order = list(labels)
    rng.shuffle(order)
    mult = {}
    if rng.random() < 0.5:
        for t in range(n - 1):
            mult[tuple(sorted(order[t:t + 2]))] = rng.choice((1, 1, 2, 3, 4))
    density = rng.random() * 0.6
    for a in range(n):
        for b in range(a + 1, n):
            if (labels[a], labels[b]) not in mult and rng.random() < density:
                mult[labels[a], labels[b]] = rng.randint(1, 4)
    return S, FactorGraph(labels, mult)


def nested_zero(rng, S):
    """A multigraph on S's independent set with multiplicity 0 exactly on
    the pairs with nested neighbourhoods, and 1-4 on every other pair."""
    nb = {v: S.neighborhood(v) for v in S.independent}
    return FactorGraph(S.independent, {
        (u, v): rng.randint(1, 4)
        for u, v in combinations(S.independent, 2)
        if not (nb[u] <= nb[v] or nb[v] <= nb[u])
    })


def degree_order(S, phi):
    """phi's vertices by degree in S, largest first, ties by phi's index."""
    return sorted(phi.vertices, key=S.degree, reverse=True)


def count_map(phi):
    """phi's positive multiplicities keyed (a, b), a < b, by vertex position:
    the count map ``switch_counts`` would return for a graph whose factor
    graph is phi."""
    return {(phi.index_of(u), phi.index_of(v)): m for u, v, m in phi.edges()}


def fake_builders(monkeypatch, phi):
    """Make verify_all check ``phi`` in place of the factor graph of its
    input, and count phi's multiplicities as its 2-switches."""
    monkeypatch.setattr(splitfactor.verify, "build_by_formula", lambda S: phi)
    monkeypatch.setattr(splitfactor.verify, "switch_counts", lambda S: count_map(phi))


def enumeration_one_move_short(monkeypatch):
    """Make verify_all's 2-switch count one move short on its first pair."""
    real = splitfactor.verify.switch_counts

    def one_move_short(S):
        counts = real(S)
        first = min(counts)
        counts[first] -= 1
        return {key: m for key, m in counts.items() if m}

    monkeypatch.setattr(splitfactor.verify, "switch_counts", one_move_short)


def spy(monkeypatch, owner, name):
    """Record the calls made to ``owner.name``, a module function or a method."""
    calls = []
    real = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def spy_searches(monkeypatch):
    """Spy on the two witness searches: induced-cycle enumeration and all-pairs BFS."""
    return (
        spy(monkeypatch, splitfactor.verify, "_induced_cycle_indices"),
        spy(monkeypatch, FactorGraph, "diameter"),
    )


class TestEnumerators:
    def test_demo_path_counts(self, demo_graph):
        phi = build_by_formula(demo_graph)
        paths = enumerate_induced_paths(phi)
        by_len = {}
        for p in paths:
            by_len[len(p)] = by_len.get(len(p), 0) + 1
        assert by_len == {2: 3, 3: 2, 4: 1}
        assert enumerate_induced_cycles(phi) == []

    def test_canonical_path_orientation(self, demo_graph):
        phi = build_by_formula(demo_graph)
        for p in enumerate_induced_paths(phi):
            assert phi.index_of(p[0]) < phi.index_of(p[-1])

    def test_tiny_vertex_sets(self):
        assert enumerate_induced_paths(FactorGraph((), {})) == []
        assert enumerate_induced_paths(FactorGraph(("a",), {})) == []
        assert enumerate_induced_cycles(FactorGraph(("a", "b"), {("a", "b"): 2})) == []

    def test_five_ring_has_one_canonical_cycle(self):
        cycles = enumerate_induced_cycles(ring(("a", "b", "c", "d", "e")))
        assert cycles == [("a", "b", "c", "d", "e")]

    def test_complete_graph_paths_are_edges_only(self):
        verts = ("a", "b", "c", "d")
        phi = FactorGraph(
            verts, {(u, v): 1 for u in verts for v in verts if u < v}
        )
        assert all(len(p) == 2 for p in enumerate_induced_paths(phi))
        assert len(enumerate_induced_paths(phi)) == 6
        assert all(len(c) == 3 for c in enumerate_induced_cycles(phi))

    # paths written as label strings, those of at most 2 and 3 vertices and
    # all of them; witnesses depend on this exact order
    PINNED_ORDERS = {
        "ring": (
            ring(tuple("abcde")),
            "ab ae bc cd de",
            "ab ae aed abc bc bcd bae cd cde de",
            "ab ae aed aedc abc abcd bc bcd bcde bae baed cd cde cbae de",
        ),
        "tree": (
            FactorGraph(tuple("caebdf"), {
                ("a", "b"): 1, ("b", "c"): 2, ("b", "d"): 1, ("d", "e"): 3, ("e", "f"): 1,
            }),
            "cb ab ed ef bd",
            "cb cba cbd ab abd ed ef edb bd def",
            "cb cba cbd cbde cbdef ab abd abde abdef ed ef edb bd bdef def",
        ),
        "mesh": (
            FactorGraph(tuple("fedcba"), {
                ("a", "b"): 1, ("b", "c"): 1, ("c", "d"): 2, ("d", "e"): 1,
                ("e", "f"): 1, ("f", "a"): 2, ("a", "d"): 1, ("b", "e"): 3,
            }),
            "fe fa ed eb dc da cb ba",
            "fe fa fad fab fed feb ed eb ebc eba edc eda efa dc da dab dcb deb cb cba cda ba",
            "fe fa fad fab fabc fadc fed feb febc fedc ed eb ebc eba edc eda efa dc da dab "
            "dcb deb cb cba cda ba",
        ),
    }

    @pytest.mark.parametrize("name", ["demo", *PINNED_ORDERS])
    def test_pinned_path_order(self, demo_graph, name):
        if name == "demo":
            phi = build_by_formula(demo_graph)
            pinned = ("12 23 34", "12 123 23 234 34", "12 123 1234 23 234 34")
        else:
            phi, *pinned = self.PINNED_ORDERS[name]
        paths = enumerate_induced_paths(phi)
        for most, expected in zip((2, 3, len(phi.vertices)), pinned):
            got = " ".join("".join(p) for p in paths if len(p) <= most)
            assert got == expected

    def test_matches_bruteforce_on_random_multigraphs(self):
        rng = random.Random(4096)
        for _ in range(200):
            n = rng.randint(2, 6)
            phi = random_multigraph(rng, n, 0.4)
            got_paths = set(enumerate_induced_paths(phi))
            got_cycles = set(enumerate_induced_cycles(phi))
            assert got_paths == brute_induced_paths(phi)
            assert got_cycles == brute_induced_cycles(phi)
            for p in got_paths:
                assert is_induced_path(phi, p)
            for c in got_cycles:
                assert is_induced_cycle(phi, c)


class TestValidators:
    def test_path_validator(self, demo_graph):
        phi = build_by_formula(demo_graph)
        assert is_induced_path(phi, ("1", "2", "3", "4"))
        assert is_induced_path(phi, ("4", "3", "2", "1"))
        assert not is_induced_path(phi, ("1", "3"))      # non-edge
        assert not is_induced_path(phi, ("1", "2", "2"))  # repeat
        assert not is_induced_path(phi, ("1",))           # too short

    def test_cycle_validator(self):
        phi = ring(("a", "b", "c", "d"))
        assert is_induced_cycle(phi, ("a", "b", "c", "d"))
        assert not is_induced_cycle(phi, ("a", "b", "c"))  # missing closing edge
        phi_chord = FactorGraph(
            ("a", "b", "c", "d"),
            {("a", "b"): 1, ("b", "c"): 1, ("c", "d"): 1, ("d", "a"): 1, ("a", "c"): 1},
        )
        assert not is_induced_cycle(phi_chord, ("a", "b", "c", "d"))

    @pytest.mark.parametrize("validator", [is_induced_path, is_induced_cycle])
    def test_string_is_not_a_vertex_sequence(self, demo_graph, validator):
        # "12" would otherwise read as the path 1-2
        with pytest.raises(GraphError) as exc:
            validator(build_by_formula(demo_graph), "12")
        assert str(exc.value) == "expected a sequence of vertex labels, got '12'"

    def test_unhashable_label_is_unknown(self, demo_graph):
        with pytest.raises(GraphError, match=r"unknown vertex \['2'\]"):
            is_induced_path(build_by_formula(demo_graph), ("1", ["2"]))

    def test_validators_match_pairwise_scan(self):
        rng = random.Random(2024)
        checked = 0
        for _ in range(200):
            phi = random_multigraph(rng, rng.randint(0, 5), rng.random())
            for length in range(6):
                for seq in product(phi.vertices, repeat=length):
                    assert is_induced_path(phi, seq) == brute_is_induced(phi, seq, False)
                    assert is_induced_cycle(phi, seq) == brute_is_induced(phi, seq, True)
                    checked += 1
        assert checked > 100_000


class TestPerPathChecks:
    def test_path_structure_demo(self, demo_graph):
        results = check_paths(demo_graph, paths=[("1", "2", "3", "4")])
        assert [r.name for r in results] == [
            "path-max-at-ends",
            "path-inclusion-chain",
            "path-union-collapse",
            "path-parity-monotone",
            "path-min-at-tail",
            "p5-max-not-middle",
            "first-edge-divisible-by-union-excess",
            "first-edge-divisible-by-clique-excess",
            "union-sqrt-bound",
            "simple-edges-terminal",
            "p4-no-simple-middle",
            "p3-pendant-difference",
            "p3-tail-decomposition",
            "p3-first-multiplicity",
        ]
        assert all(r.passed for r in results)

    def test_divisibility_demo(self, demo_graph):
        results = {r.name: r for r in check_paths(demo_graph)}
        for name in (
            "first-edge-divisible-by-union-excess",
            "first-edge-divisible-by-clique-excess",
            "union-sqrt-bound",
        ):
            assert results[name].passed

    @pytest.mark.parametrize("path", [
        ("1", "3"),
        ("2", "1", "4", "3"),
        ("2", "1", "4", "3", "2"),
    ], ids=["two-vertex-non-edge", "four-vertex-non-edge", "repeated-vertex"])
    def test_non_induced_sequence_rejected(self, demo_graph, path):
        with pytest.raises(GraphError, match=f"not an induced path: {' '.join(path)}"):
            check_paths(demo_graph, paths=[path])

    def test_string_path_rejected(self, demo_graph):
        with pytest.raises(GraphError) as exc:
            check_paths(demo_graph, paths=["123"])
        assert str(exc.value) == "expected a sequence of vertex labels, got '123'"

    def test_mismatched_factor_graph_rejected(self, demo_graph):
        wrong = FactorGraph(("1", "2"), {("1", "2"): 1})
        with pytest.raises(GraphError, match="do not match"):
            check_paths(demo_graph, wrong, [("1", "2")])

    def test_reordered_factor_graph_gives_same_verdicts(self):
        # the same multigraph with its vertices listed in another order must be
        # read by label: a check that took S's neighborhoods by position would
        # give them to the wrong vertices
        rng = random.Random(66)
        spec = CorpusSpec("random", 6, 6, count=200, seed=66)
        reordered_any = 0
        for index in range(200):
            S = instance(spec, index)
            phi = build_by_formula(S)
            order = list(phi.vertices)
            rng.shuffle(order)
            reordered_any += order != list(phi.vertices)
            shuffled = FactorGraph(order, {(u, v): m for u, v, m in phi.edges()})

            def verdicts(phi):
                results = [*check_paths(S, phi), check_cycle_bound(S, phi),
                           check_diameter_bound(S, phi)]
                return [(r.name, r.passed, r.note) for r in results]

            assert verdicts(shuffled) == verdicts(None) == verdicts(phi)
        assert reordered_any > 190


class TestFabricatedFailures:
    """Deliberately inconsistent inputs must produce FAIL verdicts with
    witnesses, not exceptions; this exercises the reporting machinery."""

    def test_cycle_bound_failure(self):
        labels = ("a", "b", "c", "d", "e")
        result = check_cycle_bound(one_clique_vertex(labels), ring(labels))
        assert not result.passed
        assert result.witness == "cycle a b c d e; length 5"
        assert result.line() == (
            "CHECK cycle-length-bound FAIL cycle a b c d e; length 5"
        )
        labels += ("f",)
        longer = check_cycle_bound(one_clique_vertex(labels), ring(labels))
        assert not longer.passed and "length 6" in longer.witness

    def test_cycle_bound_allows_short_cycles(self):
        for labels, m in ((("a", "b", "c"), 1), (("a", "b", "c", "d"), 3)):
            assert check_cycle_bound(one_clique_vertex(labels), ring(labels, m)).passed

    def test_cycle_bound_rejects_mismatched_factor_graph(self, demo_graph):
        wrong = FactorGraph(("1", "2"), {("1", "2"): 1})
        with pytest.raises(GraphError, match="do not match the independent set"):
            check_cycle_bound(demo_graph, wrong)

    def test_diameter_bound_rejects_mismatched_factor_graph(self):
        S = one_clique_vertex(("1", "2"))
        wrong = FactorGraph(("a", "b", "c"), {("a", "b"): 1})
        with pytest.raises(GraphError, match="do not match the independent set"):
            check_diameter_bound(S, wrong)

    def test_interior_simple_edge_failure(self, demo_graph):
        fake = chain(("1", "2", "3", "4"), (2, 1, 2))
        results = {r.name: r for r in check_paths(demo_graph, fake)}
        terminal = results["simple-edges-terminal"]
        assert not terminal.passed
        assert "interior edge 2 has multiplicity 1" in terminal.witness
        middle = results["p4-no-simple-middle"]
        assert not middle.passed and "valley degrees" in middle.witness

    def test_p5_middle_failure(self):
        S = SplitGraph.from_neighborhoods(
            ["x", "y", "z"],
            {"a": {"x"}, "b": {"y"}, "c": {"x", "y", "z"}, "d": {"y"}, "e": {"z"}},
        )
        fake = chain(("a", "b", "c", "d", "e"), (1, 1, 1, 1))
        result = {r.name: r for r in check_paths(S, fake)}["p5-max-not-middle"]
        assert not result.passed
        assert "middle degree equals the maximum" in result.witness

    def test_diameter_bound_failure(self, demo_graph):
        fake = chain(("1", "2", "3", "4"), (1, 1, 1))
        result = check_diameter_bound(demo_graph, phi=fake)
        assert not result.passed
        assert result.witness == "diameter 3 exceeds bound 2"

    # y1 lies inside y2 and y3, y4 are twins; its factor graph has size 6
    PAIR_GRAPH = {"y1": {"a"}, "y2": {"a", "b"}, "y3": {"c"}, "y4": {"c"}}

    def test_pair_law_witnesses(self, monkeypatch):
        S = SplitGraph.from_neighborhoods(["a", "b", "c"], self.PAIR_GRAPH)
        # y1-y2 and y3-y4 should be 0, y2-y3 should be 2
        fake = FactorGraph(S.independent, {
            ("y1", "y2"): 2, ("y1", "y3"): 1, ("y1", "y4"): 1, ("y2", "y3"): 1, ("y3", "y4"): 1,
        })
        monkeypatch.setattr(splitfactor.verify, "build_by_formula", lambda S: fake)
        assert verify_all(S).checks[2:6] == [
            CheckResult("nesting-iff-zero", False, "pair y2 y1", "neighborhood-equal-pairs=1"),
            CheckResult("equality-iff-zero-equal-degrees", False, "pair y3 y4"),
            CheckResult("twins-equal-phi-rows", False, "pair y3 y4"),
            CheckResult("simple-edge-balanced", False, "pair y2 y3"),
        ]

    def test_builder_law_witnesses(self, monkeypatch):
        S = SplitGraph.from_neighborhoods(["a", "b", "c"], self.PAIR_GRAPH)
        enumeration_one_move_short(monkeypatch)
        assert verify_all(S).checks[:2] == [
            CheckResult("builders-agree", False, "formula and enumeration builders disagree"),
            CheckResult("size-equals-switch-degree", False, "size 6 != switch degree 5"),
        ]

    # (law, neighborhoods of the path a b ... in order, chain multiplicities,
    # exact witness); the clique is the union of the neighborhoods.
    PINNED_WITNESSES = [
        ("path-max-at-ends", {"a": "x", "b": "x", "c": "xy", "d": "x", "e": "x"},
         (1, 1, 1, 1), "path a b c d e; max degree 2 only at interior positions"),
        ("path-inclusion-chain", {"a": "xy", "b": "y", "c": "xz"},
         (1, 1), "path a b c; positions 1 vs 3"),
        ("path-union-collapse", {"a": "xy", "b": "y", "c": "xz"},
         (1, 1), "path a b c; position 1 misses later neighbors"),
        ("path-parity-monotone", {"a": "xy", "b": "x", "c": "y", "d": "xy"},
         (1, 1, 1), "path a b c d; positions 2 vs 4"),
        ("path-min-at-tail", {"a": "xyz", "b": "x", "c": "xy", "d": "yz"},
         (1, 1, 1), "path a b c d; minimum not within last two positions"),
        ("first-edge-divisible-by-union-excess", {"a": "xy", "b": "zw"},
         (3,), "path a b; union excess 2 does not divide first multiplicity 3"),
        ("first-edge-divisible-by-union-excess", {"a": "xy", "b": "x"},
         (1,), "path a b; degenerate divisor (internal inconsistency)"),
        ("first-edge-divisible-by-clique-excess", {"a": "xy", "b": "zw"},
         (3,), "path a b; clique excess 2 does not divide first multiplicity 3"),
        ("first-edge-divisible-by-clique-excess", {"a": "xy", "b": "x"},
         (1,), "path a b; degenerate divisor (internal inconsistency)"),
        ("union-sqrt-bound", {"a": "xy", "b": "zw"},
         (2,), "path a b; union excess 2 exceeds sqrt of first multiplicity 2"),
        ("p3-pendant-difference", {"a": "xy", "b": "zw", "c": "xy"},
         (1, 1), "path a b c; head/tail private neighbors differ"),
        ("p3-tail-decomposition", {"a": "x", "b": "y", "c": "z"},
         (1, 1), "path a b c; tail neighborhood fails the pendant decomposition"),
        ("p3-first-multiplicity", {"a": "x", "b": "y", "c": "x"},
         (2, 1), "path a b c; first multiplicity differs from degree gap plus one"),
        ("p4-no-simple-middle", {"a": "x", "b": "xy", "c": "y", "d": "z"},
         (2, 1, 2), "path a b c d; simple middle edge, peak degrees"),
        ("p4-no-simple-middle", {"a": "x", "b": "xy", "c": "y", "d": "xyz"},
         (2, 1, 2), "path a b c d; simple middle edge, ascending degrees"),
        ("union-sqrt-bound", {"a": "xy", "b": "x"},
         (1,), "path a b; degenerate divisor (internal inconsistency)"),
        # single edges whose tail has the larger degree are named head first
        ("first-edge-divisible-by-union-excess", {"a": "xy", "b": "zwv"},
         (3,), "path b a; union excess 2 does not divide first multiplicity 3"),
        ("first-edge-divisible-by-union-excess", {"a": "x", "b": "xy"},
         (1,), "path b a; degenerate divisor (internal inconsistency)"),
        ("first-edge-divisible-by-clique-excess", {"a": "xy", "b": "zwv"},
         (3,), "path b a; clique excess 2 does not divide first multiplicity 3"),
        ("union-sqrt-bound", {"a": "xy", "b": "zwv"},
         (3,), "path b a; union excess 2 exceeds sqrt of first multiplicity 3"),
        # 3-vertex paths where only the reversed orientation meets the law's premise:
        # a b has the simple edge, or only c attains the maximum degree
        ("p3-pendant-difference", {"a": "xy", "b": "zw", "c": "xy"},
         (1, 2), "path c b a; head/tail private neighbors differ"),
        ("p3-tail-decomposition", {"a": "x", "b": "y", "c": "z"},
         (1, 2), "path c b a; tail neighborhood fails the pendant decomposition"),
        ("p3-first-multiplicity", {"a": "xyz", "b": "xy", "c": "x"},
         (1, 1), "path c b a; first multiplicity differs from degree gap plus one"),
        ("path-inclusion-chain", {"a": "x", "b": "y", "c": "yz"},
         (1, 1), "path c b a; positions 1 vs 3"),
    ]

    @pytest.mark.parametrize("law, neighborhoods, mults, witness", PINNED_WITNESSES)
    def test_pinned_witness(self, law, neighborhoods, mults, witness):
        labels = tuple(neighborhoods)
        S = one_letter_graph(neighborhoods)
        fake = chain(labels, mults)
        results = [*check_paths(S, fake, [labels]), *check_paths(S, fake)]
        assert CheckResult(law, False, witness) in results

    # On the chain a b c the induced paths come in the order a b, a b c, b c,
    # and a law keeps the witness of the first path that fails it.
    @pytest.mark.parametrize("neighborhoods, mults, witness", [
        ({"a": "x", "b": "yz", "c": "xw"}, (1, 3),
         "path c b a; union excess 2 does not divide first multiplicity 3"),
        ({"a": "yz", "b": "xw", "c": "x"}, (1, 3),
         "path a b; union excess 2 does not divide first multiplicity 1"),
    ], ids=["p3-before-p2", "p2-before-p3"])
    def test_first_failure_in_enumeration_order(self, monkeypatch, neighborhoods, mults, witness):
        S = one_letter_graph(neighborhoods)
        fake = chain(("a", "b", "c"), mults)
        expected = CheckResult("first-edge-divisible-by-union-excess", False, witness)
        assert expected in check_paths(S, fake)
        fake_builders(monkeypatch, fake)
        assert expected in verify_all(S).checks


    def test_path_laws_match_bruteforce_on_fabricated_pairs(self):
        rng = random.Random(2024)
        failures = Counter()
        for _ in range(2000):
            S, fake = fabricated_pair(rng)
            failed = brute_path_laws(S, fake, enumerate_induced_paths(fake))
            assert check_paths(S, fake) == [
                CheckResult(name, name not in failed, failed.get(name)) for name in PATH_LAW_NAMES
            ]
            failures.update(failed.keys())
        # every law fails somewhere, so each predicate meets inputs that break it
        assert set(failures) == set(PATH_LAW_NAMES)


class TestCheckResultFormatting:
    def test_pass_line_hides_witness(self):
        assert CheckResult("some-check", True, "noise").line() == "CHECK some-check PASS"

    def test_fail_line_shows_witness(self):
        assert CheckResult("some-check", False, "pair a b").line() == (
            "CHECK some-check FAIL pair a b"
        )


class TestVerifyAll:
    def test_demo_report(self, demo_graph):
        report = verify_all(demo_graph)
        assert report.instance == "splitgraph-k4-i4-e13"
        assert [c.name for c in report.checks] == list(CHECK_NAMES)
        assert report.ok and report.failures() == []

    def test_explicit_instance_name(self, demo_graph):
        assert verify_all(demo_graph, instance="demo").instance == "demo"

    def test_twin_neighborhoods_noted(self):
        S = SplitGraph.from_neighborhoods(["x", "y"], {"1": {"x"}, "2": {"x"}})
        report = verify_all(S)
        nesting = report.checks[2]
        assert nesting.name == "nesting-iff-zero"
        assert nesting.passed and nesting.note == "neighborhood-equal-pairs=1"

    def test_empty_independent_set(self):
        report = verify_all(SplitGraph(["x", "y"], []))
        assert report.ok
        diameter = report.checks[-1]
        assert diameter.note == "empty factor graph"

    def test_disconnected_factor_graph_noted(self):
        S = SplitGraph.from_neighborhoods(
            ["x", "y"], {"1": {"x"}, "2": {"x"}, "3": {"x", "y"}}
        )
        report = verify_all(S)
        assert report.ok
        diameter = report.checks[-1]
        assert diameter.note == "not applicable: disconnected"

    def test_moves_counted_once_and_never_listed(self, demo_graph, monkeypatch):
        import splitfactor.factor
        import splitfactor.switches
        import splitfactor.verify

        # the count map is the one 2-switch oracle; no move record or
        # private label tuple is built along the way
        calls = spy(monkeypatch, splitfactor.verify, "switch_counts")

        def forbidden(S):
            raise AssertionError("verify_all listed the moves")

        # also where a module would hold an imported copy of either lister
        for module in (splitfactor.factor, splitfactor.switches, splitfactor.verify):
            for name in ("enumerate_two_switches", "_private_label_pairs"):
                monkeypatch.setattr(module, name, forbidden, raising=False)
        assert verify_all(demo_graph).ok
        assert calls == [(demo_graph,)]

    def test_one_factor_graph_per_instance(self, demo_graph, monkeypatch):
        # the count map is compared with phi's own map, so the formula graph
        # is the only factor graph verify_all builds, passing or failing
        built = spy(monkeypatch, FactorGraph, "_new")
        spec = CorpusSpec("random", 8, 8, count=200, seed=4242)
        graphs = [demo_graph, *(instance(spec, i) for i in range(corpus_size(spec)))]
        for S in graphs:
            built.clear()
            assert verify_all(S).ok
            assert len(built) == 1
        enumeration_one_move_short(monkeypatch)
        built.clear()
        assert not verify_all(demo_graph).ok
        assert len(built) == 1

    @settings(max_examples=60, deadline=None)
    @given(split_graphs(k_max=5, i_max=5))
    def test_all_checks_hold_property(self, S):
        assert verify_all(S).ok


class TestCertificates:
    """check_cycle_bound decides by an umbrella-free degree order and
    check_diameter_bound by one connectivity search; each searches for a
    witness only when its certificate is missing."""

    CYCLE = CHECK_NAMES.index(CYCLE_BOUND)

    def test_umbrella_check_matches_bruteforce(self):
        rng = random.Random(5)
        for _ in range(300):
            phi = random_multigraph(rng, rng.randint(0, 7), rng.random())
            order = list(phi.vertices)
            rng.shuffle(order)
            found = _umbrella_free(phi.neighbor_masks(), [phi.index_of(v) for v in order])
            assert found == (brute_umbrella(phi, order) is None)
            if found:
                assert all(len(c) <= 4 for c in brute_induced_cycles(phi))

    @pytest.mark.parametrize("n", [5, 6])
    def test_long_rings_have_umbrellas_in_every_order(self, n):
        phi = ring(tuple("abcdef"[:n]))
        for order in permutations(range(n)):
            assert not _umbrella_free(phi.neighbor_masks(), order)

    @settings(max_examples=80, deadline=None)
    @given(split_graphs(k_max=5, i_max=6))
    def test_degree_order_is_umbrella_free_property(self, S):
        phi = build_by_formula(S)
        assert brute_umbrella(phi, degree_order(S, phi)) is None

    @pytest.mark.parametrize("spec, step", [
        (CorpusSpec("exhaustive", 3, 3), 1),
        (CorpusSpec("exhaustive", 4, 4), 13),
    ], ids=["exhaustive-3x3", "exhaustive-4x4-stride-13"])
    def test_results_match_oracles_without_cycle_enumeration(self, spec, step, monkeypatch):
        enumerations, _ = spy_searches(monkeypatch)
        for index in range(0, 1 << (spec.k_max * spec.i_max), step):
            S = instance(spec, index)
            phi = build_by_formula(S)
            checks = verify_all(S).checks
            assert all(len(c) <= 4 for c in brute_induced_cycles(phi))
            assert checks[self.CYCLE] == CheckResult(CYCLE_BOUND, True)
            connected, value = brute_diameter(brute_simple_view(phi))
            if not phi.vertices:
                expected = CheckResult(DIAMETER_BOUND, True, note="empty factor graph")
            elif not connected:
                expected = CheckResult(DIAMETER_BOUND, True, note="not applicable: disconnected")
            else:
                assert value <= (phi.size() + 2) // 2
                expected = CheckResult(DIAMETER_BOUND, True)
            assert checks[-1] == expected
        # the degree order of phi(S) never has an umbrella
        assert enumerations == []

    def test_certified_instance_runs_no_search(self, demo_graph, monkeypatch):
        # size 5 gives bound 3, and |I| - 1 = 3
        enumerations, bfs = spy_searches(monkeypatch)
        assert verify_all(demo_graph).ok
        assert check_cycle_bound(demo_graph).passed
        assert check_diameter_bound(demo_graph).passed
        assert enumerations == [] and bfs == []

    def test_verify_all_builds_the_multiplicity_table_once(self, demo_graph, monkeypatch):
        tables = spy(monkeypatch, FactorGraph, "multiplicity_table")
        assert verify_all(demo_graph).ok
        assert len(tables) == 1

    @pytest.mark.parametrize("S, phi", [
        (SplitGraph(["x", "y"], []), FactorGraph((), {})),
        (one_clique_vertex("abcd"), FactorGraph(tuple("abcd"), {("a", "b"): 1, ("c", "d"): 1})),
    ], ids=["empty", "disconnected"])
    def test_diameter_bound_skips_bfs_without_connected_phi(self, S, phi, monkeypatch):
        _, bfs = spy_searches(monkeypatch)
        assert check_diameter_bound(S, phi).passed
        assert bfs == []

    def test_five_ring_fails_by_enumeration(self, monkeypatch):
        labels = ("a", "b", "c", "d", "e")
        fake_builders(monkeypatch, ring(labels))
        enumerations, _ = spy_searches(monkeypatch)
        result = verify_all(one_clique_vertex(labels)).checks[self.CYCLE]
        assert result == CheckResult(CYCLE_BOUND, False, "cycle a b c d e; length 5")
        assert len(enumerations) == 1

    def test_umbrella_without_long_cycle_passes_by_enumeration(self, monkeypatch):
        # degrees a 4, d 3, b 2, c 1; with a-b an edge and d adjacent to neither,
        # a d b is an umbrella of the degree order
        S = SplitGraph.from_neighborhoods(
            ["w", "x", "y", "z"], {"a": set("wxyz"), "b": set("wx"), "c": {"w"}, "d": set("wxy")}
        )
        fake = chain(("a", "b", "c", "d"), (2, 2, 2))
        assert brute_umbrella(fake, degree_order(S, fake)) == ("a", "d", "b")
        enumerations, _ = spy_searches(monkeypatch)
        assert check_cycle_bound(S, fake) == CheckResult(CYCLE_BOUND, True)
        assert len(enumerations) == 1

    def test_diameter_over_bound_keeps_witness(self, demo_graph, monkeypatch):
        fake_builders(monkeypatch, chain(("1", "2", "3", "4"), (1, 1, 1)))
        result = verify_all(demo_graph).checks[-1]
        assert result == CheckResult(DIAMETER_BOUND, False, "diameter 3 exceeds bound 2")

    def test_diameter_passes_within_bound_by_bfs(self, demo_graph, monkeypatch):
        # a star of three simple edges: bound 2 < |I| - 1 = 3, but diameter 2
        star = FactorGraph(("1", "2", "3", "4"), {("1", "2"): 1, ("1", "3"): 1, ("1", "4"): 1})
        _, bfs = spy_searches(monkeypatch)
        assert check_diameter_bound(demo_graph, star) == CheckResult(DIAMETER_BOUND, True)
        assert len(bfs) == 1


def path_indices(phi, paths):
    return [tuple(map(phi.index_of, path)) for path in paths]


class TestShortPathCertificate:
    """verify_all checks the per-path laws on paths of 2 and 3 vertices only
    once a builder or pair law has failed; until then those laws decide them."""

    PASSING = [CheckResult(name, True) for name in PATH_LAW_NAMES]

    @pytest.mark.parametrize("spec", [
        CorpusSpec("exhaustive", 3, 3),
        CorpusSpec("exhaustive", 3, 4),
        CorpusSpec("exhaustive", 4, 4),
        CorpusSpec("random", 8, 8, count=2000, seed=4242),
    ], ids=["exhaustive-3x3", "exhaustive-3x4", "exhaustive-4x4", "random-8x8"])
    def test_short_path_laws_hold_on_corpus(self, spec):
        lengths = Counter()
        at_bound = 0
        for index in range(corpus_size(spec)):
            S = instance(spec, index)
            phi = build_by_formula(S)
            paths = enumerate_induced_paths(phi)
            # the bound proved in verify_all's docstring: a path has at most
            # one vertex more than the union of its neighbourhoods
            N = {v: S.neighborhood(v) for v in phi.vertices}
            room = [len(frozenset().union(*map(N.get, p))) + 1 - len(p) for p in paths]
            assert min(room, default=0) >= 0, instance_id(spec, index)
            at_bound += room.count(0)
            short = [p for p in paths if len(p) <= 3]
            lengths.update(map(len, short))
            assert check_paths(S, phi, short) == self.PASSING, instance_id(spec, index)
        assert lengths[2] and lengths[3] and at_bound

    def test_clean_instance_checks_only_long_paths(self, monkeypatch):
        calls = spy(monkeypatch, splitfactor.verify, "_check_path")
        spec = CorpusSpec("random", 8, 8, count=50, seed=4242)
        long_paths = 0
        for index in range(50):
            S = instance(spec, index)
            phi = build_by_formula(S)
            expected = path_indices(phi, [p for p in enumerate_induced_paths(phi) if len(p) >= 4])
            calls.clear()
            assert verify_all(S).ok
            assert [p for _, p in calls] == expected
            long_paths += len(expected)
        assert long_paths

    @pytest.mark.parametrize("patch", [
        "enumeration-builder", "pair-law", "formula-builder",
    ])
    def test_failed_law_checks_every_path(self, monkeypatch, patch):
        # the first instance of the release random 8x8 corpus, unless replaced
        S = instance(CorpusSpec("random", 8, 8, count=1, seed=4242), 0)
        phi, path_failures = None, []
        if patch == "enumeration-builder":
            enumeration_one_move_short(monkeypatch)
        elif patch == "pair-law":
            real = splitfactor.verify._check_pairs

            def failing(ctx):
                real(ctx)
                ctx.failed.setdefault(NESTING_IFF, "pair patched")

            monkeypatch.setattr(splitfactor.verify, "_check_pairs", failing)
        else:
            # the edge a b carries 2 * 2 = 4 moves
            S = SplitGraph.from_neighborhoods(list("wxyz"), {"a": set("xy"), "b": set("zw")})
            phi = chain(("a", "b"), (3,))
            monkeypatch.setattr(splitfactor.verify, "build_by_formula", lambda S: phi)
            path_failures = [
                CheckResult(DIV_UNION, False,
                            "path a b; union excess 2 does not divide first multiplicity 3"),
                CheckResult(DIV_CLIQUE, False,
                            "path a b; clique excess 2 does not divide first multiplicity 3"),
                CheckResult(SQRT_BOUND, False,
                            "path a b; union excess 2 exceeds sqrt of first multiplicity 3"),
            ]
        if phi is None:
            phi = build_by_formula(S)
        expected = check_paths(S, phi)
        calls = spy(monkeypatch, splitfactor.verify, "_check_path")
        checks = verify_all(S).checks
        assert [p for _, p in calls] == path_indices(phi, enumerate_induced_paths(phi))
        assert any(len(p) < 4 for _, p in calls)
        results = [c for c in checks if c.name in PATH_LAW_NAMES]
        assert results == expected
        assert [c for c in results if not c.passed] == path_failures


    def test_faked_builders_pass_short_paths_unchecked(self, monkeypatch):
        # the edge a b carries 2 * 2 = 4 moves; both builders claim 3, so the
        # builder and pair laws pass and the 2-vertex path is not checked
        S = SplitGraph.from_neighborhoods(list("wxyz"), {"a": set("xy"), "b": set("zw")})
        phi = chain(("a", "b"), (3,))
        fake_builders(monkeypatch, phi)
        assert verify_all(S).ok
        assert [c for c in check_paths(S, phi) if not c.passed] == [
            CheckResult(DIV_UNION, False,
                        "path a b; union excess 2 does not divide first multiplicity 3"),
            CheckResult(DIV_CLIQUE, False,
                        "path a b; clique excess 2 does not divide first multiplicity 3"),
            CheckResult(SQRT_BOUND, False,
                        "path a b; union excess 2 exceeds sqrt of first multiplicity 3"),
        ]


class TestPairCertificate:
    """verify_all decides the four pair laws in one pass over the I-pairs
    a < b, and the cycle law by nesting-iff-zero: the cycle check runs only
    when nesting does not hold."""

    @staticmethod
    def fabricated(seed, count):
        """fabricated_pair's (S, phi), with every other phi replaced by one
        that is zero exactly on S's nested pairs, so nesting-iff-zero holds."""
        rng = random.Random(seed)
        for t in range(count):
            S, phi = fabricated_pair(rng)
            yield S, nested_zero(rng, S) if t % 2 else phi

    def test_nesting_implies_equality_twins_and_cycle_bound(self):
        premise = Counter()
        for S, phi in self.fabricated(77, 600):
            failed, _ = brute_pair_laws(S, phi)
            if NESTING_IFF in failed:
                continue
            premise[any(phi.edges())] += 1
            assert EQUALITY_IFF not in failed and TWIN_ROWS not in failed
            assert check_cycle_bound(S, phi).passed
            assert all(len(c) <= 4 for c in brute_induced_cycles(phi))
        assert premise[True] > 100

    def test_one_pass_fails_exactly_when_a_pair_law_does(self):
        outcomes = Counter()
        for S, phi in self.fabricated(78, 2000):
            expected = brute_pair_laws(S, phi)
            ctx = _Context(S, phi)
            _check_pairs(ctx)
            assert (ctx.failed, ctx.notes) == expected
            failed = expected[0]
            outcomes[bool(failed), NESTING_IFF in failed] += 1
        # passing, failing nesting, and failing only the other pair laws all occur
        assert min(outcomes.values()) > 50 and len(outcomes) == 3

    def test_cycle_check_runs_only_on_failure(self, monkeypatch):
        cycles = spy(monkeypatch, splitfactor.verify, "_check_cycles")
        for spec in (CorpusSpec("exhaustive", 3, 3), CorpusSpec("random", 8, 8, count=300, seed=4242)):
            for index in range(corpus_size(spec)):
                assert verify_all(instance(spec, index)).ok
        assert cycles == []
        # a simple edge between unbalanced neighbourhoods fails only simple-edge-balanced
        S = SplitGraph.from_neighborhoods(list("xyz"), {"a": {"x"}, "b": {"y", "z"}})
        fake_builders(monkeypatch, chain(("a", "b"), (1,)))
        assert [c.name for c in verify_all(S).failures()] == [SIMPLE_BALANCED]
        assert cycles == []
        # twins joined by an edge fail nesting-iff-zero
        labels = tuple("abcde")
        fake_builders(monkeypatch, ring(labels))
        failures = verify_all(one_clique_vertex(labels)).failures()
        assert CheckResult(CYCLE_BOUND, False, "cycle a b c d e; length 5") in failures
        assert len(cycles) == 1


class TestSweep:
    def test_exhaustive_2x2(self):
        summary = sweep(CorpusSpec("exhaustive", 2, 2))
        assert summary.instances == 16
        assert summary.ok and summary.failures == 0

    def test_random_mode(self):
        spec = CorpusSpec("random", 8, 8, count=50, seed=7)
        summary = sweep(spec)
        assert summary.instances == 50 and summary.ok

    def test_parallel_matches_inline(self):
        spec = CorpusSpec("exhaustive", 4, 3)
        inline = sweep(spec, workers=1)
        parallel = sweep(spec, workers=2)
        assert inline == parallel
        assert inline.instances == 4096 and inline.ok

    def test_pool_no_larger_than_chunk_count(self, monkeypatch):
        sizes = []

        class InlinePool:
            """Records its size and maps in this process, so no process starts."""

            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, func, iterable, chunksize):
                return map(func, iterable)

        monkeypatch.setattr(multiprocessing, "Pool", InlinePool)
        # 4,096 instances cut into 16 chunks of 256
        spec = CorpusSpec("exhaustive", 4, 3)
        assert sweep(spec, workers=64) == sweep(spec, workers=1)
        assert sweep(spec, workers=2).instances == 4096
        assert sizes == [16, 2]

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="only forked workers see the patched builder",
    )
    def test_parallel_merges_failures_in_index_order(self, monkeypatch):
        # no 2-switch counted wherever the first independent vertex sees x1 and x3
        def counts(S):
            return {} if S.adj_masks[S.k_size] == 0b101 else switch_counts(S)

        monkeypatch.setattr(splitfactor.verify, "switch_counts", counts)
        spec = CorpusSpec("exhaustive", 4, 3)
        inline = sweep(spec, workers=1)
        assert sweep(spec, workers=2) == inline
        assert inline.instances == 4096
        ids = [instance_id for instance_id, _ in inline.failed]
        assert len(ids) == 211
        assert ids == sorted(ids, key=lambda i: int(i.rsplit("-", 1)[1]))

    @staticmethod
    def raise_on(monkeypatch, name, bad):
        """Make ``splitfactor.verify.<name>`` raise when ``bad`` is among its
        arguments; returns the calls' arguments, in call order."""
        real = getattr(splitfactor.verify, name)
        calls = []

        def flaky(*args, **kwargs):
            calls.append(args + tuple(kwargs.values()))
            if bad in calls[-1]:
                raise ZeroDivisionError("boom")
            return real(*args, **kwargs)

        monkeypatch.setattr(splitfactor.verify, name, flaky)
        return calls

    @pytest.mark.parametrize("name", ["verify_all", "instance"])
    def test_raising_instance_is_named_and_sweep_goes_on(self, monkeypatch, name):
        spec = CorpusSpec("exhaustive", 2, 2)
        # verify_all is given the instance id, instance() the index
        bad = instance_id(spec, 5) if name == "verify_all" else 5
        calls = self.raise_on(monkeypatch, name, bad)
        summary = sweep(spec)
        assert len(calls) == 16  # every instance is still verified
        assert summary.instances == 16 and summary.failures == 1
        failure = CheckResult("internal-error", False, "ZeroDivisionError: boom")
        assert summary.failed == ((instance_id(spec, 5), (failure,)),)
        assert failure.line() == "CHECK internal-error FAIL ZeroDivisionError: boom"

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="only forked workers see the patched check",
    )
    def test_pooled_sweep_names_a_raising_instance(self, monkeypatch):
        spec = CorpusSpec("exhaustive", 4, 3)
        self.raise_on(monkeypatch, "verify_all", instance_id(spec, 3000))
        pooled = sweep(spec, workers=2)
        assert pooled == sweep(spec, workers=1)
        assert pooled.instances == 4096
        assert [i for i, _ in pooled.failed] == [instance_id(spec, 3000)]
        assert pooled.failed[0][1][0].name == "internal-error"


def report_digest(reports):
    """SHA-256 over every check's name, verdict, witness and note, in order."""
    digest = hashlib.sha256()
    for report in reports:
        for c in report.checks:
            digest.update(repr((c.name, c.passed, c.witness, c.note)).encode())
    return digest.hexdigest()


def fabricated_reports(monkeypatch):
    """verify_all on 3,000 fabricated (S, phi) pairs, both builders faked."""
    rng = random.Random(2025)
    for _ in range(3000):
        S, phi = fabricated_pair(rng)
        fake_builders(monkeypatch, phi)
        yield verify_all(S)


class TestPinnedDigest:
    """verify_all's results on three input sets, pinned by digests taken
    before the pair and cycle certificates were added: a changed verdict,
    witness or note on any of them changes its digest."""

    @pytest.mark.parametrize("inputs, expected", [
        ("exhaustive-3x3", "d61cc190f434f5fa0d15e715917f2bf1ce1ba275f90bde11b51c8dceb04ffdfd"),
        ("random-8x8-every-fifth",
         "307d7a187a2b9e19bde3f758b7c74a8ddbd1067b4ff07571a91c25f317075daf"),
        ("fabricated", "de207891a96066a8794dacfd37c456ce87c59e83f839a5a6a2516a676e9f61ad"),
    ])
    def test_digest(self, monkeypatch, inputs, expected):
        if inputs == "fabricated":
            reports = fabricated_reports(monkeypatch)
        else:
            spec, step = {
                "exhaustive-3x3": (CorpusSpec("exhaustive", 3, 3), 1),
                "random-8x8-every-fifth": (CorpusSpec("random", 8, 8, count=10_000, seed=4242), 5),
            }[inputs]
            reports = (verify_all(instance(spec, i)) for i in range(0, corpus_size(spec), step))
        assert report_digest(reports) == expected
