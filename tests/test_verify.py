"""Structural checks: enumerators, per-law verdicts, whole-instance reports."""

import multiprocessing
import random
from collections import Counter
from itertools import permutations, product

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
    build_by_enumeration,
    build_by_formula,
    check_cycle_bound,
    check_diameter_bound,
    check_paths,
    enumerate_induced_cycles,
    enumerate_induced_paths,
    instance,
    is_induced_cycle,
    is_induced_path,
    sweep,
    verify_all,
)
from splitfactor.verify import CYCLE_BOUND, DIAMETER_BOUND, _umbrella_free

from bruteforce import (
    PATH_LAW_NAMES,
    brute_diameter,
    brute_induced_cycles,
    brute_induced_paths,
    brute_is_induced,
    brute_path_laws,
    brute_umbrella,
)
from test_graph import split_graphs


def one_clique_vertex(labels):
    """A split graph whose independent set is ``labels``, all of degree 1."""
    return SplitGraph.from_neighborhoods(["x"], {v: {"x"} for v in labels})


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


def degree_order(S, phi):
    """phi's vertices by degree in S, largest first, ties by phi's index."""
    return sorted(phi.vertices, key=S.degree, reverse=True)


def fake_builders(monkeypatch, phi):
    """Make verify_all check ``phi`` in place of the factor graph of its input."""
    for name in ("build_by_formula", "build_by_enumeration"):
        monkeypatch.setattr(splitfactor.verify, name, lambda S: phi)


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

    def test_max_len_caps_enumeration(self, demo_graph):
        phi = build_by_formula(demo_graph)
        assert len(enumerate_induced_paths(phi, max_len=3)) == 5
        assert len(enumerate_induced_paths(phi, max_len=2)) == 3
        with pytest.raises(GraphError, match="max_len"):
            enumerate_induced_paths(phi, max_len=1)

    @pytest.mark.parametrize("max_len", [2.5, 3.0, "3", True])
    @pytest.mark.parametrize("run", [
        lambda S, max_len: enumerate_induced_paths(build_by_formula(S), max_len=max_len),
        lambda S, max_len: verify_all(S, max_len=max_len),
    ], ids=["enumerate_induced_paths", "verify_all"])
    def test_max_len_must_be_an_int(self, demo_graph, run, max_len):
        with pytest.raises(GraphError, match="max_len must be an int"):
            run(demo_graph, max_len)

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

    # paths written as label strings; witnesses depend on this exact order
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
        for max_len, expected in zip((2, 3, None), pinned):
            got = " ".join("".join(p) for p in enumerate_induced_paths(phi, max_len))
            assert got == expected

    def test_matches_bruteforce_on_random_multigraphs(self):
        rng = random.Random(4096)
        for _ in range(200):
            n = rng.randint(2, 6)
            phi = random_multigraph(rng, n, 0.4)
            got_paths = set(enumerate_induced_paths(phi))
            got_cycles = set(enumerate_induced_cycles(phi))
            assert got_paths == brute_induced_paths(phi, n)
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

    def test_mismatched_factor_graph_rejected(self, demo_graph):
        wrong = FactorGraph(("1", "2"), {("1", "2"): 1})
        with pytest.raises(GraphError, match="do not match"):
            check_paths(demo_graph, wrong, [("1", "2")])


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
    ]

    @pytest.mark.parametrize("law, neighborhoods, mults, witness", PINNED_WITNESSES)
    def test_pinned_witness(self, law, neighborhoods, mults, witness):
        labels = tuple(neighborhoods)
        S = SplitGraph.from_neighborhoods(
            sorted(set("".join(neighborhoods.values()))), neighborhoods
        )
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
        S = SplitGraph.from_neighborhoods(
            sorted(set("".join(neighborhoods.values()))), neighborhoods
        )
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
        assert all(line.endswith("PASS") for line in report.lines())

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

    def test_moves_enumerated_once(self, demo_graph, monkeypatch):
        import splitfactor.factor
        import splitfactor.switches

        calls = []
        real = splitfactor.switches.enumerate_two_switches

        def counted(S):
            calls.append(S)
            return real(S)

        for module in (splitfactor.factor, splitfactor.switches):
            monkeypatch.setattr(module, "enumerate_two_switches", counted)
        assert verify_all(demo_graph).ok
        assert len(calls) == 1

    def test_max_len_cap_still_passes(self, demo_graph):
        report = verify_all(demo_graph, max_len=3)
        assert report.ok and len(report.checks) == len(CHECK_NAMES)

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
            connected, value = brute_diameter(phi.underlying_simple())
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

    @pytest.mark.parametrize("S, phi", [
        (SplitGraph(["x", "y"], []), FactorGraph((), {})),
        (one_clique_vertex("abcd"), FactorGraph("abcd", {("a", "b"): 1, ("c", "d"): 1})),
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


class TestSweep:
    def test_exhaustive_2x2(self):
        summary = sweep(CorpusSpec("exhaustive", 2, 2))
        assert summary.instances == 16
        assert summary.ok and summary.failures == 0

    def test_random_mode_with_cap(self):
        spec = CorpusSpec("random", 8, 8, count=50, seed=7)
        summary = sweep(spec, max_len=4)
        assert summary.instances == 50 and summary.ok

    def test_parallel_matches_inline(self):
        spec = CorpusSpec("exhaustive", 4, 3)
        inline = sweep(spec, workers=1)
        parallel = sweep(spec, workers=2)
        assert inline == parallel
        assert inline.instances == 4096 and inline.ok

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="only forked workers see the patched builder",
    )
    def test_parallel_merges_failures_in_index_order(self, monkeypatch):
        # an empty enumeration phi wherever the first independent vertex sees x1 and x3
        def enumeration(S):
            if S.adj_masks[S.k_size] == 0b101:
                return FactorGraph(S.independent, {})
            return build_by_enumeration(S)

        monkeypatch.setattr(splitfactor.verify, "build_by_enumeration", enumeration)
        spec = CorpusSpec("exhaustive", 4, 3)
        inline = sweep(spec, workers=1)
        assert sweep(spec, workers=2) == inline
        assert inline.instances == 4096
        ids = [instance_id for instance_id, _ in inline.failed]
        assert len(ids) == 211
        assert ids == sorted(ids, key=lambda i: int(i.rsplit("-", 1)[1]))
