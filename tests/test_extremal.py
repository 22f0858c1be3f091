"""The diameter-extremal family."""

import pytest

import splitfactor.extremal
from splitfactor import (
    EXTREMAL_CHECK_NAMES,
    FactorGraph,
    GraphError,
    SplitGraph,
    build_by_formula,
    build_extremal,
    enumerate_induced_paths,
    expected_multiplicities,
    verify_extremal,
)
from splitfactor.extremal import ExtremalInstance

# multiplicities along the factor path, small members frozen by hand
EXPECTED_PATTERNS = {
    1: [1],
    2: [1, 1],
    3: [1, 2],
    4: [1, 2, 1],
    5: [1, 2, 2],
    6: [1, 2, 2, 1],
    7: [1, 2, 2, 2],
    8: [1, 2, 2, 2, 1],
}


def test_patterns_frozen():
    for n, pattern in EXPECTED_PATTERNS.items():
        assert expected_multiplicities(n) == pattern


def test_base_member():
    inst = build_extremal(1)
    assert inst.graph.clique == ("x1", "x2")
    assert inst.graph.independent == ("y1", "y2")
    assert inst.graph.neighborhood("y1") == {"x1"}
    assert inst.graph.neighborhood("y2") == {"x2"}
    assert inst.expected_factor == FactorGraph(("y1", "y2"), {("y1", "y2"): 1})
    assert inst.path_length == 1


def test_second_member():
    inst = build_extremal(2)
    assert inst.graph.independent == ("y1", "y2", "y3")
    assert inst.graph.neighborhood("y3") == {"x1"}
    assert build_by_formula(inst.graph) == inst.expected_factor
    assert inst.path_length == 2


def test_fifth_member_multiplicities():
    inst = build_extremal(5)
    phi = build_by_formula(inst.graph)
    ys = inst.graph.independent
    along = [phi.multiplicity(ys[t], ys[t + 1]) for t in range(len(ys) - 1)]
    assert along == [1, 2, 2]


def test_sizes_grow_with_the_induction():
    for n in range(1, 21):
        inst = build_extremal(n)
        assert inst.graph.k_size == 2 + (n - 1) // 2
        assert len(inst.graph.independent) == (n + 2) // 2 + 1


def test_family_verifies_through_n20():
    for n in range(1, 21):
        results = verify_extremal(build_extremal(n))
        assert [r.name for r in results] == list(EXTREMAL_CHECK_NAMES)
        bad = [r for r in results if not r.passed]
        assert bad == [], f"n={n}: {[r.line() for r in bad]}"


def test_diameter_meets_bound_exactly():
    for n in range(1, 21):
        inst = build_extremal(n)
        phi = build_by_formula(inst.graph)
        assert phi.size() == n
        assert phi.diameter() == (n + 2) // 2 == (phi.size() + 2) // 2
        # no induced path of phi(S) has more than |K| + 1 vertices, so the
        # diameter is at most |K| (the proof is in verify_all's docstring);
        # the family meets both bounds for even n
        k = inst.graph.k_size
        longest = max(map(len, enumerate_induced_paths(phi)))
        assert longest == (k + 1 if n % 2 == 0 else k)
        assert phi.diameter() == longest - 1 <= k


@pytest.mark.parametrize("bad", [0, -3, "x", 2.5, True])
def test_bad_index_rejected(bad):
    with pytest.raises(GraphError, match="n >= 1"):
        build_extremal(bad)


@pytest.mark.parametrize("bad", [0, -5, True, 2.5])
def test_expected_multiplicities_rejects_bad_index(bad):
    with pytest.raises(GraphError, match="n >= 1"):
        expected_multiplicities(bad)


def test_degree_witness_names_both_counts(monkeypatch):
    # the formula size stays n = 3 while the enumeration reports one move more
    real = splitfactor.extremal.enumerate_two_switches

    def one_extra(S):
        moves = real(S)
        return moves + moves[:1]

    monkeypatch.setattr(splitfactor.extremal, "enumerate_two_switches", one_extra)
    degree = verify_extremal(build_extremal(3))[0]
    assert degree.line() == (
        "CHECK extremal-switch-degree FAIL n=3; factor size 3, 4 enumerated moves"
    )


def _member_4_as(n):
    # the n = 4 graph (4 moves, a factor path of length 3) claimed as member n
    return ExtremalInstance(n, build_extremal(4).graph, build_extremal(n).expected_factor)


def _edgeless(n=3):
    # p sees all of K and q, r, s see none of it, so S has no 2-switch
    S = SplitGraph.from_neighborhoods(
        ["a", "b", "c"], {"p": {"a", "b", "c"}, "q": (), "r": (), "s": ()}
    )
    return ExtremalInstance(n, S, FactorGraph(S.independent, {}))


def _triangle_plus_edge():
    # y1, y2, y3 pairwise private and y4, y5 above all three: a triangle and an edge
    S = SplitGraph.from_neighborhoods(
        ["a", "b", "c", "d", "e"],
        {"y1": {"a"}, "y2": {"b"}, "y3": {"c"}, "y4": {"a", "b", "c", "d"},
         "y5": {"a", "b", "c", "e"}},
    )
    return ExtremalInstance(3, S, build_by_formula(S))


def _member_1_as(n):
    inst = build_extremal(1)
    return ExtremalInstance(n, inst.graph, inst.expected_factor)


@pytest.mark.parametrize("bad", [0, -3, True, 2.5, "x"])
@pytest.mark.parametrize("make", [_edgeless, _member_1_as], ids=["edgeless", "member-1"])
def test_verify_rejects_bad_index(make, bad):
    # rejected before any check, whether or not the factor graph is a path
    with pytest.raises(GraphError) as exc:
        verify_extremal(make(bad))
    assert str(exc.value) == f"extremal family is indexed by integers n >= 1, got {bad!r}"


def _reversed_member(n):
    # I listed from its far end, so the path is found against the pattern
    inst = build_extremal(n)
    S = inst.graph
    flipped = SplitGraph.from_neighborhoods(
        S.clique, {y: S.neighborhood(y) for y in reversed(S.independent)}
    )
    expected = FactorGraph(
        flipped.independent, {(u, v): m for u, v, m in inst.expected_factor.edges()}
    )
    return ExtremalInstance(n, flipped, expected)


@pytest.mark.parametrize(
    "make, lines",
    [
        (
            lambda: _member_4_as(3),
            [
                "CHECK extremal-switch-degree FAIL n=3; factor size 4, 4 enumerated moves",
                "CHECK extremal-path-shape FAIL n=3; factor graph is not a path of length 2",
                "CHECK extremal-multiplicity-pattern FAIL n=3; multiplicities along the path are off",
                "CHECK extremal-factor-exact FAIL n=3; recomputed factor differs from construction",
                "CHECK extremal-diameter-sharp FAIL n=3; diameter 3, bound 3, want 2",
            ],
        ),
        (
            lambda: _member_4_as(5),
            [
                "CHECK extremal-switch-degree FAIL n=5; factor size 4, 4 enumerated moves",
                "CHECK extremal-path-shape PASS",
                "CHECK extremal-multiplicity-pattern FAIL n=5; multiplicities along the path are off",
                "CHECK extremal-factor-exact FAIL n=5; recomputed factor differs from construction",
                "CHECK extremal-diameter-sharp PASS",
            ],
        ),
        (
            _edgeless,
            [
                "CHECK extremal-switch-degree FAIL n=3; factor size 0, 0 enumerated moves",
                "CHECK extremal-path-shape FAIL n=3; factor graph is not a path of length 2",
                "CHECK extremal-multiplicity-pattern FAIL n=3; multiplicities along the path are off",
                "CHECK extremal-factor-exact PASS",
                "CHECK extremal-diameter-sharp FAIL n=3; diameter None, bound 1, want 2",
            ],
        ),
        (
            lambda: _reversed_member(7),
            [f"CHECK {name} PASS" for name in EXTREMAL_CHECK_NAMES],
        ),
        (
            # two ends, no vertex of degree 3, and still no spanning path
            _triangle_plus_edge,
            [
                "CHECK extremal-switch-degree FAIL n=3; factor size 4, 4 enumerated moves",
                "CHECK extremal-path-shape FAIL n=3; factor graph is not a path of length 2",
                "CHECK extremal-multiplicity-pattern FAIL n=3; multiplicities along the path are off",
                "CHECK extremal-factor-exact PASS",
                "CHECK extremal-diameter-sharp FAIL n=3; diameter None, bound 3, want 2",
            ],
        ),
    ],
    ids=["member-4-as-3", "member-4-as-5", "edgeless-as-3", "member-7-reversed",
         "triangle-plus-edge-as-3"],
)
def test_every_witness_pinned(make, lines):
    results = verify_extremal(make())
    assert [r.line() for r in results] == lines
    assert all(r.note is None for r in results)


def test_reversed_member_walks_the_path_backwards():
    # the spanning path starts at I's first vertex, the far end of the pattern
    inst = _reversed_member(7)
    phi = build_by_formula(inst.graph)
    order = splitfactor.extremal._spanning_path(phi)
    along = [phi.multiplicity(a, b) for a, b in zip(order, order[1:])]
    assert along == expected_multiplicities(7)[::-1] != expected_multiplicities(7)


def test_large_member_verifies():
    # a factor path on 501 vertices has about 125,000 induced paths
    results = verify_extremal(build_extremal(1000))
    assert [r.name for r in results] == list(EXTREMAL_CHECK_NAMES)
    assert all(r.passed for r in results)
