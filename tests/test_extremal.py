"""The diameter-extremal family."""

import pytest

import splitfactor.extremal
from splitfactor import (
    EXTREMAL_CHECK_NAMES,
    FactorGraph,
    GraphError,
    build_by_formula,
    build_extremal,
    expected_multiplicities,
    verify_extremal,
)

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
        summary = phi.diameter()
        assert phi.size() == n
        assert summary.connected
        assert summary.value == (n + 2) // 2 == (phi.size() + 2) // 2


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


def test_large_member_verifies():
    # a factor path on 501 vertices has about 125,000 induced paths
    results = verify_extremal(build_extremal(1000))
    assert [r.name for r in results] == list(EXTREMAL_CHECK_NAMES)
    assert all(r.passed for r in results)
