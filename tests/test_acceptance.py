"""Release gate: the eight acceptance criteria, one verdict line each.

Criteria 3 through 7 consume a shared pair of corpus sweeps (the full
exhaustive corpus at |K| = |I| = 4 and ten thousand seeded random
instances at |K| = |I| = 8); criteria 1, 2, 6 and 8 run their own
dedicated passes.  Every test prints exactly one `[criterion N]` line
so a release log shows the whole gate at a glance.
"""

import time

import pytest

from splitfactor import (
    CorpusSpec,
    SplitGraph,
    build_by_enumeration,
    build_by_formula,
    build_extremal,
    enumerate_induced_cycles,
    enumerate_induced_paths,
    enumerate_two_switches,
    generate,
    is_induced_path,
    sweep,
    verify_extremal,
)

from bruteforce import brute_induced_cycles, brute_induced_paths

EXHAUSTIVE_4X4 = CorpusSpec("exhaustive", 4, 4)
RANDOM_8X8 = CorpusSpec("random", 8, 8, count=10_000, seed=4242)

PAIR_LAWS = (
    "nesting-iff-zero",
    "equality-iff-zero-equal-degrees",
    "twins-equal-phi-rows",
    "simple-edge-balanced",
)
PATH_LAWS = (
    "path-max-at-ends",
    "path-inclusion-chain",
    "path-union-collapse",
    "path-parity-monotone",
    "path-min-at-tail",
    "p5-max-not-middle",
    "first-edge-divisible-by-union-excess",
    "first-edge-divisible-by-clique-excess",
    "union-sqrt-bound",
)
SIMPLE_EDGE_LAWS = (
    "simple-edges-terminal",
    "p4-no-simple-middle",
    "p3-pendant-difference",
    "p3-tail-decomposition",
    "p3-first-multiplicity",
)


@pytest.fixture(scope="session")
def corpus_sweeps():
    """Full verification sweep over both release corpora, run once."""
    out = {}
    for spec in (EXHAUSTIVE_4X4, RANDOM_8X8):
        start = time.perf_counter()
        out[spec.mode] = (sweep(spec), time.perf_counter() - start)
    return out


def _failed_check_names(corpus_sweeps):
    names = set()
    for summary, _ in corpus_sweeps.values():
        for _, failures in summary.failed:
            names.update(c.name for c in failures)
    return names


def _verdict(capsys, num, label, ok):
    with capsys.disabled():
        print(f"[criterion {num}] {label}: {'PASS' if ok else 'FAIL'}")


def test_criterion_1_worked_example(capsys):
    S = SplitGraph.from_neighborhoods(
        clique=["x", "y", "z", "t"],
        neighborhoods={"1": {"x"}, "2": {"y"}, "3": {"x", "z"}, "4": {"x", "y", "t"}},
    )
    build_by_formula(S)  # warm-up so the timed call measures work, not imports
    start = time.perf_counter()
    phi = build_by_formula(S)
    elapsed = time.perf_counter() - start

    exact = (
        phi.edges() == [("1", "2", 1), ("2", "3", 2), ("3", "4", 2)]
        and phi.size() == 5
        and len(enumerate_two_switches(S)) == 5
        and is_induced_path(phi, ("1", "2", "3", "4"))
    )
    ok = exact and elapsed < 1e-3
    _verdict(capsys, 1, "worked example reproduced exactly in under 1 ms", ok)
    assert exact, f"factor graph mismatch: {phi.edges()}, size {phi.size()}"
    assert elapsed < 1e-3, f"construction took {elapsed * 1e3:.3f} ms"


def test_criterion_2_builder_agreement(capsys):
    start = time.perf_counter()
    instances = mismatches = 0
    for spec in (EXHAUSTIVE_4X4, RANDOM_8X8):
        for _, S in generate(spec):
            instances += 1
            if build_by_formula(S) != build_by_enumeration(S):
                mismatches += 1
    elapsed = time.perf_counter() - start

    ok = instances == 75_536 and mismatches == 0 and elapsed < 60.0
    _verdict(
        capsys, 2,
        f"product formula and move counting agree on {instances} instances "
        f"in {elapsed:.1f} s", ok,
    )
    assert instances == 75_536
    assert mismatches == 0
    assert elapsed < 60.0, f"agreement pass took {elapsed:.1f} s"


def test_criterion_3_no_long_induced_cycles(capsys, corpus_sweeps):
    counted = sum(summary.instances for summary, _ in corpus_sweeps.values())
    bad = "cycle-length-bound" in _failed_check_names(corpus_sweeps)
    ok = counted == 75_536 and not bad
    _verdict(capsys, 3, "no induced cycle longer than 4 across both corpora", ok)
    assert ok, f"instances={counted}, cycle bound failed={bad}"


def test_criterion_4_path_laws(capsys, corpus_sweeps):
    failed = _failed_check_names(corpus_sweeps) & set(PATH_LAWS)
    ok = not failed
    _verdict(
        capsys, 4,
        "degree, inclusion, union, parity and divisibility laws hold on "
        "every induced path", ok,
    )
    assert ok, f"violated: {sorted(failed)}"


def test_criterion_5_simple_edge_laws(capsys, corpus_sweeps):
    failed = _failed_check_names(corpus_sweeps) & set(SIMPLE_EDGE_LAWS)
    ok = not failed
    _verdict(
        capsys, 5,
        "multiplicity-1 edges are terminal and the 3-path laws hold exactly", ok,
    )
    assert ok, f"violated: {sorted(failed)}"


def test_criterion_6_diameter_bound_and_sharpness(capsys, corpus_sweeps):
    family_ok = True
    detail = ""
    for n in range(1, 21):
        inst = build_extremal(n)
        results = verify_extremal(inst)
        phi = build_by_formula(inst.graph)
        sharp = (
            all(r.passed for r in results)
            and phi.size() == n
            and phi.diameter() == (n + 2) // 2 == (phi.size() + 2) // 2
        )
        if not sharp:
            family_ok = False
            detail = f"n={n}: " + "; ".join(r.line() for r in results if not r.passed)
            break
    corpus_ok = "diameter-bound" not in _failed_check_names(corpus_sweeps)
    ok = family_ok and corpus_ok
    _verdict(
        capsys, 6,
        "extremal family meets the diameter bound with equality for n=1..20 "
        "and the bound holds corpus-wide", ok,
    )
    assert family_ok, detail
    assert corpus_ok, "diameter bound violated on a corpus instance"


def test_criterion_7_pair_biconditionals(capsys, corpus_sweeps):
    failed = _failed_check_names(corpus_sweeps) & set(PAIR_LAWS)
    ok = not failed
    _verdict(
        capsys, 7,
        "zero-multiplicity and multiplicity-1 pair laws hold in both "
        "directions for every pair", ok,
    )
    assert ok, f"violated: {sorted(failed)}"


def test_criterion_8_enumerator_equivalence(capsys):
    spec = CorpusSpec("random", 6, 6, count=1000, seed=606)
    mismatches = instances = 0
    for _, S in generate(spec):
        instances += 1
        phi = build_by_formula(S)
        paths = set(enumerate_induced_paths(phi))
        cycles = set(enumerate_induced_cycles(phi))
        if paths != brute_induced_paths(phi):
            mismatches += 1
        elif cycles != brute_induced_cycles(phi):
            mismatches += 1
    ok = instances == 1000 and mismatches == 0
    _verdict(
        capsys, 8,
        "path and cycle enumerators match the brute-force filter on "
        "1000 instances", ok,
    )
    assert ok, f"instances={instances}, mismatches={mismatches}"


def test_corpus_sweeps_are_clean(corpus_sweeps):
    """Backstop: the shared sweeps must themselves be failure-free."""
    for mode, (summary, elapsed) in corpus_sweeps.items():
        assert summary.ok, (
            f"{mode}: {summary.failures} failing instances, "
            f"first: {summary.failed[0] if summary.failed else None}"
        )
        assert elapsed < 300.0, f"{mode} sweep took {elapsed:.0f} s"
    assert corpus_sweeps["exhaustive"][0].instances == 65_536
    assert corpus_sweeps["random"][0].instances == 10_000
