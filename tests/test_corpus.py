"""Instance corpora: exhaustive codes, seeded random streams, the PRNG."""

import pytest

from splitfactor import (
    CorpusSpec,
    GraphError,
    SplitGraph,
    corpus_size,
    generate,
    instance,
    instance_id,
    splitmix64,
)
from splitfactor.corpus import corpus_labels

from bruteforce import brute_instance

# Reference outputs of the underlying 64-bit mixer.  splitmix64(seed, c)
# must equal the (c+1)-th output of a stateful generator seeded with
# `seed`; the seed-0 and seed-1234567 streams below are the widely
# published test vectors for that generator.
SPLITMIX64_VECTORS = {
    0: [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
        0xF88BB8A8724C81EC,
    ],
    42: [0xBDD732262FEB6E95, 0x28EFE333B266F103, 0x47526757130F9F52],
    1234567: [6457827717110365317, 3203168211198807973, 9817491932198370423],
}


def test_splitmix64_reference_vectors():
    for seed, expected in SPLITMIX64_VECTORS.items():
        assert [splitmix64(seed, c) for c in range(len(expected))] == expected


def test_splitmix64_stays_in_64_bits():
    for c in range(2000):
        assert 0 <= splitmix64(2**64 - 1, c) < 2**64


class TestSpecValidation:
    def test_exhaustive_budget(self):
        CorpusSpec("exhaustive", 4, 5)  # 20 bits, at the cap
        with pytest.raises(GraphError, match="budget"):
            CorpusSpec("exhaustive", 5, 5)

    def test_unknown_mode(self):
        with pytest.raises(GraphError, match="mode"):
            CorpusSpec("all", 2, 2)

    def test_negative_sizes(self):
        with pytest.raises(GraphError, match="non-negative"):
            CorpusSpec("random", -1, 2)

    def test_random_count_floor(self):
        with pytest.raises(GraphError, match="count"):
            CorpusSpec("random", 2, 2, count=0)

    def test_random_width_cap(self):
        with pytest.raises(GraphError, match="63"):
            CorpusSpec("random", 64, 2)

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            (dict(mode="exhaustive", k_max=2.5, i_max=2), "k_max"),
            (dict(mode="exhaustive", k_max=2, i_max=True), "i_max"),
            (dict(mode="random", k_max=3, i_max=2, count=2.5), "count"),
            (dict(mode="random", k_max=3, i_max=2, seed="7"), "seed"),
            (dict(mode="random", k_max=3, i_max=2, seed=False), "seed"),
        ],
        ids=["float-k", "bool-i", "float-count", "str-seed", "bool-seed"],
    )
    def test_sizes_must_be_ints(self, kwargs, name):
        with pytest.raises(GraphError, match=f"{name} must be an int"):
            CorpusSpec(**kwargs)


class TestExhaustive:
    def test_size_is_two_to_the_bits(self):
        assert corpus_size(CorpusSpec("exhaustive", 2, 2)) == 16
        assert corpus_size(CorpusSpec("exhaustive", 3, 3)) == 512
        assert corpus_size(CorpusSpec("exhaustive", 4, 4)) == 65536

    def test_2x2_hits_every_neighborhood_code(self):
        seen = set()
        for _, S in generate(CorpusSpec("exhaustive", 2, 2)):
            assert S.clique == ("x1", "x2") and S.independent == ("y1", "y2")
            code = tuple(S.neighborhood(v) for v in S.independent)
            seen.add(code)
        subsets = [frozenset(), {"x1"}, {"x2"}, {"x1", "x2"}]
        assert seen == {(frozenset(a), frozenset(b)) for a in subsets for b in subsets}

    def test_instance_is_pure(self):
        spec = CorpusSpec("exhaustive", 3, 2)
        for idx in (0, 17, 63):
            assert instance(spec, idx) == instance(spec, idx)

    def test_index_range_checked(self):
        spec = CorpusSpec("exhaustive", 2, 2)
        with pytest.raises(GraphError, match="outside"):
            instance(spec, 16)
        with pytest.raises(GraphError, match="outside"):
            instance(spec, -1)

    def test_instance_ids(self):
        spec = CorpusSpec("exhaustive", 4, 4)
        assert instance_id(spec, 0) == "exhaustive-k4-i4-0"
        assert instance_id(spec, 65535) == "exhaustive-k4-i4-65535"


class TestRandom:
    def test_deterministic_stream(self):
        spec = CorpusSpec("random", 8, 8, count=30, seed=4242)
        first = [(i, S) for i, S in generate(spec)]
        second = [(i, S) for i, S in generate(spec)]
        assert first == second

    def test_different_seeds_differ(self):
        _, a = next(generate(CorpusSpec("random", 8, 8, count=1, seed=1)))
        _, b = next(generate(CorpusSpec("random", 8, 8, count=1, seed=2)))
        assert a != b

    def test_instance_id_carries_seed(self):
        spec = CorpusSpec("random", 8, 8, count=10, seed=99)
        assert instance_id(spec, 3) == "random-k8-i8-s99-3"

    def test_mean_degree_near_half_clique(self):
        # 8000 Bernoulli(1/2) draws of 8 bits each; 3 standard errors
        spec = CorpusSpec("random", 8, 8, count=1000, seed=4242)
        total = draws = 0
        for _, S in generate(spec):
            for v in S.independent:
                total += S.degree(v)
                draws += 1
        assert draws == 8000
        assert abs(total / draws - 4.0) < 0.048

    def test_generate_range_checked(self):
        spec = CorpusSpec("random", 4, 4, count=10)
        assert len(list(generate(spec, 2, 5))) == 3
        with pytest.raises(GraphError, match="range"):
            list(generate(spec, 5, 11))


def test_corpus_labels_shape():
    clique, independent = corpus_labels(3, 2)
    assert clique == ("x1", "x2", "x3")
    assert independent == ("y1", "y2")


def test_generated_graphs_are_valid():
    for _, S in generate(CorpusSpec("exhaustive", 2, 3)):
        assert isinstance(S, SplitGraph)
        assert S.k_size == 2 and len(S.independent) == 3


class TestInstanceOracle:
    """instance() builds from masks; the oracle rebuilds from labelled edges."""

    def test_exhaustive_3x3(self):
        spec = CorpusSpec("exhaustive", 3, 3)
        for index in range(corpus_size(spec)):
            assert instance(spec, index) == brute_instance(spec, index)

    def test_random_8x8(self):
        spec = CorpusSpec("random", 8, 8, count=10_000, seed=4242)
        for index in range(0, 10_000, 20):
            assert instance(spec, index) == brute_instance(spec, index)
