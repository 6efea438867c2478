"""Tests for deterministic RNG streams."""

import random
from itertools import accumulate

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.rng import DeterministicRng, derive_seed


class TestSeedDerivation:
    def test_stable_across_calls(self):
        assert derive_seed(42, "x") == derive_seed(42, "x")

    def test_label_separates_streams(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_seed_separates_streams(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")


class TestDeterminism:
    def test_same_seed_same_draws(self):
        a = DeterministicRng(7, "t")
        b = DeterministicRng(7, "t")
        assert [a.uniform() for _ in range(10)] == [
            b.uniform() for _ in range(10)
        ]

    def test_child_streams_independent_of_draw_order(self):
        parent1 = DeterministicRng(7)
        _ = [parent1.uniform() for _ in range(5)]
        child1 = parent1.stream("worker")

        parent2 = DeterministicRng(7)
        child2 = parent2.stream("worker")

        assert [child1.uniform() for _ in range(5)] == [
            child2.uniform() for _ in range(5)
        ]

    def test_different_children_differ(self):
        parent = DeterministicRng(7)
        a = parent.stream("a")
        b = parent.stream("b")
        assert [a.uniform() for _ in range(5)] != [
            b.uniform() for _ in range(5)
        ]


class TestDraws:
    def test_uniform_bounds(self):
        rng = DeterministicRng(1)
        for _ in range(100):
            assert 0.0 <= rng.uniform() < 1.0
            assert 2.0 <= rng.uniform(2.0, 3.0) <= 3.0

    def test_randint_inclusive(self):
        rng = DeterministicRng(1)
        draws = {rng.randint(1, 3) for _ in range(200)}
        assert draws == {1, 2, 3}

    def test_exponential_positive_and_mean(self):
        rng = DeterministicRng(1)
        draws = [rng.exponential(2.0) for _ in range(5000)]
        assert all(d >= 0 for d in draws)
        assert sum(draws) / len(draws) == pytest.approx(2.0, rel=0.1)

    def test_exponential_rejects_bad_mean(self):
        with pytest.raises(ValueError):
            DeterministicRng(1).exponential(0.0)

    def test_zipf_range(self):
        rng = DeterministicRng(1)
        draws = [rng.zipf_index(10, 1.0) for _ in range(500)]
        assert all(0 <= d < 10 for d in draws)

    def test_zipf_skew(self):
        rng = DeterministicRng(1)
        draws = [rng.zipf_index(100, 1.2) for _ in range(5000)]
        head = sum(1 for d in draws if d < 10)
        tail = sum(1 for d in draws if d >= 90)
        assert head > 5 * max(tail, 1)

    def test_choice_and_empty(self):
        rng = DeterministicRng(1)
        assert rng.choice([5]) == 5
        with pytest.raises(ValueError):
            rng.choice([])

    def test_weighted_choice_validates_lengths(self):
        rng = DeterministicRng(1)
        with pytest.raises(ValueError):
            rng.weighted_choice([1, 2], [1.0])

    def test_weighted_choice_respects_weights(self):
        rng = DeterministicRng(1)
        draws = [
            rng.weighted_choice(["a", "b"], [0.95, 0.05])
            for _ in range(1000)
        ]
        assert draws.count("a") > 800

    def test_shuffle_is_permutation(self):
        rng = DeterministicRng(1)
        items = list(range(20))
        shuffled = list(items)
        rng.shuffle(shuffled)
        assert sorted(shuffled) == items

    def test_sample_without_replacement(self):
        rng = DeterministicRng(1)
        sample = rng.sample_without_replacement(range(10), 5)
        assert len(set(sample)) == 5

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_any_seed_is_usable(self, seed):
        rng = DeterministicRng(seed)
        assert 0.0 <= rng.uniform() < 1.0


def scalar_zipf(draw, cdf):
    """The scalar inverse-CDF search: first index whose CDF reaches
    ``u``, never past the last index."""
    u = draw()
    lo, hi = 0, len(cdf) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if cdf[mid] < u:
            lo = mid + 1
        else:
            hi = mid
    return lo


class ScriptedRandom:
    """A stand-in for ``random.Random`` that replays fixed draws."""

    def __init__(self, values):
        self._values = iter(values)

    def random(self):
        return next(self._values)


class TestBulkDraws:
    """Bulk primitives equal ``k`` scalar draws on a twin stream."""

    @given(
        st.integers(min_value=0, max_value=2**64 - 1),
        st.lists(
            st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=6
        ),
        st.integers(min_value=0, max_value=300),
    )
    def test_weighted_indices_equal_scalar_choices(self, seed, weights, k):
        bulk = DeterministicRng(seed, "pick")
        scalar = DeterministicRng(seed, "pick")
        items = list(range(len(weights)))
        assert bulk.weighted_indices(list(accumulate(weights)), k) == [
            scalar.weighted_choice(items, weights) for _ in range(k)
        ]
        assert bulk.uniform() == scalar.uniform()  # streams still in step

    @given(
        st.integers(min_value=0, max_value=2**64 - 1),
        st.integers(min_value=1, max_value=500),
        st.sampled_from([0.5, 0.8, 1.0, 1.2]),
        st.integers(min_value=0, max_value=300),
    )
    def test_zipf_indices_equal_scalar_search(self, seed, n, alpha, k):
        bulk = DeterministicRng(seed, "zipf")
        scalar = DeterministicRng(seed, "zipf")
        twin = random.Random(bulk.seed)
        cdf = bulk._zipf_cdf(n, alpha)
        expected = [scalar_zipf(twin.random, cdf) for _ in range(k)]
        assert bulk.zipf_indices(n, alpha, k) == expected
        assert [scalar.zipf_index(n, alpha) for _ in range(k)] == expected

    def test_zipf_draw_above_cdf_tail_clamps_to_last_index(self):
        # Floating-point summation can leave cdf[-1] below 1.0; a draw
        # in that gap must still land on the last index.
        cdf = [0.25, 0.5, 0.75, 0.9]
        draws = [0.0, 0.25, 0.26, 0.9, 0.95, 0.9999999999999999]
        rng = DeterministicRng(1, "clamp")
        rng._zipf_cache = {(4, 1.0): cdf}
        rng._random = ScriptedRandom(draws)
        scripted = ScriptedRandom(draws)
        expected = [scalar_zipf(scripted.random, cdf) for _ in draws]
        assert expected == [0, 0, 1, 3, 3, 3]
        assert rng.zipf_indices(4, 1.0, len(draws)) == expected

    def test_randoms_equal_scalar_uniforms(self):
        bulk = DeterministicRng(5, "u")
        scalar = DeterministicRng(5, "u")
        assert bulk.randoms(50) == [scalar.uniform() for _ in range(50)]
