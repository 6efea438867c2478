"""Tests for arrivals and deadline assignment."""

import pytest

from repro.util.rng import DeterministicRng
from repro.workloads.arrival import (
    DEADLINE_MULTIPLIERS,
    DeadlineClass,
    DeadlinePolicy,
    PoissonArrivals,
    saturation_interarrival,
)


class TestDeadlinePolicy:
    def test_paper_multipliers(self):
        # Section 6: tight 1.05 tw, moderate 2 tw, relaxed 3 tw.
        assert DEADLINE_MULTIPLIERS[DeadlineClass.TIGHT] == 1.05
        assert DEADLINE_MULTIPLIERS[DeadlineClass.MODERATE] == 2.0
        assert DEADLINE_MULTIPLIERS[DeadlineClass.RELAXED] == 3.0

    def test_default_mix_is_50_30_20(self):
        policy = DeadlinePolicy()
        classes = policy.assign(5000, DeterministicRng(1, "t"))
        tight = classes.count(DeadlineClass.TIGHT) / 5000
        moderate = classes.count(DeadlineClass.MODERATE) / 5000
        relaxed = classes.count(DeadlineClass.RELAXED) / 5000
        assert tight == pytest.approx(0.5, abs=0.05)
        assert moderate == pytest.approx(0.3, abs=0.05)
        assert relaxed == pytest.approx(0.2, abs=0.05)

    def test_assignment_is_deterministic(self):
        policy = DeadlinePolicy()
        a = policy.assign(20, DeterministicRng(9, "t"))
        b = policy.assign(20, DeterministicRng(9, "t"))
        assert a == b

    def test_bulk_assignment_matches_per_job_draws(self):
        policy = DeadlinePolicy(
            tight_fraction=0.45, moderate_fraction=0.35, relaxed_fraction=0.2
        )
        classes = list(DeadlineClass)
        weights = [0.45, 0.35, 0.2]
        scalar = DeterministicRng(3, "t")
        assert policy.assign(400, DeterministicRng(3, "t")) == [
            scalar.weighted_choice(classes, weights) for _ in range(400)
        ]

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError):
            DeadlinePolicy(tight_fraction=0.5, moderate_fraction=0.5,
                           relaxed_fraction=0.2)

    def test_autodown_eligibility(self):
        # Table 2: only moderate/relaxed jobs are auto-downgraded.
        assert not DeadlinePolicy.is_auto_downgradable(DeadlineClass.TIGHT)
        assert DeadlinePolicy.is_auto_downgradable(DeadlineClass.MODERATE)
        assert DeadlinePolicy.is_auto_downgradable(DeadlineClass.RELAXED)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            DeadlinePolicy().assign(-1, DeterministicRng(1, "t"))


class TestPoissonArrivals:
    def test_times_are_increasing(self):
        arrivals = PoissonArrivals(1.0, DeterministicRng(1, "t"))
        times = arrivals.times(100)
        assert all(t2 > t1 for t1, t2 in zip(times, times[1:]))

    def test_mean_gap_approximates_parameter(self):
        arrivals = PoissonArrivals(0.5, DeterministicRng(1, "t"))
        times = arrivals.times(5000)
        mean_gap = times[-1] / 5000
        assert mean_gap == pytest.approx(0.5, rel=0.1)

    def test_stream_matches_times(self):
        a = PoissonArrivals(1.0, DeterministicRng(3, "t"))
        b = PoissonArrivals(1.0, DeterministicRng(3, "t"))
        stream = b.stream()
        expected = a.times(10)
        observed = [next(stream) for _ in range(10)]
        assert observed == pytest.approx(expected)

    def test_start_offset(self):
        arrivals = PoissonArrivals(1.0, DeterministicRng(1, "t"))
        times = arrivals.times(5, start=100.0)
        assert all(t > 100.0 for t in times)

    def test_invalid_mean(self):
        with pytest.raises(ValueError):
            PoissonArrivals(0.0, DeterministicRng(1, "t"))


class TestSaturationInterarrival:
    def test_paper_rate(self):
        # 4 cores x 128 CMPs = 512 arrivals per job wall-clock time.
        assert saturation_interarrival(1.0) == pytest.approx(1 / 512)

    def test_scales_with_fleet(self):
        assert saturation_interarrival(
            2.0, cores_per_cmp=2, cmp_count=4
        ) == pytest.approx(0.25)
