"""Tests for miss-ratio-curve profiling."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.verify.oracle import simulated_miss_rates
from repro.workloads.benchmarks import BENCHMARKS, BenchmarkProfile
from repro.workloads.profiler import (
    MissRatioCurve,
    clear_curve_cache,
    get_curve,
    measure_miss_rates,
    profile_benchmark,
)


def small_curve(points=None, h2=0.02):
    return MissRatioCurve(
        benchmark="x",
        l2_accesses_per_instruction=h2,
        points=points if points is not None else {1: 0.8, 4: 0.4, 8: 0.2, 16: 0.1},
    )


class TestMissRatioCurve:
    def test_zero_ways_misses_always(self):
        assert small_curve().miss_rate(0) == 1.0

    def test_interpolation_between_points(self):
        curve = small_curve({4: 0.4, 8: 0.2})
        assert curve.miss_rate(6) == pytest.approx(0.3)

    def test_exact_points_returned(self):
        curve = small_curve()
        assert curve.miss_rate(4) == pytest.approx(0.4)

    def test_clamps_beyond_range(self):
        curve = small_curve()
        assert curve.miss_rate(100) == pytest.approx(0.1)

    def test_mpi_scales_by_h2(self):
        curve = small_curve(h2=0.05)
        assert curve.mpi(4) == pytest.approx(0.4 * 0.05)

    def test_monotone_enforced(self):
        # A noisy inversion is smoothed to non-increasing.
        curve = small_curve({1: 0.5, 2: 0.6, 3: 0.3})
        assert curve.miss_rate(2) <= curve.miss_rate(1)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            small_curve({1: 1.5})

    def test_miss_increase_fraction(self):
        curve = small_curve({4: 0.4, 8: 0.2})
        assert curve.miss_increase_fraction(8, 4) == pytest.approx(1.0)

    def test_min_ways_for_miss_rate(self):
        curve = small_curve()
        assert curve.min_ways_for_miss_rate(0.4) == 4
        assert curve.min_ways_for_miss_rate(0.05) is None

    @given(
        st.floats(min_value=0.0, max_value=20.0),
        st.floats(min_value=0.0, max_value=20.0),
    )
    def test_interpolated_curve_is_monotone(self, a, b):
        curve = small_curve()
        low, high = sorted((a, b))
        assert curve.miss_rate(high) <= curve.miss_rate(low) + 1e-12


class TestProfiling:
    @pytest.fixture(scope="class")
    def gobmk_curve(self):
        return profile_benchmark(
            BENCHMARKS["gobmk"],
            ways_list=(1, 2, 4, 8),
            num_sets=32,
            accesses=6_000,
            warmup=2_000,
        )

    def test_profile_produces_requested_points(self, gobmk_curve):
        assert set(gobmk_curve.points) == {0, 1, 2, 4, 8}

    def test_rates_in_unit_interval(self, gobmk_curve):
        assert all(0.0 <= r <= 1.0 for r in gobmk_curve.points.values())

    def test_insensitive_benchmark_is_flat(self, gobmk_curve):
        # gobmk's whole point: more ways barely help.
        assert gobmk_curve.miss_rate(2) - gobmk_curve.miss_rate(8) < 0.15

    def test_sensitive_benchmark_improves_with_ways(self):
        curve = profile_benchmark(
            BENCHMARKS["bzip2"],
            ways_list=(1, 8),
            num_sets=32,
            accesses=6_000,
            warmup=2_000,
        )
        assert curve.miss_rate(1) > curve.miss_rate(8) + 0.2

    def test_profiling_is_deterministic(self):
        kwargs = dict(
            ways_list=(2,), num_sets=16, accesses=2_000, warmup=500
        )
        a = profile_benchmark(BENCHMARKS["hmmer"], **kwargs)
        b = profile_benchmark(BENCHMARKS["hmmer"], **kwargs)
        assert a.points == b.points

    def test_invalid_ways_rejected(self):
        with pytest.raises(ValueError):
            profile_benchmark(
                BENCHMARKS["hmmer"], ways_list=(0,), num_sets=16,
                accesses=100, warmup=0,
            )


class TestInputChecks:
    """The one-pass profiler rejects and accepts what the per-way loop did."""

    def test_nonpositive_ways_rejected_before_generation(self, monkeypatch):
        def no_generation(_profile):
            raise AssertionError("generated a trace before checking ways")

        monkeypatch.setattr(BenchmarkProfile, "make_generator", no_generation)
        for ways_list in ((4, 0), (-1,), (8, 2, -3)):
            with pytest.raises(ValueError, match="ways must be positive"):
                measure_miss_rates(
                    BENCHMARKS["hmmer"], ways_list=ways_list, num_sets=16,
                    accesses=100, warmup=0,
                )

    @pytest.mark.parametrize(
        "geometry", [dict(num_sets=24), dict(num_sets=0), dict(block_bytes=48)]
    )
    def test_non_power_of_two_geometry_rejected(self, geometry):
        kwargs = dict(ways_list=(1, 2), num_sets=16, block_bytes=64)
        kwargs.update(geometry)
        with pytest.raises(ValueError):
            measure_miss_rates(
                BENCHMARKS["hmmer"], accesses=100, warmup=0, **kwargs
            )

    def test_empty_ways_list_returns_empty(self):
        assert measure_miss_rates(
            BENCHMARKS["hmmer"], ways_list=(), num_sets=16, accesses=100
        ) == {}

    def test_unsorted_and_duplicate_ways_match_the_per_way_loop(self):
        kwargs = dict(
            ways_list=(8, 2, 8, 5, 2, 1), num_sets=16, accesses=1_000,
            warmup=500,
        )
        profile = BENCHMARKS["bzip2"]
        points = measure_miss_rates(profile, **kwargs)
        oracle = simulated_miss_rates(profile, backend="reference", **kwargs)
        assert points == oracle
        assert list(points) == list(oracle) == [8, 2, 5, 1]


class TestStackDistanceExactness:
    """One stack-distance pass equals a real cache at every way count."""

    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_every_profile_matches_the_reference_kernel(self, name):
        kwargs = dict(num_sets=16, accesses=1_000, warmup=3_000)
        assert measure_miss_rates(
            BENCHMARKS[name], **kwargs
        ) == simulated_miss_rates(
            BENCHMARKS[name], backend="reference", **kwargs
        )

    @settings(max_examples=30, deadline=None)
    @given(
        name=st.sampled_from(sorted(BENCHMARKS)),
        ways_list=st.lists(
            st.integers(min_value=1, max_value=24), min_size=1, max_size=6
        ),
        num_sets=st.sampled_from([1, 2, 4, 8, 16, 32, 64, 128]),
        warmup=st.integers(min_value=0, max_value=1_500),
        accesses=st.integers(min_value=1, max_value=1_500),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_any_sizing_matches_the_reference_kernel(
        self, name, ways_list, num_sets, warmup, accesses, seed
    ):
        kwargs = dict(
            ways_list=ways_list, num_sets=num_sets, warmup=warmup,
            accesses=accesses, seed=seed,
        )
        assert measure_miss_rates(
            BENCHMARKS[name], **kwargs
        ) == simulated_miss_rates(
            BENCHMARKS[name], backend="reference", **kwargs
        )


class TestCurveCache:
    def test_get_curve_memoises(self):
        clear_curve_cache()
        a = get_curve(
            BENCHMARKS["namd"], num_sets=16, accesses=1_000
        )
        b = get_curve(
            BENCHMARKS["namd"], num_sets=16, accesses=1_000
        )
        assert a is b
        clear_curve_cache()
        c = get_curve(
            BENCHMARKS["namd"], num_sets=16, accesses=1_000
        )
        assert c is not a

    def test_same_name_different_mixture_not_aliased(self):
        """Regression: the cache used to key on ``profile.name`` alone,
        so two profiles sharing a name aliased to whichever was profiled
        first.  The key is now a digest of the whole profile."""
        import dataclasses

        from repro.analysis import misscache

        original = BENCHMARKS["namd"]
        impostor = dataclasses.replace(
            original, components=BENCHMARKS["bzip2"].components
        )
        assert impostor.name == original.name

        misscache.set_enabled(False)
        clear_curve_cache()
        try:
            a = get_curve(original, num_sets=32, accesses=6_000)
            b = get_curve(impostor, num_sets=32, accesses=6_000)
            assert a is not b
            assert a.points != b.points
            # And each profile still memoises against itself.
            assert get_curve(impostor, num_sets=32, accesses=6_000) is b
        finally:
            clear_curve_cache()
            misscache.set_enabled(None)


class TestCurvePersistence:
    def test_round_trip_through_json_file(self, tmp_path):
        from repro.workloads.profiler import (
            curve_from_dict,
            curve_to_dict,
            load_curves,
            save_curves,
        )

        curve = small_curve()
        restored = curve_from_dict(curve_to_dict(curve))
        assert restored.points == curve.points
        assert (
            restored.l2_accesses_per_instruction
            == curve.l2_accesses_per_instruction
        )

        path = save_curves({"x": curve}, tmp_path / "curves.json")
        loaded = load_curves(path)
        assert loaded["x"].points == curve.points
        assert loaded["x"].miss_rate(6) == curve.miss_rate(6)

    def test_bad_payload_rejected(self):
        from repro.workloads.profiler import curve_from_dict

        with pytest.raises(ValueError, match="missing key"):
            curve_from_dict({"benchmark": "x"})

    def test_loaded_curves_usable_by_simulator(self, tmp_path):
        from repro.core.config import ALL_STRICT
        from repro.sim.config import SimulationConfig
        from repro.sim.system import QoSSystemSimulator
        from repro.workloads.composer import single_benchmark_workload
        from repro.workloads.profiler import load_curves, save_curves

        curve = MissRatioCurve(
            benchmark="bzip2",
            l2_accesses_per_instruction=0.0275,
            points={w: max(0.18, 0.6 - 0.07 * w) for w in range(1, 17)},
        )
        path = save_curves({"bzip2": curve}, tmp_path / "c.json")
        workload = single_benchmark_workload("bzip2", ALL_STRICT)
        result = QoSSystemSimulator(
            workload,
            curves=load_curves(path),
            sim_config=SimulationConfig(),
        ).run()
        assert result.deadline_report.hit_rate == 1.0
