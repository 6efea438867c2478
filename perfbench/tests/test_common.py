"""The benchmark's own arithmetic: percentiles, self time, the rate
search, stdout normalisation and the per-layer sum."""

import math

import pytest

from common import (
    Probe,
    beyond,
    intersect,
    merge,
    nearest_rank,
    normalise_stdout,
    search_max_rate,
    self_times,
    tail_percentile,
)
from layers import LAYERS, per_layer


class TestPercentileRule:
    def test_p99_needs_a_thousand_samples(self):
        assert beyond(1000, 99.0) == 10
        assert beyond(999, 99.0) == 9

    def test_picks_highest_percentile_with_ten_beyond(self):
        values = list(range(1, 1001))
        pct, value, n = tail_percentile(values)
        assert (pct, value, n) == (99.0, 990, 1000)

    def test_falls_back_when_samples_are_few(self):
        pct, value, n = tail_percentile(list(range(1, 101)))
        assert (pct, value, n) == (90.0, 90, 100)
        pct, _value, _n = tail_percentile(list(range(10_000)))
        assert pct == 99.9

    def test_too_few_samples_raise(self):
        with pytest.raises(ValueError):
            tail_percentile([1.0] * 19)

    def test_nearest_rank(self):
        assert nearest_rank([5, 1, 3], 50) == 3
        assert nearest_rank([5, 1, 3], 100) == 5
        assert nearest_rank([5, 1, 3], 0) == 1


class TestSelfTime:
    def test_interval_helpers(self):
        assert merge([(3, 4), (0, 1), (0.5, 2), (5, 5)]) == [(0, 2), (3, 4)]
        assert intersect([(0, 10)], [(2, 3), (5, 12)]) == [(2, 3), (5, 10)]

    def test_nested_spans(self):
        spans = [
            ["sim.run", 0.0, 10.0, -1],
            ["admission.admit", 1.0, 3.0, 0],
            ["admission.earliest_fit", 1.5, 2.0, 1],
            ["profiler.profile", 4.0, 8.0, 0],
            ["cache.kernel", 5.0, 7.0, 3],
        ]
        times = self_times(spans, [(0.0, 100.0)])
        assert [t.total for t in times] == [10.0, 2.0, 0.5, 4.0, 2.0]
        assert [t.self_time for t in times] == [4.0, 1.5, 0.5, 2.0, 2.0]
        # Self times partition the root span.
        assert sum(t.self_time for t in times) == 10.0

    def test_clipped_to_windows(self):
        spans = [["serve.decide", 0.0, 4.0, -1],
                 ["admission.admit", 1.0, 3.0, 0]]
        times = self_times(spans, [(2.0, 10.0)])
        assert times[0].total == 2.0
        assert times[1].total == 1.0
        assert times[0].self_time == 1.0

    def test_layers_and_unaccounted_sum_to_wall(self):
        spans = [
            ["cli.import", 0.0, 0.4, -1],
            ["sim.run", 1.0, 3.0, -1],
            ["admission.admit", 1.5, 2.0, 1],
            ["policy.decide", 2.0, 2.25, 1],
        ]
        counts = {"sim.events": 100}
        metrics = per_layer([(spans, counts)], [(0.0, 4.0)], 4.0, 2.0)
        selves = sum(metrics[f"{name}.self_s"] for name in LAYERS)
        assert math.isclose(selves + metrics["unaccounted_s"], 4.0)
        assert math.isclose(metrics["unaccounted_s"], 4.0 - 0.4 - 2.0)
        assert math.isclose(metrics["sim.self_s"], 1.25)
        assert math.isclose(metrics["sim.us_per_event"], 12500.0)
        assert metrics["core.admission_calls"] == 1
        assert metrics["trace_overhead_ratio"] == 2.0


def synthetic(table):
    """A probe reading p99 from a rate → p99 table (step function)."""

    def probe(rate):
        p99 = next(p for limit, p in table if rate <= limit)
        return Probe(rate, p99, 0.0, False)

    return probe


class TestMaxRateSearch:
    TABLE = [(700, 5.0), (1000, 12.0), (1300, 24.0), (float("inf"), 90.0)]

    def test_finds_the_knee_within_resolution(self):
        best, probes = search_max_rate(
            synthetic(self.TABLE), low=500, high=4000, steps=8,
            p99_limit_ms=25.0,
        )
        assert best <= 1300
        assert best > 1300 / (4000 / 500) ** (1 / 2 ** 8) - 1
        assert len(probes) == 9
        assert all(p.meets(25.0, 0.01) for p in probes if p.rate <= best)

    def test_failing_low_end_reports_zero(self):
        best, probes = search_max_rate(
            synthetic([(float("inf"), 90.0)]), low=500, high=4000, steps=5,
            p99_limit_ms=25.0,
        )
        assert best == 0.0 and len(probes) == 1

    def test_sheds_and_growing_lateness_fail_a_rate(self):
        assert not Probe(800, 5.0, 0.02, False).meets(25.0, 0.01)
        assert not Probe(800, 5.0, 0.0, True).meets(25.0, 0.01)
        assert Probe(800, 5.0, 0.01, False).meets(25.0, 0.01)


class TestNormalisation:
    def test_footers_that_vary_are_blanked(self):
        cold = (
            "makespan: 1897 Mcycles\n"
            "miss-curve cache: 0/3 curve lookups served from disk (0%), "
            "3 stored, 3 entries on disk\n"
            "metrics written to /tmp/a/metrics.jsonl\n"
            "  engine.run: 2 run(s), 1187.3 ms, 6292 events\n"
        )
        warm = (
            "makespan: 1897 Mcycles\n"
            "miss-curve cache: 3/3 curve lookups served from disk (100%), "
            "0 stored, 3 entries on disk\n"
            "metrics written to /tmp/b/metrics.jsonl\n"
            "  engine.run: 2 run(s), 901.0 ms, 6292 events\n"
        )
        assert normalise_stdout(cold) == normalise_stdout(warm)

    def test_simulated_results_are_kept(self):
        a = "makespan: 1897 Mcycles\n  engine.run: 2 run(s), 1.0 ms, 6292 events\n"
        b = "makespan: 1898 Mcycles\n  engine.run: 2 run(s), 1.0 ms, 6292 events\n"
        c = "makespan: 1897 Mcycles\n  engine.run: 2 run(s), 1.0 ms, 6293 events\n"
        assert normalise_stdout(a) != normalise_stdout(b)
        assert normalise_stdout(a) != normalise_stdout(c)
