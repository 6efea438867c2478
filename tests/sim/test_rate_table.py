"""Exactness of the table-driven timing model.

The simulators read every rate from a :class:`RateTable` instead of
re-deriving it through :meth:`MissRatioCurve.mpi` and
:meth:`CpiModel.cpi` at each event.  These tests pin the contract that
makes that safe:

- every table entry equals the direct computation **bit for bit**
  (compared via ``float.hex``), for all fifteen calibrated benchmarks,
  every integer allocation and several bus multipliers;
- :meth:`MissRatioCurve.miss_rate` (dict hit + bisection) equals the
  linear-scan interpolation it replaced, at any way count;
- the tuple-ordered event heap keeps insertion order among equal-time
  events across compaction;
- the NaN/negative hardening still holds at the boundaries the tables
  moved validation to: constructors and the public curve/CPI methods.
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.spec import ResourceVector
from repro.cpu.cpi import CpiModel
from repro.sim.config import MachineConfig, SimulationConfig
from repro.sim.engine import EventQueue
from repro.sim.rates import RateTable
from repro.workloads import profiler
from repro.workloads.benchmarks import BENCHMARKS
from repro.workloads.profiler import MissRatioCurve, get_curve

MACHINE = MachineConfig()
SIM = SimulationConfig()
#: Bus penalty multipliers: uncontended, barely and heavily contended.
MULTIPLIERS = (1.0, 1.0000001, 1.0625, 1.37, 2.5, 7.0, 123.456)
BAD_NUMBERS = (math.nan, math.inf, -math.inf, -1.0)


def bits(value: float) -> str:
    return float.hex(value)


def scan_miss_rate(points, ways):
    """The linear-scan interpolation ``miss_rate`` used before the
    knots were sorted once at construction."""
    known = sorted(points)
    if ways >= known[-1]:
        return points[known[-1]]
    lower = max(w for w in known if w <= ways)
    upper = min(w for w in known if w >= ways)
    if lower == upper:
        return points[lower]
    t = (ways - lower) / (upper - lower)
    return points[lower] * (1 - t) + points[upper] * t


def default_curve(profile):
    return get_curve(
        profile,
        num_sets=SIM.profile_num_sets,
        accesses=SIM.profile_accesses,
    )


@pytest.fixture(scope="module")
def tables():
    """(profile, curve, table) for every calibrated benchmark."""
    built = {}
    for name, profile in BENCHMARKS.items():
        curve = default_curve(profile)
        built[name] = (
            profile,
            curve,
            RateTable(
                profile, curve, MACHINE, instructions=SIM.instructions_per_job
            ),
        )
    return built


class TestRateTableExactness:
    def test_covers_all_fifteen_benchmarks(self, tables):
        assert len(tables) == 15

    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_every_entry_bit_identical_to_direct_model(self, tables, name):
        profile, curve, table = tables[name]
        model = profile.cpi_model(
            l2_latency=MACHINE.l2_latency,
            memory_latency=MACHINE.memory_latency,
        )
        assert bits(table.writeback_factor) == bits(
            1.0 + profile.write_fraction
        )
        assert len(table.rates_by_ways) == MACHINE.l2_ways + 1
        for ways in range(MACHINE.l2_ways + 1):
            mpi = curve.mpi(ways)
            cpi = model.cpi(mpi)
            entry = table.at(ways)
            assert bits(entry.mpi) == bits(mpi)
            assert bits(entry.cpi) == bits(cpi)
            assert bits(entry.wall_clock) == bits(
                MACHINE.cycles_to_seconds(SIM.instructions_per_job * cpi)
            )
            expected_rate = 0.0 if ways == 0 else MACHINE.clock_hz / cpi
            assert bits(table.rates_by_ways[ways]) == bits(expected_rate)
            for multiplier in MULTIPLIERS:
                assert bits(table.cpi(ways, multiplier)) == bits(
                    model.cpi(mpi, miss_penalty_multiplier=multiplier)
                ), (ways, multiplier)

    @pytest.mark.parametrize("cores", (3, 4, 5, 6, 7))
    def test_fractional_share_is_bit_identical(self, tables, cores):
        # EqualPart's per-core share: 16/4 = 4.0, 16/3 = 5.33... ways.
        ways = MACHINE.l2_ways / cores
        for profile, curve, table in tables.values():
            model = profile.cpi_model(
                l2_latency=MACHINE.l2_latency,
                memory_latency=MACHINE.memory_latency,
            )
            mpi = curve.mpi(ways)
            assert bits(table.at(ways).mpi) == bits(mpi)
            assert bits(table.at(ways).cpi) == bits(model.cpi(mpi))
            for multiplier in MULTIPLIERS:
                assert bits(table.cpi(ways, multiplier)) == bits(
                    model.cpi(mpi, miss_penalty_multiplier=multiplier)
                )

    def test_lookups_after_build_do_not_validate(self, tables, monkeypatch):
        profile, curve, _ = tables["bzip2"]
        calls = []

        def counting(name, value):
            calls.append(name)
            return value

        monkeypatch.setattr(profiler, "check_non_negative", counting)
        table = RateTable(
            profile, curve, MACHINE, instructions=SIM.instructions_per_job
        )
        built = len(calls)
        assert built == MACHINE.l2_ways + 1  # one miss_rate check per entry
        for ways in range(MACHINE.l2_ways + 1):
            table.at(ways)
            table.cpi(ways, 1.5)
        assert len(calls) == built


class TestMissRateInterpolation:
    @given(
        points=st.dictionaries(
            st.integers(min_value=1, max_value=24),
            st.floats(min_value=0.0, max_value=1.0),
            min_size=1,
            max_size=12,
        ),
        ways=st.one_of(
            st.floats(
                min_value=0.0,
                max_value=40.0,
                allow_nan=False,
                allow_infinity=False,
            ),
            st.integers(min_value=0, max_value=40),
        ),
    )
    def test_equals_linear_scan(self, points, ways):
        curve = MissRatioCurve(
            benchmark="h", l2_accesses_per_instruction=0.03, points=points
        )
        assert bits(curve.miss_rate(ways)) == bits(
            scan_miss_rate(curve.points, ways)
        )
        assert bits(curve.mpi(ways)) == bits(
            scan_miss_rate(curve.points, ways) * 0.03
        )

    def test_fractional_beyond_and_gap_points(self):
        curve = MissRatioCurve(
            benchmark="g",
            l2_accesses_per_instruction=0.02,
            points={1: 0.9, 4: 0.5, 5: 0.4, 16: 0.1},
        )
        for ways in (0.25, 1.0, 2.5, 16 / 3, 4.999, 15.5, 16, 16.0, 30.5):
            assert bits(curve.miss_rate(ways)) == bits(
                scan_miss_rate(curve.points, ways)
            )
        assert curve.max_ways == 16


class TestTupleOrderedHeap:
    def test_equal_time_events_keep_insertion_order_after_compaction(self):
        queue = EventQueue()
        fired = []
        handles = [
            queue.schedule(1.0, lambda t, i=i: fired.append(i))
            for i in range(3 * EventQueue.COMPACT_MIN_SIZE)
        ]
        cancelled = set(range(0, len(handles), 3)) | set(
            range(1, len(handles), 3)
        )
        for index in sorted(cancelled):
            handles[index].cancel()
        # Compaction rebuilt the heap without the cancelled entries.
        assert queue.heap_size < len(handles)
        queue.schedule(1.0, lambda t: fired.append("late"))
        queue.run()
        survivors = [i for i in range(len(handles)) if i not in cancelled]
        assert fired == survivors + ["late"]

    def test_earlier_time_wins_over_earlier_insertion(self):
        queue = EventQueue()
        fired = []
        queue.schedule(2.0, lambda t: fired.append("b"))
        queue.schedule(1.0, lambda t: fired.append("a"))
        queue.schedule(2.0, lambda t: fired.append("c"))
        assert queue.peek_time() == 1.0
        queue.run()
        assert fired == ["a", "b", "c"]


class TestBoundaryValidation:
    """The NaN/±inf/negative hardening, kept at the boundaries."""

    @pytest.mark.parametrize("bad", BAD_NUMBERS + (0.0,))
    def test_curve_rejects_bad_accesses_per_instruction(self, bad):
        with pytest.raises(ValueError):
            MissRatioCurve(
                benchmark="x", l2_accesses_per_instruction=bad, points={1: 0.5}
            )

    @pytest.mark.parametrize("bad", BAD_NUMBERS + (1.5,))
    def test_curve_rejects_points_outside_unit_interval(self, bad):
        with pytest.raises(ValueError, match="outside"):
            MissRatioCurve(
                benchmark="x",
                l2_accesses_per_instruction=0.01,
                points={1: 0.5, 4: bad},
            )

    @pytest.mark.parametrize(
        "field",
        (
            "cpi_l1_inf",
            "l2_accesses_per_instruction",
            "l2_access_penalty",
            "l2_miss_penalty",
        ),
    )
    @pytest.mark.parametrize("bad", BAD_NUMBERS)
    def test_cpi_model_rejects_bad_fields(self, field, bad):
        params = dict(
            cpi_l1_inf=1.0,
            l2_accesses_per_instruction=0.02,
            l2_access_penalty=10.0,
            l2_miss_penalty=300.0,
        )
        params[field] = bad
        with pytest.raises(ValueError):
            CpiModel(**params)

    @pytest.mark.parametrize("field", ("cores", "cache_ways", "bandwidth_share"))
    @pytest.mark.parametrize("bad", BAD_NUMBERS)
    def test_resource_vector_rejects_bad_fields(self, field, bad):
        with pytest.raises(ValueError):
            ResourceVector(**{field: bad})

    @pytest.mark.parametrize("bad", BAD_NUMBERS)
    def test_public_curve_methods_still_check(self, bad):
        curve = MissRatioCurve(
            benchmark="x", l2_accesses_per_instruction=0.01, points={1: 0.5}
        )
        with pytest.raises(ValueError):
            curve.miss_rate(bad)
        with pytest.raises(ValueError):
            curve.mpi(bad)

    @pytest.mark.parametrize("bad", BAD_NUMBERS)
    def test_public_cpi_still_checks(self, bad):
        model = CpiModel(
            cpi_l1_inf=1.0,
            l2_accesses_per_instruction=0.02,
            l2_access_penalty=10.0,
            l2_miss_penalty=300.0,
        )
        with pytest.raises(ValueError):
            model.cpi(bad)
        with pytest.raises(ValueError):
            model.cpi(0.01, miss_penalty_multiplier=bad)
