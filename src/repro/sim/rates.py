"""Per-benchmark rate tables: the simulators' timing model as lookups.

A job's timing depends on its benchmark and its way allocation only
through a handful of numbers: misses per instruction from the miss-ratio
curve, the CPI of Luo's model at that miss rate, and the uncontended
execution time.  The simulators re-read them at every event, but way
counts are few (``0..l2_ways``, plus EqualPart's one fractional share),
so :class:`RateTable` derives each value once, through the validating
:meth:`MissRatioCurve.mpi` and :meth:`CpiModel.cpi`, and the event loop
only looks them up.  Both simulators hold a :class:`RateTables`, which
fetches each benchmark's curve and builds its table on first use.

The one input that is not a way count — the memory-bus penalty
multiplier on Opportunistic jobs — is applied at lookup time in the
same order as :meth:`CpiModel.cpi` evaluates
``cpi_l1_inf + h2 * t2 + hm * tm * multiplier``: the table stores
``base = cpi_l1_inf + h2 * t2`` and ``miss_cycles = hm * tm``, and
:meth:`RateTable.cpi` returns ``base + miss_cycles * multiplier``.  The
floating-point operations are the same, so every rate is bit-identical
to the direct computation.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple

from repro.sim.config import MachineConfig, SimulationConfig
from repro.workloads.benchmarks import BenchmarkProfile, get_benchmark
from repro.workloads.profiler import MissRatioCurve, get_curve


class WaysRates(NamedTuple):
    """Everything the timing model needs at one way allocation."""

    mpi: float  # L2 misses per instruction
    miss_cycles: float  # mpi * tm: miss cycles per instruction, uncontended
    cpi: float  # uncontended CPI
    wall_clock: float  # uncontended seconds for one job's instructions


class RateTable:
    """One benchmark's rates on one machine, keyed by way allocation.

    Integer allocations ``0..l2_ways`` are built at construction;
    any other allocation (EqualPart's ``l2_ways / num_cores``) is built
    on its first lookup.  Building an entry is the only place the curve
    and CPI model validate their arguments.
    """

    __slots__ = (
        "writeback_factor",
        "base_cpi",
        "rates_by_ways",
        "_curve",
        "_cpi_model",
        "_machine",
        "_instructions",
        "_entries",
    )

    def __init__(
        self,
        profile: BenchmarkProfile,
        curve: MissRatioCurve,
        machine: MachineConfig,
        *,
        instructions: int,
    ) -> None:
        cpi_model = profile.cpi_model(
            l2_latency=machine.l2_latency,
            memory_latency=machine.memory_latency,
        )
        # Each miss moves a fill block plus, for the dirty fraction
        # (write_fraction), a write-back block.
        self.writeback_factor = 1.0 + profile.write_fraction
        self.base_cpi = (
            cpi_model.cpi_l1_inf
            + cpi_model.l2_accesses_per_instruction
            * cpi_model.l2_access_penalty
        )
        self._curve = curve
        self._cpi_model = cpi_model
        self._machine = machine
        self._instructions = instructions
        self._entries: Dict[float, WaysRates] = {}
        entries = [self.at(ways) for ways in range(machine.l2_ways + 1)]
        #: Uncontended instructions per second at each integer
        #: allocation (0.0 at no ways) — the adaptive policies' sensor.
        self.rates_by_ways: Tuple[float, ...] = tuple(
            0.0 if ways == 0 else machine.clock_hz / entry.cpi
            for ways, entry in enumerate(entries)
        )

    def at(self, ways: float) -> WaysRates:
        """The rates at ``ways``, built and validated on first use."""
        entry = self._entries.get(ways)
        if entry is None:
            mpi = self._curve.mpi(ways)
            cpi = self._cpi_model.cpi(mpi)
            entry = WaysRates(
                mpi=mpi,
                miss_cycles=mpi * self._cpi_model.l2_miss_penalty,
                cpi=cpi,
                wall_clock=self._machine.cycles_to_seconds(
                    self._instructions * cpi
                ),
            )
            self._entries[ways] = entry
        return entry

    def cpi(self, ways: float, multiplier: float) -> float:
        """CPI at ``ways`` with the miss penalty scaled by ``multiplier``.

        Equal, bit for bit, to ``CpiModel.cpi(mpi(ways),
        miss_penalty_multiplier=multiplier)``.
        """
        return self.base_cpi + self.at(ways).miss_cycles * multiplier


class RateTables:
    """A simulator's rate tables, one per benchmark, built on first use.

    ``curves`` pre-supplies miss-ratio curves by benchmark name (tests
    inject hand-built ones); any other benchmark's curve comes from
    :func:`get_curve` at the simulation's profiling size.
    """

    def __init__(
        self,
        machine: MachineConfig,
        sim_config: SimulationConfig,
        curves: Optional[Dict[str, MissRatioCurve]] = None,
    ) -> None:
        self._machine = machine
        self._sim_config = sim_config
        self._curves = dict(curves) if curves else {}
        self._tables: Dict[str, RateTable] = {}

    def __getitem__(self, benchmark: str) -> RateTable:
        table = self._tables.get(benchmark)
        if table is None:
            profile = get_benchmark(benchmark)
            curve = self._curves.get(benchmark)
            if curve is None:
                curve = get_curve(
                    profile,
                    num_sets=self._sim_config.profile_num_sets,
                    accesses=self._sim_config.profile_accesses,
                )
            table = RateTable(
                profile,
                curve,
                self._machine,
                instructions=self._sim_config.instructions_per_job,
            )
            self._tables[benchmark] = table
        return table
