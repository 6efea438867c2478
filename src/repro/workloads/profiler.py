"""Miss-ratio-curve profiling.

The system simulator's timing model needs, for every benchmark, the L2
miss rate as a function of allocated ways — exactly what the paper's
framework observes through its allocation counters and what utility-
based partitioning papers call a miss-ratio curve (MRC).

:func:`profile_benchmark` measures the curve from the benchmark's
synthetic trace with one Mattson stack-distance pass (Mattson et al.,
"Evaluation techniques for storage hierarchies", IBM Sys. J. 1970).
LRU has the inclusion property: a ``w``-way set holds exactly the ``w``
most recently used blocks of that set.  So an access hits a ``w``-way
cache iff its block sits at depth ``< w`` of the set's LRU stack, and
one pass over one generated trace yields the miss rate at every way
count — exactly what a ``w``-way write-allocate LRU cache would report
for each ``w`` (writes allocate like reads, so they do not change the
stack).  The per-way cache simulation this replaces is kept as the
oracle, :func:`repro.verify.oracle.simulated_miss_rates`, which the
differential pair, the curve law and the tests check the pass against.

Profiling runs on a scaled-down set count (footprints are
way-denominated, so the curve is set-count invariant; see
:mod:`repro.workloads.patterns`) and results are memoised process-wide
because every experiment reuses the same fifteen curves.
"""

from __future__ import annotations

import bisect
import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cache.geometry import CacheGeometry
from repro.util.rng import DeterministicRng
from repro.util.validation import check_non_negative, check_positive
from repro.workloads.benchmarks import BenchmarkProfile


@dataclass
class MissRatioCurve:
    """L2 miss rate (and misses/instruction) versus allocated ways.

    ``points`` maps integer way counts to miss rates.  The curve is
    normalised to be non-increasing in ways (more cache can only help
    under LRU inclusion) — simulation noise on finite traces could
    otherwise produce tiny inversions that would break downstream
    invariants.  The points are read-only after construction, which
    sorts their way counts once for :meth:`miss_rate`.
    """

    benchmark: str
    l2_accesses_per_instruction: float
    points: Dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_positive(
            "l2_accesses_per_instruction", self.l2_accesses_per_instruction
        )
        if 0 not in self.points:
            self.points[0] = 1.0  # no allocation: every access misses
        self._knots = self._enforce_monotone()

    def _enforce_monotone(self) -> Tuple[int, ...]:
        """Clamp the points non-increasing; return the sorted way counts."""
        knots = tuple(sorted(self.points))
        running_min = 1.0
        for ways in knots:
            value = min(self.points[ways], running_min)
            if not 0.0 <= self.points[ways] <= 1.0:
                raise ValueError(
                    f"miss rate at {ways} ways is {self.points[ways]}, "
                    "outside [0, 1]"
                )
            self.points[ways] = value
            running_min = value
        return knots

    @property
    def max_ways(self) -> int:
        """Largest way count the curve was profiled at."""
        return self._knots[-1]

    def miss_rate(self, ways: float) -> float:
        """Miss rate at ``ways``, linearly interpolated between points.

        A way count that is a profiled point (every integer allocation
        the simulators make) is one dict lookup.  Any other count
        interpolates linearly between the two neighbouring points, found
        by bisection over the way counts sorted once at construction.
        Fractional allocations arise in the EqualPart baseline (16 ways
        over a varying number of jobs, e.g. Figure 1's three-job case
        giving 5.33 ways each).  Queries beyond the profiled range clamp
        to the last point.
        """
        check_non_negative("ways", ways)
        value = self.points.get(ways)
        if value is not None:
            return value
        knots = self._knots
        if ways >= knots[-1]:
            return self.points[knots[-1]]
        index = bisect.bisect_right(knots, ways)
        lower, upper = knots[index - 1], knots[index]
        t = (ways - lower) / (upper - lower)
        return self.points[lower] * (1 - t) + self.points[upper] * t

    def mpi(self, ways: float) -> float:
        """Misses per instruction at ``ways``."""
        return self.miss_rate(ways) * self.l2_accesses_per_instruction

    def miss_increase_fraction(self, baseline_ways: float, reduced_ways: float) -> float:
        """Fractional miss increase when shrinking the allocation.

        This is the quantity the resource-stealing criterion bounds by
        the Elastic slack X (Section 4.2).
        """
        base = self.miss_rate(baseline_ways)
        if base == 0.0:
            return 0.0 if self.miss_rate(reduced_ways) == 0.0 else float("inf")
        return (self.miss_rate(reduced_ways) - base) / base

    def min_ways_for_miss_rate(self, target_miss_rate: float) -> Optional[int]:
        """Smallest profiled way count achieving ``target_miss_rate``.

        Returns ``None`` when even the full curve cannot reach the
        target — the paper's point about RPM targets being possibly
        ill-defined (Section 3.2).
        """
        check_non_negative("target_miss_rate", target_miss_rate)
        for ways in self._knots:
            if self.points[ways] <= target_miss_rate:
                return ways
        return None


def stack_distance_histogram(
    addresses: Sequence[int], geometry: CacheGeometry, *, warmup: int = 0
) -> List[int]:
    """Hits by LRU stack depth over ``addresses[warmup:]``.

    ``histogram[d]`` counts the measured accesses whose block was at
    depth ``d`` (0 = most recently used) of its set's LRU stack, for
    ``d < geometry.associativity``; deeper reuses and first touches
    count nowhere, since they miss at every way count up to the
    associativity.  The first ``warmup`` accesses only fill the stacks.
    A ``w``-way LRU cache of the same sets therefore misses
    ``len(addresses) - warmup - sum(histogram[:w])`` times.
    """
    offset = geometry.offset_bits
    set_mask = geometry.num_sets - 1
    depth_limit = geometry.associativity
    stacks: List[List[int]] = [[] for _ in range(geometry.num_sets)]

    def replay(chunk: Sequence[int]) -> List[int]:
        histogram = [0] * depth_limit
        for address in chunk:
            block = address >> offset
            stack = stacks[block & set_mask]
            if block in stack:
                depth = stack.index(block)
                histogram[depth] += 1
                if depth:
                    del stack[depth]
                    stack.insert(0, block)
            else:
                stack.insert(0, block)
                if len(stack) > depth_limit:
                    stack.pop()
        return histogram

    replay(addresses[:warmup])
    return replay(addresses[warmup:])


def measure_miss_rates(
    profile: BenchmarkProfile,
    *,
    ways_list: Iterable[int] = tuple(range(1, 17)),
    num_sets: int = 64,
    block_bytes: int = 64,
    accesses: int = 40_000,
    warmup: int = 15_000,
    seed: int = 1234,
) -> Dict[int, float]:
    """Raw per-way miss rates, exactly as an LRU cache would measure them.

    The measurement behind :func:`profile_benchmark`, *without* the
    :class:`MissRatioCurve` monotonicity normalisation — the
    verification laws check the raw points, which the normalised curve
    would hide by construction.  One trace of ``warmup + accesses``
    addresses is generated and replayed once through
    :func:`stack_distance_histogram`; the point at ``w`` ways equals
    what a ``w``-way, ``num_sets``-set LRU cache reports after the same
    warmup (:func:`repro.verify.oracle.simulated_miss_rates`).  The
    result has one entry per distinct way count, in ``ways_list``
    order.
    """
    check_positive("accesses", accesses)
    check_non_negative("warmup", warmup)
    ways_list = list(ways_list)
    for ways in ways_list:
        if ways <= 0:
            raise ValueError(f"ways must be positive, got {ways}")
    if not ways_list:
        return {}
    geometry = CacheGeometry.from_sets(num_sets, max(ways_list), block_bytes)
    generator = profile.make_generator()
    generator.bind(
        num_sets=num_sets,
        block_bytes=block_bytes,
        rng=DeterministicRng(seed, f"profile-{profile.name}"),
    )
    addresses = [
        address for address, _ in generator.address_stream(warmup + accesses)
    ]
    histogram = stack_distance_histogram(addresses, geometry, warmup=warmup)
    hits_within = [0]
    for hits in histogram:
        hits_within.append(hits_within[-1] + hits)
    return {
        ways: (accesses - hits_within[ways]) / accesses for ways in ways_list
    }


def profile_benchmark(
    profile: BenchmarkProfile,
    *,
    ways_list: Iterable[int] = tuple(range(1, 17)),
    num_sets: int = 64,
    block_bytes: int = 64,
    accesses: int = 40_000,
    warmup: int = 15_000,
    seed: int = 1234,
) -> MissRatioCurve:
    """Measure ``profile``'s miss-ratio curve in one stack-distance pass.

    The benchmark's trace runs alone through the LRU stacks of a
    ``num_sets``-set cache (a partition view of the shared L2):
    ``warmup`` accesses fill the stacks before ``accesses`` measured
    ones, and the miss rate at every candidate way count ``w`` is read
    off the one pass (see :func:`measure_miss_rates`).
    """
    points = measure_miss_rates(
        profile,
        ways_list=ways_list,
        num_sets=num_sets,
        block_bytes=block_bytes,
        accesses=accesses,
        warmup=warmup,
        seed=seed,
    )
    return MissRatioCurve(
        benchmark=profile.name,
        l2_accesses_per_instruction=profile.l2_accesses_per_instruction,
        points=points,
    )


_CURVE_CACHE: Dict[Tuple[str, int, int, int, int], MissRatioCurve] = {}


def profile_digest(profile: BenchmarkProfile) -> str:
    """Content digest of a full benchmark profile.

    The in-process curve cache keys on this rather than on
    ``profile.name``: two distinct profiles sharing a name (e.g.
    fuzzer-mutated variants from ``repro verify fuzz``) must not serve
    each other's curves.  The on-disk store has always keyed on the
    full ``dataclasses.asdict(profile)``; this digest matches that
    granularity.
    """
    payload = json.dumps(
        dataclasses.asdict(profile), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def get_curve(
    profile: BenchmarkProfile,
    *,
    num_sets: int = 64,
    block_bytes: int = 64,
    accesses: int = 40_000,
    seed: int = 1234,
) -> MissRatioCurve:
    """Memoised :func:`profile_benchmark` (one curve per configuration).

    Two layers of memoisation: the in-process dict below, then the
    content-addressed on-disk store (:mod:`repro.analysis.misscache`)
    shared across processes and runs.
    """
    key = (profile_digest(profile), num_sets, block_bytes, accesses, seed)
    if key not in _CURVE_CACHE:
        # Imported lazily: misscache keys on this module's source, so a
        # top-level import would be circular.
        from repro.analysis import misscache

        cached = misscache.load_curve(
            profile,
            num_sets=num_sets,
            block_bytes=block_bytes,
            accesses=accesses,
            seed=seed,
        )
        if cached is None:
            cached = profile_benchmark(
                profile,
                num_sets=num_sets,
                block_bytes=block_bytes,
                accesses=accesses,
                seed=seed,
            )
            misscache.store_curve(
                cached,
                profile,
                num_sets=num_sets,
                block_bytes=block_bytes,
                accesses=accesses,
                seed=seed,
            )
        _CURVE_CACHE[key] = cached
    return _CURVE_CACHE[key]


def clear_curve_cache() -> None:
    """Drop all memoised curves (test isolation helper)."""
    _CURVE_CACHE.clear()


# -----------------------------------------------------------------------------
# Curve persistence: saving a set of curves to one JSON file lets CLIs
# and notebooks pin and share exactly the curves an experiment used.
# -----------------------------------------------------------------------------


def curve_to_dict(curve: MissRatioCurve) -> dict:
    """Serialise one curve to plain data."""
    return {
        "benchmark": curve.benchmark,
        "l2_accesses_per_instruction": curve.l2_accesses_per_instruction,
        "points": {str(ways): rate for ways, rate in curve.points.items()},
    }


def curve_from_dict(payload: dict) -> MissRatioCurve:
    """Rebuild a curve serialised by :func:`curve_to_dict`."""
    try:
        return MissRatioCurve(
            benchmark=payload["benchmark"],
            l2_accesses_per_instruction=payload[
                "l2_accesses_per_instruction"
            ],
            points={
                int(ways): float(rate)
                for ways, rate in payload["points"].items()
            },
        )
    except KeyError as missing:
        raise ValueError(f"curve payload missing key {missing}") from None


def save_curves(curves, path) -> "Path":
    """Write a ``{name: curve}`` mapping to a JSON file."""
    import json
    from pathlib import Path

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {name: curve_to_dict(curve) for name, curve in curves.items()}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return path


def load_curves(path) -> Dict[str, MissRatioCurve]:
    """Read back a curve file written by :func:`save_curves`."""
    import json
    from pathlib import Path

    payload = json.loads(Path(path).read_text())
    return {
        name: curve_from_dict(entry) for name, entry in payload.items()
    }
