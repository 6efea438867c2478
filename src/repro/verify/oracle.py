"""The per-way cache-simulation oracle for miss-ratio curves.

:func:`repro.workloads.profiler.measure_miss_rates` reads every way
count off one stack-distance pass.  This module keeps the direct
measurement that pass replaces: the same trace, driven through a real
trace-driven ``w``-way LRU cache once per way count, on any cache
backend.  It is not a product path — the differential ``backend``
pair, the ``miss-curve-monotone`` law and the profiler tests use it to
check the pass (and the fast kernels against the reference model).
"""

from __future__ import annotations

from typing import Dict, Iterable

from repro.cache.backend import make_cache
from repro.cache.geometry import CacheGeometry
from repro.util.rng import DeterministicRng
from repro.util.validation import check_non_negative, check_positive
from repro.workloads.benchmarks import BenchmarkProfile


def simulated_miss_rates(
    profile: BenchmarkProfile,
    *,
    backend: str,
    ways_list: Iterable[int] = tuple(range(1, 17)),
    num_sets: int = 64,
    block_bytes: int = 64,
    accesses: int = 40_000,
    warmup: int = 15_000,
    seed: int = 1234,
) -> Dict[int, float]:
    """Per-way miss rates measured by simulating a cache at each way count.

    Same arguments, same trace and same result contract as
    :func:`~repro.workloads.profiler.measure_miss_rates`; ``backend``
    names the cache implementation (:mod:`repro.cache.backend`) every
    ``w``-way cache is built on.
    """
    check_positive("accesses", accesses)
    check_non_negative("warmup", warmup)
    ways_list = list(ways_list)
    for ways in ways_list:
        if ways <= 0:
            raise ValueError(f"ways must be positive, got {ways}")
    if not ways_list:
        return {}
    generator = profile.make_generator()
    generator.bind(
        num_sets=num_sets,
        block_bytes=block_bytes,
        rng=DeterministicRng(seed, f"profile-{profile.name}"),
    )
    addresses, writes = map(
        list, zip(*generator.address_stream(warmup + accesses))
    )
    points: Dict[int, float] = {}
    for ways in ways_list:
        geometry = CacheGeometry.from_sets(num_sets, ways, block_bytes)
        cache = make_cache(
            geometry, name=f"{profile.name}-{ways}w", backend=backend
        )
        if warmup:
            cache.access_block(addresses[:warmup], writes[:warmup])
        measured = cache.access_block(addresses[warmup:], writes[warmup:])
        points[ways] = measured.miss_rate
    return points
