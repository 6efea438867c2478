"""Partition-aware differential: both kernels under QoS-shaped load.

The generic kernel differential (``test_fastsim_differential.py``)
drives random operation soups.  This suite instead replays the access
shapes the QoS simulator actually produces — reserved way targets that
are *repartitioned mid-stream* (the Section 4 repartitioning interval)
while traffic keeps flowing, with a set-sampled shadow-tag array
riding on one core's stream — and demands the two kernels stay
**byte-identical**: the serialised counter state must match as bytes,
not merely within tolerance.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.fastsim import FastWayPartitionedCache
from repro.cache.geometry import CacheGeometry
from repro.cache.partitioned import PartitionClass, WayPartitionedCache
from repro.cache.shadow import ShadowTagArray

NUM_CORES = 4
GEOMETRY = CacheGeometry.from_sets(16, 8, 64)
#: The two partitioned-L2 kernels, by name.
KERNELS = {"reference": WayPartitionedCache, "fast": FastWayPartitionedCache}


def _stats_bytes(cache):
    """The cache's complete counter state, serialised canonically."""
    stats = cache.stats
    payload = {
        "totals": {
            "accesses": stats.accesses,
            "hits": stats.hits,
            "misses": stats.misses,
            "evictions": stats.evictions,
            "writebacks": stats.writebacks,
            "fills": stats.fills,
        },
        "per_core": {
            str(core): dataclasses.asdict(counters)
            for core, counters in sorted(stats.per_core.items())
        },
        "targets": [cache.target_of(core) for core in range(NUM_CORES)],
        "occupancy": [
            cache.occupancy_of(core) for core in range(NUM_CORES)
        ],
    }
    return json.dumps(payload, sort_keys=True).encode()


def _shadow_bytes(shadow):
    payload = {
        "sampled_accesses": shadow.sampled_accesses,
        "shadow_misses": shadow.shadow_misses,
        "main_misses": shadow.main_misses,
        "miss_increase_fraction": shadow.miss_increase_fraction(),
    }
    return json.dumps(payload, sort_keys=True).encode()


#: (block, is_write, core) traffic covering all reserved partitions.
traffic = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=255),
        st.booleans(),
        st.integers(min_value=0, max_value=NUM_CORES - 1),
    ),
    min_size=1,
    max_size=300,
)

#: Way allocations to rotate through mid-stream; each sums to the
#: associativity or less, so every plan is legal on every backend.
repartition_plans = st.lists(
    st.sampled_from(
        [
            (2, 2, 2, 2),
            (4, 2, 1, 1),
            (1, 1, 2, 4),
            (5, 1, 1, 1),
            (2, 4, 1, 1),
        ]
    ),
    min_size=1,
    max_size=4,
)


def _build(backend):
    cache = KERNELS[backend](GEOMETRY, NUM_CORES)
    for core in range(NUM_CORES):
        cache.set_target(core, 2)
        cache.set_class(core, PartitionClass.RESERVED)
    return cache


def _apply_plan(cache, plan):
    # Shrink first, then grow, so the targets-sum invariant holds at
    # every intermediate step on both backends.
    for core in sorted(
        range(NUM_CORES), key=lambda c: plan[c] - cache.target_of(c)
    ):
        cache.set_target(core, plan[core])


class TestRepartitionMidStream:
    @given(accesses=traffic, plans=repartition_plans)
    @settings(max_examples=25, deadline=None)
    def test_counters_byte_identical_across_backends(
        self, accesses, plans
    ):
        states = {}
        for backend in KERNELS:
            cache = _build(backend)
            # Interleave: a slice of traffic, then a repartition, so
            # allocations change while lines are resident.
            slices = len(plans) + 1
            chunk = max(1, len(accesses) // slices)
            cursor = 0
            for plan in plans:
                for block, is_write, core in accesses[
                    cursor : cursor + chunk
                ]:
                    cache.access(core, block * 64, is_write=is_write)
                cursor += chunk
                _apply_plan(cache, plan)
            for block, is_write, core in accesses[cursor:]:
                cache.access(core, block * 64, is_write=is_write)
            states[backend] = _stats_bytes(cache)
        assert states["fast"] == states["reference"]

    @given(accesses=traffic)
    @settings(max_examples=10, deadline=None)
    def test_demotion_to_best_effort_identical(self, accesses):
        """Mid-stream class churn (RESERVED -> BEST_EFFORT and back)
        must not open a gap between the backends."""
        states = {}
        for backend in KERNELS:
            cache = _build(backend)
            half = len(accesses) // 2
            for block, is_write, core in accesses[:half]:
                cache.access(core, block * 64, is_write=is_write)
            cache.set_class(1, PartitionClass.BEST_EFFORT)
            cache.set_class(3, PartitionClass.BEST_EFFORT)
            for block, is_write, core in accesses[half:]:
                cache.access(core, block * 64, is_write=is_write)
            states[backend] = _stats_bytes(cache)
        assert states["fast"] == states["reference"]


class TestShadowSampledHits:
    @given(accesses=traffic, sample_period=st.sampled_from([2, 4, 8]))
    @settings(max_examples=25, deadline=None)
    def test_shadow_observations_byte_identical(
        self, accesses, sample_period
    ):
        """A set-sampled shadow array fed by core 0's stream sees the
        same sampled hits/misses whichever backend runs the main cache."""
        states = {}
        for backend in KERNELS:
            cache = _build(backend)
            shadow = ShadowTagArray(
                GEOMETRY, baseline_ways=2, sample_period=sample_period
            )
            for block, is_write, core in accesses:
                address = block * 64
                result = cache.access(core, address, is_write=is_write)
                if core == 0:
                    shadow.observe(address, result.hit)
            states[backend] = (_stats_bytes(cache), _shadow_bytes(shadow))
        assert states["fast"] == states["reference"]

    def test_sampling_period_respected(self):
        """Only every ``sample_period``-th set is observed at all."""
        shadow = ShadowTagArray(GEOMETRY, baseline_ways=2, sample_period=4)
        observed = sum(
            1
            for set_index in range(GEOMETRY.num_sets)
            if shadow.is_sampled(set_index * 64)
        )
        assert observed == GEOMETRY.num_sets // 4

    @pytest.mark.parametrize("backend", KERNELS)
    def test_repartition_with_shadow_smoke(self, backend):
        """Deterministic end-to-end smoke: repartition under a shadow
        array produces self-consistent counters on each backend."""
        cache = _build(backend)
        shadow = ShadowTagArray(GEOMETRY, baseline_ways=2, sample_period=8)
        for step in range(600):
            address = (step * 7 % 192) * 64
            core = step % NUM_CORES
            result = cache.access(core, address, is_write=step % 3 == 0)
            if core == 0:
                shadow.observe(address, result.hit)
            if step == 300:
                _apply_plan(cache, (4, 2, 1, 1))
        stats = cache.stats
        assert stats.accesses == 600
        assert stats.hits + stats.misses == stats.accesses
        assert sum(c.accesses for c in stats.per_core.values()) == 600
        assert shadow.sampled_accesses > 0
