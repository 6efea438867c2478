"""Trace-driven cache hierarchy substrate.

This package implements every cache mechanism the paper's QoS framework
relies on, from scratch:

- :mod:`repro.cache.geometry` — cache geometry and address slicing.
- :mod:`repro.cache.replacement` — replacement policies (LRU and
  alternatives used by ablations).
- :mod:`repro.cache.stats` — hit/miss/eviction statistics, per-core.
- :mod:`repro.cache.basic` — a plain set-associative cache (the private
  L1s of the machine model).
- :mod:`repro.cache.partitioned` — the way-partitioned shared L2 with
  per-set allocation counters and QoS-aware victim selection
  (Section 4.1 of the paper).
- :mod:`repro.cache.global_partition` — the coarse global-counter
  partitioning alternative the paper describes and rejects (kept as an
  ablation baseline).
- :mod:`repro.cache.shadow` — duplicate (shadow) tag arrays with set
  sampling, the microarchitecture support for resource stealing
  (Section 4.3).
- :mod:`repro.cache.fastsim` — flat-state fast twins of the basic and
  partitioned caches (LRU only), counter-identical to the reference
  implementations but without per-access object allocation.
- :mod:`repro.cache.backend` — the cache factories all construction
  sites go through (fast kernel for LRU, reference model otherwise).
"""

from repro.cache.backend import make_cache, make_partitioned_cache
from repro.cache.basic import (
    HIT,
    AccessResult,
    BatchCounters,
    SetAssociativeCache,
)
from repro.cache.fastsim import (
    FastSetAssociativeCache,
    FastWayPartitionedCache,
)
from repro.cache.geometry import CacheGeometry
from repro.cache.global_partition import GlobalPartitionedCache
from repro.cache.partitioned import PartitionClass, WayPartitionedCache
from repro.cache.replacement import FifoPolicy, LruPolicy, RandomPolicy
from repro.cache.shadow import ShadowTagArray
from repro.cache.stats import CacheStats

__all__ = [
    "CacheGeometry",
    "SetAssociativeCache",
    "FastSetAssociativeCache",
    "FastWayPartitionedCache",
    "AccessResult",
    "BatchCounters",
    "HIT",
    "WayPartitionedCache",
    "PartitionClass",
    "GlobalPartitionedCache",
    "ShadowTagArray",
    "CacheStats",
    "LruPolicy",
    "FifoPolicy",
    "RandomPolicy",
    "make_cache",
    "make_partitioned_cache",
]
