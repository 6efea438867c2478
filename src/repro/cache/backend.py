"""Cache construction: the fast flat kernel, the reference model as oracle.

Two implementations of the same cache semantics coexist:

- ``reference`` — :mod:`repro.cache.basic` / :mod:`repro.cache.partitioned`,
  the readable object model that mirrors the paper's mechanisms and
  supports every replacement policy.  It is the oracle the fast kernel
  is checked against (``verify diff --pairs backend``, ``verify laws``
  and the differential tests name both kernels explicitly).
- ``fast`` — :mod:`repro.cache.fastsim`, the flat-state LRU kernel that
  produces identical counters at a fraction of the per-access cost.

Construction sites go through :func:`make_cache` /
:func:`make_partitioned_cache`, which pick the kernel from the
replacement policy: the fast kernel for LRU, the reference model for
any other policy (the fast kernel hard-codes LRU).
"""

from __future__ import annotations

from typing import Union

from repro.cache.basic import SetAssociativeCache
from repro.cache.fastsim import (
    FastSetAssociativeCache,
    FastWayPartitionedCache,
)
from repro.cache.geometry import CacheGeometry
from repro.cache.partitioned import WayPartitionedCache
from repro.obs import get_observer

#: Any single-level cache, either kernel.
AnyCache = Union[SetAssociativeCache, FastSetAssociativeCache]
#: Any way-partitioned shared cache, either kernel.
AnyPartitionedCache = Union[WayPartitionedCache, FastWayPartitionedCache]


def make_cache(
    geometry: CacheGeometry,
    *,
    policy: str = "lru",
    name: str = "cache",
) -> AnyCache:
    """Build a single-level cache: the fast kernel for LRU, else the
    reference model (ablations such as FIFO and Random)."""
    backend = "fast" if policy == "lru" else "reference"
    obs = get_observer()
    if obs.enabled:
        obs.metrics.counter(
            "cache.builds", backend=backend, kind="single"
        ).inc()
    if backend == "fast":
        return FastSetAssociativeCache(geometry, policy=policy, name=name)
    return SetAssociativeCache(geometry, policy=policy, name=name)


def make_partitioned_cache(
    geometry: CacheGeometry,
    num_cores: int,
    *,
    name: str = "l2",
) -> FastWayPartitionedCache:
    """Build the way-partitioned shared L2 on the fast kernel."""
    obs = get_observer()
    if obs.enabled:
        obs.metrics.counter(
            "cache.builds", backend="fast", kind="partitioned"
        ).inc()
    return FastWayPartitionedCache(geometry, num_cores, name=name)


def record_lookup_span(
    trace,
    trace_id: str,
    *,
    level: str,
    start: float,
    latency: float,
    hit: bool,
    parent=None,
):
    """Record one closed ``<level>.lookup`` span on ``trace``.

    The shared vocabulary for cache-lookup spans — every layer that
    traces a lookup (the hierarchy walk, ablation drivers, tests) goes
    through here so breakdowns aggregate across call sites by name.
    Returns the span.
    """
    return trace.span(
        trace_id,
        f"{level}.lookup",
        start,
        start + latency,
        parent=parent,
        hit=hit,
    )


def record_cache_stats(cache, *, scope: str) -> None:
    """Pull a cache's hit/miss counters into the metrics registry.

    Snapshot-style (called once per run/segment, never per access) so
    the hot access path stays untouched — the zero-cost-when-disabled
    contract of :mod:`repro.obs`.  Works with either kernel: both
    expose ``stats`` objects with ``hits``/``misses`` totals, and the
    partitioned variants expose per-core stats.
    """
    obs = get_observer()
    if not obs.enabled:
        return
    stats = getattr(cache, "stats", None)
    if stats is None:
        return
    hits = getattr(stats, "hits", None)
    misses = getattr(stats, "misses", None)
    if hits is not None:
        obs.metrics.gauge(f"cache.{scope}.hits").set(hits)
    if misses is not None:
        obs.metrics.gauge(f"cache.{scope}.misses").set(misses)
