"""Cache-backend selection: reference object model vs fast flat kernel.

Two implementations of the same cache semantics coexist:

- ``reference`` — :mod:`repro.cache.basic` / :mod:`repro.cache.partitioned`,
  the readable object model that mirrors the paper's mechanisms and
  supports every replacement policy.
- ``fast`` — :mod:`repro.cache.fastsim`, the flat-state LRU kernel that
  produces identical counters (pinned by the differential test suite)
  at a fraction of the per-access cost.
- ``fast-vec`` — :mod:`repro.cache.fastsim_vec`, the numpy batch LRU
  kernel (optional ``[vec]`` extra) that vectorises ``access_block``
  for single caches; partitioned caches fall back to the fast flat
  kernel, whose QoS victim scan is sequential by design.  Same
  byte-identical counter contract, same differential suite.

Construction sites go through :func:`make_cache` /
:func:`make_partitioned_cache` so one ``--cache-backend`` flag (or the
``REPRO_CACHE_BACKEND`` environment variable, which also reaches
multiprocessing workers) switches the whole machine model.
"""

from __future__ import annotations

import contextlib
import os
from typing import TYPE_CHECKING, Iterator, Optional, Union

from repro.cache.basic import SetAssociativeCache
from repro.cache.fastsim import (
    FastSetAssociativeCache,
    FastWayPartitionedCache,
)
from repro.cache.geometry import CacheGeometry
from repro.cache.partitioned import WayPartitionedCache
from repro.obs import get_observer

if TYPE_CHECKING:
    # fastsim_vec imports numpy; only the fast-vec branch of
    # make_cache loads it at run time.
    from repro.cache.fastsim_vec import FastVecSetAssociativeCache

    #: Any single-level cache, any backend.
    AnyCache = Union[
        SetAssociativeCache,
        FastSetAssociativeCache,
        FastVecSetAssociativeCache,
    ]

BACKENDS = ("reference", "fast", "fast-vec")
#: Any way-partitioned shared cache, either backend.
AnyPartitionedCache = Union[WayPartitionedCache, FastWayPartitionedCache]

_ENV_VAR = "REPRO_CACHE_BACKEND"
_default_backend: Optional[str] = None  # None = env var or "fast"


def resolve_backend(name: Optional[str]) -> str:
    """Normalise a backend request: explicit name > session default.

    Raises ``ValueError`` for unknown names so typos fail at
    construction, not deep inside a sweep.
    """
    if name is None:
        name = default_backend()
    if name not in BACKENDS:
        raise ValueError(
            f"unknown cache backend {name!r}; expected one of {BACKENDS}"
        )
    return name


def default_backend() -> str:
    """The backend used when a construction site passes ``backend=None``."""
    if _default_backend is not None:
        return _default_backend
    return os.environ.get(_ENV_VAR, "fast")


def set_default_backend(name: Optional[str]) -> None:
    """Set the session-wide default backend (``None`` restores env/fast).

    Also mirrors the choice into ``REPRO_CACHE_BACKEND`` so spawned
    multiprocessing workers inherit it.
    """
    global _default_backend
    if name is not None and name not in BACKENDS:
        raise ValueError(
            f"unknown cache backend {name!r}; expected one of {BACKENDS}"
        )
    _default_backend = name
    if name is None:
        os.environ.pop(_ENV_VAR, None)
    else:
        os.environ[_ENV_VAR] = name


@contextlib.contextmanager
def forced_backend(name: str) -> Iterator[str]:
    """Temporarily pin the session default backend to ``name``.

    Saves and restores both the in-process default and the
    ``REPRO_CACHE_BACKEND`` environment mirror, so multiprocessing
    workers spawned inside the block inherit the forced choice and the
    session is left exactly as found afterwards — even on exceptions.
    The differential harness (:mod:`repro.verify.differential`) runs
    each arm of a backend pair inside one of these blocks.
    """
    if name not in BACKENDS:
        raise ValueError(
            f"unknown cache backend {name!r}; expected one of {BACKENDS}"
        )
    saved_default = _default_backend
    saved_env = os.environ.get(_ENV_VAR)
    set_default_backend(name)
    try:
        yield name
    finally:
        set_default_backend(saved_default)
        if saved_env is None:
            os.environ.pop(_ENV_VAR, None)
        else:
            os.environ[_ENV_VAR] = saved_env


def make_cache(
    geometry: CacheGeometry,
    *,
    policy: str = "lru",
    name: str = "cache",
    backend: Optional[str] = None,
) -> AnyCache:
    """Build a single-level cache on the selected backend.

    The fast kernels hard-code LRU; requesting another policy silently
    falls back to the reference implementation so ablations (FIFO,
    Random) keep working under ``--cache-backend fast``/``fast-vec``.
    Selecting ``fast-vec`` without numpy installed raises at
    construction (install the ``[vec]`` extra), rather than silently
    degrading a benchmark to a different kernel.
    """
    chosen = resolve_backend(backend)
    if policy != "lru":
        chosen = "reference"
    if chosen == "fast-vec":
        from repro.cache.fastsim_vec import (
            FastVecSetAssociativeCache,
            require_numpy,
        )

        require_numpy()
    obs = get_observer()
    if obs.enabled:
        obs.metrics.counter(
            "cache.builds", backend=chosen, kind="single"
        ).inc()
    if chosen == "fast-vec":
        return FastVecSetAssociativeCache(geometry, policy=policy, name=name)
    if chosen == "fast":
        return FastSetAssociativeCache(geometry, policy=policy, name=name)
    return SetAssociativeCache(geometry, policy=policy, name=name)


def make_partitioned_cache(
    geometry: CacheGeometry,
    num_cores: int,
    *,
    name: str = "l2",
    backend: Optional[str] = None,
) -> AnyPartitionedCache:
    """Build a way-partitioned shared cache on the selected backend.

    ``fast-vec`` delegates to the fast flat kernel here: the QoS
    victim-priority scan walks classes and per-set occupancy counters
    in order, which does not vectorise, and the partitioned cache is
    not the trace-profiling hot path the vec kernel targets.
    """
    chosen = resolve_backend(backend)
    if chosen == "fast-vec":
        chosen = "fast"
    obs = get_observer()
    if obs.enabled:
        obs.metrics.counter(
            "cache.builds", backend=chosen, kind="partitioned"
        ).inc()
    if chosen == "fast":
        return FastWayPartitionedCache(geometry, num_cores, name=name)
    return WayPartitionedCache(geometry, num_cores, name=name)


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
    contract of :mod:`repro.obs`.  Works with either backend: both
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
