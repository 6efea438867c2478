"""Pure helpers shared by the workloads: statistics, span arithmetic,
stdout normalisation, the rate search and the host record.

Nothing here imports the program under test, so ``perfbench/tests``
exercises it without a checkout of ``src/``.
"""

from __future__ import annotations

import math
import os
import platform
import re
import statistics
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

Interval = Tuple[float, float]

# -- percentiles ----------------------------------------------------------------

#: Candidate percentiles, highest first.
PERCENTILES = (99.9, 99.0, 90.0, 50.0)


def nearest_rank(values: Sequence[float], pct: float) -> float:
    """The nearest-rank percentile: the smallest value with at least
    ``pct`` per cent of the samples at or below it."""
    if not values:
        raise ValueError("no samples")
    return sorted(values)[_rank(len(values), pct) - 1]


def _rank(count: int, pct: float) -> int:
    # Rounded first so that 99.9% of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(pct / 100.0 * count, 9)))


def beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie above the ``pct`` nearest rank."""
    return count - _rank(count, pct)


def tail_percentile(values: Sequence[float]) -> Tuple[float, float, int]:
    """``(pct, value, n)`` for the highest candidate percentile that has
    at least ten samples beyond it; raises when even p50 has fewer."""
    n = len(values)
    for pct in PERCENTILES:
        if beyond(n, pct) >= 10:
            return pct, nearest_rank(values, pct), n
    raise ValueError(f"{n} samples leave fewer than 10 beyond p50")


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


# -- intervals and self time ---------------------------------------------------


def merge(intervals: Iterable[Interval]) -> List[Interval]:
    """Sorted, disjoint union of ``intervals`` (empty ones dropped)."""
    merged: List[Interval] = []
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return merged


def intersect(a: Sequence[Interval], b: Sequence[Interval]) -> List[Interval]:
    """Intersection of two sorted, disjoint interval lists."""
    out: List[Interval] = []
    i = j = 0
    while i < len(a) and j < len(b):
        start = max(a[i][0], b[j][0])
        end = min(a[i][1], b[j][1])
        if end > start:
            out.append((start, end))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return out


def length(intervals: Iterable[Interval]) -> float:
    return sum(end - start for start, end in intervals)


@dataclass(frozen=True)
class SpanTime:
    name: str
    parent: int  # index into the same list, -1 for a root
    total: float  # span duration inside the windows
    self_time: float  # total minus the part its children cover


def self_times(
    spans: Sequence[Sequence], windows: Sequence[Interval]
) -> List[SpanTime]:
    """Clip each ``[name, start, end, parent]`` span to ``windows`` and
    subtract the part of it that its child spans cover."""
    windows = merge(windows)
    clipped = [intersect([(s[1], s[2])], windows) for s in spans]
    children: Dict[int, List[int]] = {}
    for index, span in enumerate(spans):
        children.setdefault(int(span[3]), []).append(index)
    out = []
    for index, span in enumerate(spans):
        own = clipped[index]
        kids = merge(
            piece
            for child in children.get(index, ())
            for piece in intersect(clipped[child], own)
        )
        total = length(own)
        out.append(
            SpanTime(span[0], int(span[3]), total, total - length(kids))
        )
    return out


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


# -- stdout normalisation --------------------------------------------------------

_NORMALISERS = (
    # Store counters differ between a cold and a warm run by design.
    (re.compile(r"^miss-curve cache: .*$"), "miss-curve cache: <counters>"),
    # Artifact paths live in a per-run temporary directory.
    (re.compile(r"^(metrics|events|trace) written to .*$"),
     r"\1 written to <path>"),
    # The phase profile's host milliseconds.
    (re.compile(r"^(\s+\S+: \d+ run\(s\), )[0-9.]+ ms(, .*)$"),
     r"\1<ms> ms\2"),
)


def normalise_stdout(text: str) -> str:
    """Blank out the footer fields that legitimately vary between runs."""
    lines = []
    for line in text.splitlines():
        for pattern, replacement in _NORMALISERS:
            line = pattern.sub(replacement, line)
        lines.append(line)
    return "\n".join(lines) + "\n"


# -- max-rate search -------------------------------------------------------------


@dataclass(frozen=True)
class Probe:
    rate: float
    p99_ms: float
    failed_fraction: float  # shed plus transport errors over offered
    late_growing: bool

    def meets(self, p99_limit_ms: float, max_failed: float) -> bool:
        return (
            self.p99_ms <= p99_limit_ms
            and self.failed_fraction <= max_failed
            and not self.late_growing
        )


def search_max_rate(
    probe: Callable[[float], Probe],
    *,
    low: float,
    high: float,
    steps: int,
    p99_limit_ms: float,
    max_failed: float = 0.01,
) -> Tuple[float, List[Probe]]:
    """Highest offered rate meeting the limits, by geometric bisection.

    ``low`` is probed first; when it fails the result is 0.  ``high``
    is assumed to fail and is never probed.  Returns the best passing
    rate and every probe made, in order.
    """
    probes = [probe(low)]
    if not probes[0].meets(p99_limit_ms, max_failed):
        return 0.0, probes
    good, bad = low, high
    for _ in range(steps):
        rate = math.sqrt(good * bad)
        result = probe(rate)
        probes.append(result)
        if result.meets(p99_limit_ms, max_failed):
            good = rate
        else:
            bad = rate
    return good, probes


# -- host record -----------------------------------------------------------------


def git_revision(root: str) -> str:
    """The checkout's commit, or ``unknown`` when it is not a clone."""
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host_record(root: str, seed: int) -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "visible_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "git_revision": git_revision(root),
        "seed": seed,
    }

