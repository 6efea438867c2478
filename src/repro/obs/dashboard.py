"""Terminal dashboard rendering for ``repro top``.

Pure functions from telemetry payloads (a ``/stats`` dict, the
``/metrics/history`` samples, a sweep progress stream) to fixed-width
text frames.  Everything run-varying comes *in through the arguments*
— no wall clock, no randomness, no environment reads — so rendering
the same payload twice yields byte-identical frames.  That is what
makes ``repro top --once`` a CI-checkable artefact rather than a toy:
the determinism lives here, and the polling loop in the CLI only
decides *when* to call these functions.

Layout is plain ANSI-free text by default; the live loop in the CLI
adds the screen-clear escape around whole frames, never inside them.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.export import parse_metric_key

#: Eight-level Unicode bars, lowest to highest.
SPARK_GLYPHS = "▁▂▃▄▅▆▇█"

#: Frame width every renderer targets (content may be narrower).
FRAME_WIDTH = 64


def sparkline(values: Sequence[float], width: int = 24) -> str:
    """Render the last ``width`` values as eight-level bars.

    Scaling is per-call min/max; a constant (or single-point) series
    renders at the lowest level, so a flat line reads as flat.
    """
    tail = [float(v) for v in values][-width:]
    if not tail:
        return ""
    low = min(tail)
    high = max(tail)
    span = high - low
    if span <= 0 or not math.isfinite(span):
        return SPARK_GLYPHS[0] * len(tail)
    top = len(SPARK_GLYPHS) - 1
    return "".join(
        SPARK_GLYPHS[min(top, int((value - low) / span * top))]
        for value in tail
    )


def progress_bar(done: float, total: float, width: int = 28) -> str:
    """A ``[#####.....] done/total`` cell with clamped fill."""
    total = max(total, 1.0)
    fraction = min(1.0, max(0.0, done / total))
    filled = int(round(fraction * width))
    return (
        "[" + "#" * filled + "." * (width - filled) + "]"
        f" {int(done)}/{int(total)}"
    )


def _series_from_samples(
    samples: Sequence[dict], key: str
) -> List[Tuple[float, float]]:
    """(t, value) pairs for one metric key across history samples."""
    points: List[Tuple[float, float]] = []
    for sample in samples:
        series = sample.get("series") or {}
        if key in series:
            points.append((float(sample["t"]), float(series[key])))
    return points


def _rates(points: Sequence[Tuple[float, float]]) -> List[float]:
    """Per-second deltas between successive (t, counter) points."""
    rates: List[float] = []
    for (t0, v0), (t1, v1) in zip(points, points[1:]):
        dt = t1 - t0
        if dt > 0:
            rates.append(max(0.0, (v1 - v0) / dt))
    return rates


def _fmt(value: float, digits: int = 1) -> str:
    if value != value or value in (float("inf"), float("-inf")):
        return str(value)
    if float(value).is_integer() and abs(value) < 1e12:
        return str(int(value))
    return f"{value:.{digits}f}"


def _tenant_fractions(samples: Sequence[dict]) -> List[Tuple[str, int, int]]:
    """(tenant, offered, violations) from the newest sample, sorted."""
    if not samples:
        return []
    series: Dict[str, float] = samples[-1].get("series") or {}
    offered: Dict[str, int] = {}
    violations: Dict[str, int] = {}
    for key, value in series.items():
        try:
            name, labels = parse_metric_key(key)
        except ValueError:
            continue
        tenant = labels.get("tenant")
        if tenant is None:
            continue
        if name == "serve.tenant.offered":
            offered[tenant] = int(value)
        elif name == "serve.tenant.violations":
            violations[tenant] = int(value)
    return [
        (tenant, offered[tenant], violations.get(tenant, 0))
        for tenant in sorted(offered)
    ]


# -- serve mode ---------------------------------------------------------------


def render_serve_frame(
    stats: dict, history: Optional[dict] = None
) -> str:
    """One ``repro top`` frame for a serve target.

    ``stats`` is the ``GET /stats`` payload; ``history`` the
    ``GET /metrics/history`` payload (or ``None`` when unavailable —
    the frame degrades to the snapshot-only view).
    """
    accounting = stats.get("accounting", {})
    breaker = stats.get("breaker", {})
    health = stats.get("health", {})
    samples = (history or {}).get("samples", [])

    lines: List[str] = []
    title = "repro top — serve"
    uptime = stats.get("uptime")
    if uptime is not None:
        title += f"  up {_fmt(float(uptime))}s"
    if stats.get("draining"):
        title += "  DRAINING"
    lines.append(title)
    meta: List[str] = []
    if "fingerprint" in stats:
        meta.append(f"code {str(stats['fingerprint'])[:12]}")
    if history is not None:
        meta.append(
            f"history {len(samples)} samples"
            f" (stride {history.get('stride', 1)})"
        )
    if meta:
        lines.append("  ".join(meta))
    lines.append("-" * FRAME_WIDTH)

    # The conservation triple: the law the serve layer is built around.
    offered = accounting.get("offered", 0)
    admitted = accounting.get("admitted", 0)
    rejected = accounting.get("rejected", 0)
    shed = accounting.get("shed", 0)
    mark = "=" if accounting.get("conserves", True) else "≠ BROKEN"
    lines.append(
        f"offered {offered} {mark} admitted {admitted}"
        f" + rejected {rejected} + shed {shed}"
        f"  (downgraded {accounting.get('downgraded', 0)})"
    )

    # Breaker rung on the degradation ladder.
    rung = breaker.get("rung", 0)
    ladder = ["STRICT", "ELASTIC", "OPPORTUNISTIC", "BEST_EFFORT"]
    cells = "".join(
        "■" if index <= rung else "□" for index in range(len(ladder))
    )
    state = breaker.get("ceiling", ladder[min(rung, 3)].lower())
    flag = "  OPEN" if breaker.get("open") else ""
    lines.append(
        f"breaker [{cells}] ceiling={state}{flag}"
        f"  transitions={breaker.get('transitions', 0)}"
    )
    lines.append(
        f"health  {health.get('state', '?')}"
        f"  pressure={_fmt(float(health.get('pressure', 0.0)), 3)}"
        f"  queue={stats.get('queue_depth', 0)}"
        f"  inflight={stats.get('inflight', 0)}"
    )

    # Advisory adaptive policy, when the server runs one.
    policy = stats.get("policy")
    if policy:
        granted = "granted" if policy.get("granted") else "idle"
        lines.append(
            f"policy  {policy.get('name', '?')}"
            f"  bus={granted}"
            f"  decisions={policy.get('decisions', 0)}"
        )

    # Rate sparklines from successive history samples.
    if samples:
        lines.append("-" * FRAME_WIDTH)
        for key, label in (
            ("serve.offered", "offered/s"),
            ("serve.queue_depth", "queue    "),
            ("serve.health.pressure", "pressure "),
        ):
            points = _series_from_samples(samples, key)
            if key == "serve.offered":
                values = _rates(points)
            else:
                values = [value for _t, value in points]
            if values:
                lines.append(
                    f"{label} {sparkline(values)} "
                    f"now={_fmt(values[-1], 2)}"
                )

    tenants = _tenant_fractions(samples)
    if tenants:
        lines.append("-" * FRAME_WIDTH)
        lines.append("tenant            offered  violations  fraction")
        for tenant, count, bad in tenants:
            fraction = bad / count if count else 0.0
            lines.append(
                f"{tenant[:16]:<16}  {count:>7}  {bad:>10}  "
                f"{fraction:>7.1%}"
            )
    return "\n".join(lines) + "\n"


# -- sweep mode ---------------------------------------------------------------


def render_sweep_frame(records: Sequence[dict]) -> str:
    """One ``repro top`` frame over a sweep progress stream.

    ``records`` is the loaded (or tailed) ``*.progress.jsonl`` — the
    newest ``sweep.begin`` partitions the run into served-from-store
    and pending, and the newest progress/end record carries the
    counts, throughput, and ETA.
    """
    lines: List[str] = ["repro top — sweep"]
    if not records:
        lines.append("(no progress records yet)")
        return "\n".join(lines) + "\n"

    begin = None
    latest = None
    ended = False
    for record in records:
        if record["kind"] == "sweep.begin":
            begin = record
            latest = record
            ended = False
        elif record["kind"] in ("sweep.progress", "sweep.end"):
            latest = record
            ended = record["kind"] == "sweep.end"
    if latest is None:
        lines.append("(no sweep records in stream)")
        return "\n".join(lines) + "\n"

    series = latest.get("series") or {}
    name = latest.get("sweep", "?")
    total = float(series.get("total", 0))
    served = float(series.get("served", 0))
    executed = float(series.get("executed", 0))
    pending = float(series.get("pending", max(0.0, total - served)))
    done = float(series.get("done", served + executed))
    lines[0] += f"  {name}" + ("  COMPLETE" if ended else "")
    lines.append("-" * FRAME_WIDTH)
    lines.append("points  " + progress_bar(done, total))
    lines.append(
        f"split   served-from-store {_fmt(served)}"
        f"  executed {_fmt(executed)}  pending {_fmt(pending)}"
    )
    detail = [f"workers {_fmt(float(series.get('workers', 1)))}"]
    if "throughput" in series:
        detail.append(f"throughput {series['throughput']:.3f} pt/s")
    if "eta_seconds" in series:
        detail.append(f"eta {series['eta_seconds']:.1f}s")
    detail.append(f"t {_fmt(float(latest.get('t', 0.0)), 1)}s")
    lines.append("        " + "  ".join(detail))
    if begin is not None and begin is not latest:
        bseries = begin.get("series") or {}
        lines.append(
            f"resume  began with {_fmt(float(bseries.get('served', 0)))}"
            f" stored / {_fmt(float(bseries.get('pending', 0)))} to run"
        )
    history = sparkline(
        [
            float((record.get("series") or {}).get("done", 0))
            for record in records
            if record["kind"] in ("sweep.progress", "sweep.end")
        ]
    )
    if history:
        lines.append(f"trend   {history}")
    return "\n".join(lines) + "\n"
