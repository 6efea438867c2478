"""Per-layer metrics from the spans and counts of a traced run."""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

from common import SpanTime, layer_of, median, self_times

#: Span-name prefix → layer name where the two differ.
LAYER_NAMES = {"admission": "core.admission", "policy": "core.policy"}
LAYERS = ("cli", "workloads", "cache", "profiler", "misscache", "sim",
          "core.admission", "core.policy", "obs", "report", "serve")

#: Every per-layer metric, in the order BENCHMARK.json lists them.
METRICS: Tuple[Tuple[str, str], ...] = (
    ("cli.import_s", "s"),
    ("workloads.generate_s", "s"),
    ("workloads.accesses", "count"),
    ("cache.kernel_s", "s"),
    ("cache.accesses", "count"),
    ("cache.ns_per_access", "ns"),
    ("profiler.curves_built", "count"),
    ("misscache.load_s", "s"),
    ("misscache.store_s", "s"),
    ("misscache.hits", "count"),
    ("misscache.misses", "count"),
    ("misscache.hit_ratio", "ratio"),
    ("sim.run_s", "s"),
    ("sim.runs", "count"),
    ("sim.events", "count"),
    ("sim.us_per_event", "us"),
    ("core.admission_calls", "count"),
    ("core.admission_s", "s"),
    ("core.policy_epochs", "count"),
    ("core.policy_decisions", "count"),
    ("core.policy_s", "s"),
    ("obs.export_s", "s"),
    ("obs.events", "count"),
    ("obs.spans", "count"),
    ("validation.calls", "count"),
    ("report.render_s", "s"),
    ("serve.decide_calls", "count"),
    ("serve.decide_us_p50", "us"),
    ("serve.server_ms_p99", "ms"),
    ("serve.transport_ms_p99", "ms"),
    ("serve.shed.queue-full", "count"),
    ("serve.shed.overload", "count"),
    ("serve.shed.breaker", "count"),
    ("serve.shed.deadline", "count"),
    ("serve.shed.draining", "count"),
) + tuple((f"{layer}.self_s", "s") for layer in LAYERS) + (
    ("trace.wall_s", "s"),
    ("unaccounted_s", "s"),
    ("trace_overhead_ratio", "ratio"),
    ("loadgen.late_ms_p99", "ms"),
)


def layer(span_name: str) -> str:
    prefix = layer_of(span_name)
    return LAYER_NAMES.get(prefix, prefix)


def load(paths: Iterable[Path]) -> List[Tuple[list, Dict[str, int]]]:
    out = []
    for path in paths:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        out.append((payload["spans"], payload["counts"]))
    return out


def outermost(times: Sequence[SpanTime], same) -> List[SpanTime]:
    """Spans satisfying ``same`` whose parent does not: the layer's own
    entry points, so nested calls are not counted twice."""
    return [
        t for t in times
        if same(t.name) and (t.parent < 0 or not same(times[t.parent].name))
    ]


def per_layer(
    traces: Sequence[Tuple[list, Dict[str, int]]],
    windows: Sequence[Tuple[float, float]],
    traced_wall_s: float,
    untraced_wall_s: float,
) -> Dict[str, float]:
    """Per-layer metrics over every traced process, with spans clipped to
    ``windows`` (the intervals the traced wall time covers)."""
    counts: Counter = Counter()
    times: List[SpanTime] = []
    raw_decide: List[float] = []
    for spans, process_counts in traces:
        counts.update(process_counts)
        times_here = self_times(spans, windows)
        # Keep parent indices valid within one process's list.
        offset = len(times)
        times += [
            SpanTime(t.name, t.parent + offset if t.parent >= 0 else -1,
                     t.total, t.self_time)
            for t in times_here
        ]
        raw_decide += [
            s[2] - s[1] for s, t in zip(spans, times_here)
            if s[0] == "serve.decide" and t.total > 0
        ]

    def total(name: str) -> float:
        return sum(t.total for t in outermost(times, lambda n: n == name))

    def layer_total(name: str) -> float:
        return sum(t.total
                   for t in outermost(times, lambda n: layer(n) == name))

    self_by_layer = {name: 0.0 for name in LAYERS}
    for t in times:
        self_by_layer[layer(t.name)] += t.self_time
    accesses = counts["cache.accesses"]
    events = counts["sim.events"]
    lookups = counts["misscache.hits"] + counts["misscache.misses"]
    metrics = {
        "cli.import_s": total("cli.import"),
        "workloads.generate_s": total("workloads.generate"),
        "workloads.accesses": counts["workloads.accesses"],
        "cache.kernel_s": total("cache.kernel"),
        "cache.accesses": accesses,
        "cache.ns_per_access":
            total("cache.kernel") / accesses * 1e9 if accesses else 0.0,
        "profiler.curves_built": counts["profiler.curves_built"],
        "misscache.load_s": total("misscache.load"),
        "misscache.store_s": total("misscache.store"),
        "misscache.hits": counts["misscache.hits"],
        "misscache.misses": counts["misscache.misses"],
        "misscache.hit_ratio":
            counts["misscache.hits"] / lookups if lookups else 0.0,
        "sim.run_s": total("sim.run"),
        "sim.runs": counts["sim.runs"],
        "sim.events": events,
        # The event loop's own time per event: nested admission,
        # policy and (on a cold store) profiling are not in self time.
        "sim.us_per_event":
            self_by_layer["sim"] / events * 1e6 if events else 0.0,
        "core.admission_calls": len(
            outermost(times, lambda n: layer(n) == "core.admission")
        ),
        "core.admission_s": layer_total("core.admission"),
        "core.policy_epochs": counts["core.policy_epochs"],
        "core.policy_decisions": counts["core.policy_decisions"],
        "core.policy_s": layer_total("core.policy"),
        "obs.export_s": total("obs.export"),
        "obs.events": counts["obs.events"],
        "obs.spans": counts["obs.spans"],
        "validation.calls": counts["validation.calls"],
        "report.render_s": total("report.render"),
        "serve.decide_calls": len(raw_decide),
        "serve.decide_us_p50": median(raw_decide) * 1e6 if raw_decide else 0.0,
    }
    for name in LAYERS:
        metrics[f"{name}.self_s"] = self_by_layer[name]
    metrics["trace.wall_s"] = traced_wall_s
    metrics["unaccounted_s"] = traced_wall_s - sum(self_by_layer.values())
    metrics["trace_overhead_ratio"] = (
        traced_wall_s / untraced_wall_s if untraced_wall_s else 0.0
    )
    return metrics
