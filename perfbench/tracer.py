"""In-memory span recorder wrapped around the program's public functions.

Loaded only in traced child processes (``traced_cli.py``).  Each wrapper
records ``[name, start, end, parent]`` with ``time.perf_counter`` (the
system-wide monotonic clock on Linux, so the parent process can clip
spans to the windows it timed) and bumps plain counters at the same
boundary.  Nothing is written until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._tallies: Dict[str, List[int]] = {}

    # -- recording --------------------------------------------------------

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = time.perf_counter()

    def span(
        self,
        fn: Callable,
        name: str,
        after: Optional[Callable[[tuple, Any], None]] = None,
    ) -> Callable:
        """Wrap ``fn`` in a span; ``after(args, result)`` updates counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counted(self, fn: Callable, key: str) -> Callable:
        """Wrap ``fn`` so each call bumps ``counts[key]`` (no span)."""
        calls = self._tallies.setdefault(key, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            counts = dict(self.counts)
            for key, cell in self._tallies.items():
                counts[key] = counts.get(key, 0) + cell[0]
            json.dump({"spans": self.spans, "counts": counts}, handle)


# -- installation -------------------------------------------------------------


def _replace_function(module_name: str, attr: str, wrapper: Callable) -> None:
    """Point the module attribute, and every ``from … import`` copy of it
    in an already-loaded ``repro`` module, at ``wrapper``."""
    module = importlib.import_module(module_name)
    original = getattr(module, attr)
    for name, loaded in list(sys.modules.items()):
        if loaded is None or not name.startswith("repro"):
            continue
        for key, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, key, wrapper)


def _wrap_method(cls: type, attr: str, make: Callable[[Callable], Callable]):
    setattr(cls, attr, make(cls.__dict__[attr]))


def install(tracer: Tracer) -> None:
    """Wrap the public boundaries of each layer named in README.md."""
    counts = tracer.counts

    # workloads.generator: materialise the stream inside the span, so
    # the span covers generation and nothing else.
    from repro.workloads.generator import TraceGenerator

    original_stream = TraceGenerator.address_stream

    def address_stream(self, count):
        index = tracer.begin("workloads.generate")
        try:
            items = list(original_stream(self, count))
        finally:
            tracer.end(index)
        counts["workloads.accesses"] += len(items)
        return iter(items)

    TraceGenerator.address_stream = address_stream

    # cache: the batch kernel of every single-cache backend.
    from repro.cache.basic import SetAssociativeCache
    from repro.cache.fastsim import FastSetAssociativeCache

    def count_accesses(args, _result):
        counts["cache.accesses"] += len(args[1])

    for cls in (SetAssociativeCache, FastSetAssociativeCache):
        _wrap_method(
            cls, "access_block",
            lambda fn: tracer.span(fn, "cache.kernel", count_accesses),
        )

    # workloads.profiler
    from repro.workloads import profiler

    def curve_built(_args, _result):
        counts["profiler.curves_built"] += 1

    _replace_function(
        "repro.workloads.profiler", "profile_benchmark",
        tracer.span(profiler.profile_benchmark, "profiler.profile",
                    curve_built),
    )

    # analysis.misscache (the curve store)
    from repro.analysis import misscache

    def load_outcome(_args, result):
        counts["misscache.hits" if result is not None
               else "misscache.misses"] += 1

    _replace_function(
        "repro.analysis.misscache", "load_curve",
        tracer.span(misscache.load_curve, "misscache.load", load_outcome),
    )
    _replace_function(
        "repro.analysis.misscache", "store_curve",
        tracer.span(misscache.store_curve, "misscache.store"),
    )

    # sim: the two simulators' run(); the event queue only counts.
    from repro.sim.engine import EventQueue
    from repro.sim.equalpart import EqualPartSimulator
    from repro.sim.system import QoSSystemSimulator

    def sim_run(_args, _result):
        counts["sim.runs"] += 1

    for cls in (QoSSystemSimulator, EqualPartSimulator):
        _wrap_method(cls, "run",
                     lambda fn: tracer.span(fn, "sim.run", sim_run))

    original_queue_run = EventQueue.run

    @functools.wraps(original_queue_run)
    def queue_run(self, *args, **kwargs):
        before = self.events_fired
        try:
            return original_queue_run(self, *args, **kwargs)
        finally:
            counts["sim.events"] += self.events_fired - before

    EventQueue.run = queue_run

    # core.admission: the LAC's public methods.
    from repro.core.admission import LocalAdmissionController

    for attr in ("admit", "reserve_window", "earliest_fit", "latest_fit",
                 "window_fits", "release", "cancel", "prune"):
        _wrap_method(
            LocalAdmissionController, attr,
            lambda fn, attr=attr: tracer.span(fn, f"admission.{attr}"),
        )

    # core.policy: every policy's decide() plus the shared actuator.
    from repro.core import policy

    def epoch(_args, _result):
        counts["core.policy_epochs"] += 1

    def applied(_args, changed):
        if changed:
            counts["core.policy_decisions"] += 1

    for _name, cls in inspect.getmembers(policy, inspect.isclass):
        if issubclass(cls, policy.Policy) and "decide" in cls.__dict__:
            _wrap_method(cls, "decide",
                         lambda fn: tracer.span(fn, "policy.decide", epoch))
    _replace_function(
        "repro.core.policy", "apply_action",
        tracer.span(policy.apply_action, "policy.apply", applied),
    )

    # obs: the three JSONL exporters.
    from repro.obs.events import EventLog
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import TraceLog

    def exported(key):
        def after(args, _result):
            counts[key] += len(args[0])
        return after

    _wrap_method(MetricsRegistry, "write_jsonl",
                 lambda fn: tracer.span(fn, "obs.export"))
    _wrap_method(EventLog, "write_jsonl",
                 lambda fn: tracer.span(fn, "obs.export",
                                        exported("obs.events")))
    _wrap_method(TraceLog, "write_jsonl",
                 lambda fn: tracer.span(fn, "obs.export",
                                        exported("obs.spans")))

    # util.validation: counted only; spans here would cost more than
    # the checks themselves.
    from repro.util import validation

    for name, fn in inspect.getmembers(validation, inspect.isfunction):
        if name.startswith("check_") and fn.__module__ == validation.__name__:
            _replace_function("repro.util.validation", name,
                              tracer.counted(fn, "validation.calls"))

    # analysis.report / analysis.gantt: table and chart rendering.
    from repro.analysis import gantt, report

    for module in (report, gantt):
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            if not name.startswith("_") and fn.__module__ == module.__name__:
                _replace_function(module.__name__, name,
                                  tracer.span(fn, "report.render"))

    # serve: the controller's decision pipeline.
    from repro.serve.controller import ServeController

    _wrap_method(ServeController, "decide",
                 lambda fn: tracer.span(fn, "serve.decide"))

