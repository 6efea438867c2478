"""A minimal deterministic discrete-event engine.

Events are ``(time, sequence, entry)`` tuples in a binary heap, ordered
by the plain tuple comparison: ties in time break by insertion order
(sequences are unique, so the entry itself is never compared), which
keeps simulations exactly reproducible.  Cancellation uses lazy
invalidation: cancelled handles stay in the heap and are skipped on pop
(cheaper than heap surgery, and the simulators cancel often when rates
change).  To keep rate-change heavy simulations from growing the heap
without bound, the queue compacts itself — rebuilding the heap without
cancelled entries — whenever cancelled entries outnumber live ones.

:meth:`EventQueue.run` additionally supports *graceful* budgets: an
event-count budget and a wall-clock budget that stop the loop and
report why, instead of raising, so a caller can emit a partial report
or checkpoint and resume later (the robustness surface used by
:mod:`repro.faults`).
"""

from __future__ import annotations

import heapq
import itertools
import math
import time as _time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.obs import get_observer

EventCallback = Callable[[float], None]

#: Outcomes of :meth:`EventQueue.run`.
RUN_DRAINED = "drained"
RUN_HORIZON = "horizon"
RUN_STOPPED = "stopped"
RUN_EVENT_BUDGET = "event-budget"
RUN_WALL_CLOCK_BUDGET = "wall-clock-budget"


@dataclass(frozen=True)
class RunBudget:
    """Graceful stopping budgets for :meth:`EventQueue.run`.

    ``max_events`` bounds events fired *within one run call*;
    ``max_wall_seconds`` bounds real (host) time.  Either may be
    ``None`` for unlimited.  Unlike the engine's ``max_events`` runaway
    guard, exhausting a budget stops cleanly with an outcome string
    rather than raising — the caller decides whether to emit a partial
    report, checkpoint, or resume.
    """

    max_events: Optional[int] = None
    max_wall_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_events is not None and self.max_events < 0:
            raise ValueError(
                f"max_events must be non-negative, got {self.max_events}"
            )
        if self.max_wall_seconds is not None and self.max_wall_seconds < 0:
            raise ValueError(
                f"max_wall_seconds must be non-negative, got "
                f"{self.max_wall_seconds}"
            )


class _HeapEntry:
    """One scheduled event's mutable state; the heap orders its key."""

    __slots__ = ("time", "callback", "cancelled", "popped")

    def __init__(self, time: float, callback: EventCallback) -> None:
        self.time = time
        self.callback = callback
        self.cancelled = False
        self.popped = False


class EventHandle:
    """Opaque handle allowing an event to be cancelled."""

    def __init__(self, entry: _HeapEntry, queue: "EventQueue") -> None:
        self._entry = entry
        self._queue = queue

    @property
    def time(self) -> float:
        """The scheduled firing time."""
        return self._entry.time

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` was called."""
        return self._entry.cancelled

    def cancel(self) -> None:
        """Prevent the event from firing (idempotent)."""
        if self._entry.cancelled:
            return
        self._entry.cancelled = True
        if not self._entry.popped:
            self._queue._note_cancelled()


class EventQueue:
    """Priority event queue with a monotone simulated clock."""

    #: Compaction never triggers below this raw heap size, so small
    #: queues keep the cheap lazy-invalidation behaviour.
    COMPACT_MIN_SIZE = 64

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, _HeapEntry]] = []
        self._sequence = itertools.count()
        self._cancelled_in_heap = 0
        self.now = 0.0
        self.events_fired = 0

    def schedule(self, time: float, callback: EventCallback) -> EventHandle:
        """Schedule ``callback(time)`` to run at simulated ``time``."""
        if math.isnan(time):
            raise ValueError("cannot schedule an event at NaN")
        if time < self.now:
            raise ValueError(
                f"cannot schedule in the past: {time} < now {self.now}"
            )
        entry = _HeapEntry(time, callback)
        heapq.heappush(self._heap, (time, next(self._sequence), entry))
        return EventHandle(entry, self)

    def schedule_after(self, delay: float, callback: EventCallback) -> EventHandle:
        """Schedule relative to the current time."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.schedule(self.now + delay, callback)

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or ``None`` if empty."""
        self._drop_cancelled()
        return self._heap[0][0] if self._heap else None

    def step(self) -> bool:
        """Fire the next live event; return False when the queue is empty."""
        self._drop_cancelled()
        if not self._heap:
            return False
        time, _, entry = heapq.heappop(self._heap)
        entry.popped = True
        self.now = time
        self.events_fired += 1
        entry.callback(time)
        return True

    def run(
        self,
        *,
        until: float = math.inf,
        max_events: int = 10_000_000,
        stop_when: Optional[Callable[[], bool]] = None,
        budget: Optional[RunBudget] = None,
    ) -> str:
        """Drain events until the horizon, a predicate, or exhaustion.

        Returns one of the ``RUN_*`` outcome strings describing why the
        loop stopped.  ``budget`` bounds this call gracefully (see
        :class:`RunBudget`); ``max_events`` stays a runaway guard — a
        simulator bug that reschedules forever raises instead of
        hanging.
        """
        obs = get_observer()
        if not obs.enabled:
            return self._run_loop(
                until=until,
                max_events=max_events,
                stop_when=stop_when,
                budget=budget,
            )
        fired_before = self.events_fired
        with obs.profiler.span("engine.run", event_source=self):
            outcome = self._run_loop(
                until=until,
                max_events=max_events,
                stop_when=stop_when,
                budget=budget,
            )
        obs.metrics.counter("engine.runs", outcome=outcome).inc()
        obs.metrics.counter("engine.events_fired").inc(
            self.events_fired - fired_before
        )
        obs.events.emit(
            "engine.run_end",
            self.now,
            outcome=outcome,
            events_fired=self.events_fired - fired_before,
            pending=len(self),
        )
        return outcome

    def _run_loop(
        self,
        *,
        until: float,
        max_events: int,
        stop_when: Optional[Callable[[], bool]],
        budget: Optional[RunBudget],
    ) -> str:
        fired = 0
        wall_deadline = None
        if budget is not None and budget.max_wall_seconds is not None:
            wall_deadline = _time.monotonic() + budget.max_wall_seconds
        while True:
            if stop_when is not None and stop_when():
                return RUN_STOPPED
            if (
                budget is not None
                and budget.max_events is not None
                and fired >= budget.max_events
            ):
                return RUN_EVENT_BUDGET
            if wall_deadline is not None and _time.monotonic() >= wall_deadline:
                return RUN_WALL_CLOCK_BUDGET
            next_time = self.peek_time()
            if next_time is None:
                return RUN_DRAINED
            if next_time > until:
                return RUN_HORIZON
            self.step()
            fired += 1
            if fired >= max_events:
                raise RuntimeError(
                    f"event budget of {max_events} exhausted at simulated "
                    f"time {self.now}; likely a rescheduling loop"
                )

    def _note_cancelled(self) -> None:
        self._cancelled_in_heap += 1
        if (
            len(self._heap) >= self.COMPACT_MIN_SIZE
            and self._cancelled_in_heap * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without cancelled entries.

        Heap order among survivors is re-established by ``heapify``;
        relative (time, sequence) ordering — and therefore the event
        schedule — is unchanged.
        """
        self._heap = [item for item in self._heap if not item[2].cancelled]
        heapq.heapify(self._heap)
        self._cancelled_in_heap = 0
        obs = get_observer()
        if obs.enabled:
            obs.metrics.counter("engine.compactions").inc()

    def _drop_cancelled(self) -> None:
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)[2].popped = True
            self._cancelled_in_heap -= 1

    def __len__(self) -> int:
        return sum(1 for item in self._heap if not item[2].cancelled)

    @property
    def heap_size(self) -> int:
        """Raw heap size including lazily-cancelled entries.

        Exposed so regression tests can assert the compaction bound:
        cancelled entries never exceed live ones (plus the compaction
        floor).
        """
        return len(self._heap)
