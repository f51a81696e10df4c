"""A time-ordered event queue.

A thin, deterministic priority queue over :mod:`repro.runtime.events`: events
pop in time order, with insertion order breaking ties so that two arrivals at
the same instant are delivered in the order they were scheduled (tenant
registration order, then query index).  Determinism matters — the whole
reproduction is seed-for-seed reproducible and the runtime must not
introduce ordering noise.
"""

from __future__ import annotations

import heapq
from typing import Iterable

from ..exceptions import SchedulingError
from .events import RuntimeEvent

__all__ = ["EventQueue"]


class EventQueue:
    """Min-heap of runtime events keyed by ``(time, insertion order)``."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, RuntimeEvent]] = []
        self._counter = 0

    def push(self, event: RuntimeEvent) -> None:
        if event.time < 0:
            raise SchedulingError(f"event time must be >= 0, got {event.time}")
        heapq.heappush(self._heap, (event.time, self._counter, event))
        self._counter += 1

    def extend(self, events: Iterable[RuntimeEvent]) -> None:
        """Bulk-schedule events: one O(n) heapify instead of n sift-ups.

        Insertion counters are assigned in iteration order, so ties break
        exactly as they would under repeated :meth:`push`.
        """
        appended = False
        for event in events:
            if event.time < 0:
                raise SchedulingError(f"event time must be >= 0, got {event.time}")
            self._heap.append((event.time, self._counter, event))
            self._counter += 1
            appended = True
        if appended:
            heapq.heapify(self._heap)

    def peek(self) -> RuntimeEvent | None:
        """The earliest event without removing it (``None`` when empty)."""
        return self._heap[0][2] if self._heap else None

    def peek_time(self) -> float | None:
        """Time of the earliest event (``None`` when empty)."""
        return self._heap[0][0] if self._heap else None

    def pop(self) -> RuntimeEvent:
        if not self._heap:
            raise SchedulingError("cannot pop from an empty event queue")
        return heapq.heappop(self._heap)[2]

    def pop_due(self, now: float) -> RuntimeEvent | None:
        """Pop the earliest event if it is due at ``now`` (one find-min).

        Collapses the runtime's former ``peek_time()``-then-``pop()`` pair
        into a single head access: returns ``None`` when the queue is empty
        or the earliest event lies in the future, otherwise pops it.
        """
        if self._heap and self._heap[0][0] <= now:
            return heapq.heappop(self._heap)[2]
        return None

    def clear(self) -> None:
        self._heap.clear()

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

