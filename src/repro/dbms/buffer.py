"""Shared data buffer model.

Queries running on the same DBMS share one buffer pool, so a query can reuse
pages loaded by an earlier or concurrently running query — one of the three
scheduling opportunities the paper's introduction highlights.  The model
tracks, per table, how many rows are currently resident, evicting the least
recently touched tables when capacity is exceeded.
"""

from __future__ import annotations

from ..exceptions import SimulationError

__all__ = ["BufferPool"]


class BufferPool:
    """An approximate LRU buffer of table rows."""

    def __init__(self, capacity_rows: float) -> None:
        if capacity_rows <= 0:
            raise SimulationError("buffer capacity must be positive")
        self.capacity_rows = float(capacity_rows)
        self._resident: dict[str, float] = {}
        self._last_touch: dict[str, float] = {}
        #: ``sum(_resident.values())``, or ``None`` once ``_resident`` changed.
        self._used_rows: float | None = 0.0
        #: Bumped on every change of ``_resident``; engine sessions key their
        #: progress-rate memo on it (cached fractions depend only on
        #: ``_resident``, so an unchanged version means unchanged rates).
        self.version = 0

    @property
    def used_rows(self) -> float:
        """``sum(_resident.values())``, cached until ``_resident`` next changes.

        A :meth:`touch`, each eviction step (which does not bump
        :attr:`version`) and :meth:`clear` drop the cache before they write.
        """
        if self._used_rows is None:
            self._used_rows = sum(self._resident.values())
        return self._used_rows

    def touch(self, table: str, rows: float, now: float) -> None:
        """Record that ``rows`` of ``table`` were scanned at time ``now``.

        A touch that keeps the resident rows' object moves only the touch time.
        """
        if rows < 0:
            raise SimulationError("cannot touch a negative number of rows")
        capacity = self.capacity_rows
        previous = self._resident.get(table, 0.0)
        # min(capacity, max(previous, min(rows, capacity))), written out.
        resident = capacity if capacity < rows else rows
        resident = resident if resident > previous else previous
        resident = resident if resident < capacity else capacity
        if resident is not previous or table not in self._resident:
            self._used_rows = None
            self._resident[table] = resident
            self.version += 1
        self._last_touch[table] = now
        if self.used_rows > capacity:
            self._evict_if_needed()

    def _evict_if_needed(self) -> None:
        """Evict least-recently-touched tables until within capacity; among
        equal touch times the table first inserted into ``_last_touch`` goes."""
        while self.used_rows > self.capacity_rows and len(self._resident) > 1:
            touches = iter(self._last_touch.items())
            victim, oldest = next(touches)
            for table, touched in touches:
                if touched < oldest:
                    victim, oldest = table, touched
            over = self.used_rows - self.capacity_rows
            self._used_rows = None
            if self._resident[victim] <= over:
                del self._resident[victim]
                del self._last_touch[victim]
            else:
                self._resident[victim] -= over
                break

    def clear(self) -> None:
        """Drop all cached contents (cold start for a new scheduling round)."""
        self._used_rows = None
        self._resident.clear()
        self._last_touch.clear()
        self.version += 1
