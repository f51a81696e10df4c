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
        #: Bumped on every content change; engine sessions key their
        #: progress-rate memo on it (cached fractions depend only on
        #: ``_resident``, so an unchanged version means unchanged rates).
        self.version = 0

    @property
    def used_rows(self) -> float:
        return sum(self._resident.values())

    def cached_fraction(self, table: str, table_rows: float) -> float:
        """Fraction of ``table`` currently resident (0 when never scanned)."""
        if table_rows <= 0:
            return 0.0
        return min(1.0, self._resident.get(table, 0.0) / table_rows)

    def touch(self, table: str, rows: float, now: float) -> None:
        """Record that ``rows`` of ``table`` were scanned at time ``now``."""
        if rows < 0:
            raise SimulationError("cannot touch a negative number of rows")
        current = self._resident.get(table, 0.0)
        self._resident[table] = min(self.capacity_rows, max(current, min(rows, self.capacity_rows)))
        self._last_touch[table] = now
        self.version += 1
        self._evict_if_needed()

    def _evict_if_needed(self) -> None:
        """Evict least-recently-touched tables until within capacity."""
        while self.used_rows > self.capacity_rows and len(self._resident) > 1:
            victim = min(self._last_touch, key=lambda table: self._last_touch[table])
            over = self.used_rows - self.capacity_rows
            if self._resident[victim] <= over:
                del self._resident[victim]
                del self._last_touch[victim]
            else:
                self._resident[victim] -= over
                break

    def clear(self) -> None:
        """Drop all cached contents (cold start for a new scheduling round)."""
        self._resident.clear()
        self._last_touch.clear()
        self.version += 1
