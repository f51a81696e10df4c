"""Test-side reference for the engine's fluid model and buffer pool.

``progress_rates`` is the fluid model as it ran before each attempt's
query- and parameter-only terms were computed once at submit: every rate
evaluation re-derives them through ``Query`` properties, a ``Counter`` of
table scans and one ``cached_fraction`` read per table, with the helpers
``_contention_scale``, ``_spill_factor`` and ``_sharing_boost`` written out
(``_contention_scale`` still takes ``np.sqrt``, so it can return a NumPy
scalar; the values equal ``math.sqrt``'s).  ``ReferenceBufferPool`` is the
buffer pool before ``used_rows`` was cached: every read sums ``_resident``
and the eviction victim is ``min`` over ``_last_touch`` with a key.

``repro.dbms.engine.progress_rates``, an ``ExecutionSession`` unit's
``_progress_rates`` and ``repro.dbms.BufferPool`` must match them with
``==``, not ``approx``.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

import numpy as np

from repro.dbms import BufferPool, DBMSProfile, RunningQueryState
from repro.exceptions import SimulationError

_EPSILON = 1e-9
_SPILL_PENALTY = 0.8


def cached_fraction(buffer: "BufferPool | ReferenceBufferPool", table: str, table_rows: float) -> float:
    """Fraction of ``table`` currently resident in ``buffer`` (0 when never scanned)."""
    if table_rows <= 0:
        return 0.0
    return min(1.0, buffer._resident.get(table, 0.0) / table_rows)


def progress_rates(
    profile: DBMSProfile, states: Sequence[RunningQueryState], buffer: "BufferPool | ReferenceBufferPool"
) -> dict[int, float]:
    """The fluid model: work-per-second rate of every query in ``states`` running together."""
    if not states:
        return {}

    amdahl = {}
    for state in states:
        p = state.query.parallel_fraction
        workers = state.parameters.workers
        amdahl[state.query.query_id] = 1.0 / ((1.0 - p) + p / workers)

    cpu_demand = sum(
        amdahl[s.query.query_id] * s.query.cpu_fraction for s in states
    )
    io_demand = sum(s.query.io_fraction for s in states)
    cpu_scale = _contention_scale(profile, cpu_demand, profile.cpu_capacity)
    io_scale = _contention_scale(profile, io_demand, profile.io_capacity)

    memory_granted = sum(min(s.parameters.memory_mb, s.query.memory_demand_mb) for s in states)
    global_pressure = max(0.0, memory_granted / profile.memory_capacity_mb - 1.0)

    # How many running queries scan each table, counted once per call: a
    # table is scanned concurrently with a query iff another one counts it.
    table_counts = Counter(table for s in states for table in s.query.tables)
    rates: dict[int, float] = {}
    for state in states:
        query = state.query
        cpu_rate = amdahl[query.query_id] * cpu_scale
        spill = _spill_factor(state, global_pressure)
        cpu_rate /= 1.0 + spill
        io_rate = io_scale * (1.0 + _sharing_boost(profile, state, table_counts, buffer))
        blended = query.cpu_fraction * cpu_rate + query.io_fraction * io_rate
        rates[query.query_id] = max(_EPSILON, blended * profile.speed)
    return rates


def _contention_scale(profile: DBMSProfile, demand: float, capacity: float) -> float:
    """Proportional-share contention, softened by the internal resource manager."""
    if demand <= capacity:
        return 1.0
    raw = capacity / demand
    smoothing = profile.contention_smoothing
    return (1.0 - smoothing) * raw + smoothing * np.sqrt(raw)


def _spill_factor(state: RunningQueryState, global_pressure: float) -> float:
    """Slowdown from undersized working memory (spilling sorts/hashes)."""
    query = state.query
    if query.memory_demand_mb <= 0:
        return 0.0
    shortfall = max(0.0, query.memory_demand_mb - state.parameters.memory_mb) / query.memory_demand_mb
    return _SPILL_PENALTY * query.memory_sensitivity * (shortfall + 0.5 * global_pressure)


def _sharing_boost(
    profile: DBMSProfile,
    state: RunningQueryState,
    table_counts: "Counter[str]",
    buffer: "BufferPool | ReferenceBufferPool",
) -> float:
    """I/O acceleration from concurrent scans (a table count above one) and warm buffer."""
    query = state.query
    if not query.tables:
        return 0.0
    total_rows = sum(query.tables.values())
    if total_rows <= 0:
        return 0.0
    shared = 0.0
    for table, rows in query.tables.items():
        table_rows = rows
        concurrent_share = 0.8 if table_counts[table] > 1 else 0.0
        cached_share = cached_fraction(buffer, table, table_rows)
        shared += rows * max(concurrent_share, cached_share)
    return profile.sharing_strength * (shared / total_rows)


class ReferenceBufferPool:
    """An approximate LRU buffer of table rows, summing ``_resident`` on every read."""

    def __init__(self, capacity_rows: float) -> None:
        if capacity_rows <= 0:
            raise SimulationError("buffer capacity must be positive")
        self.capacity_rows = float(capacity_rows)
        self._resident: dict[str, float] = {}
        self._last_touch: dict[str, float] = {}

    @property
    def used_rows(self) -> float:
        return sum(self._resident.values())

    def touch(self, table: str, rows: float, now: float) -> None:
        """Record that ``rows`` of ``table`` were scanned at time ``now``."""
        if rows < 0:
            raise SimulationError("cannot touch a negative number of rows")
        current = self._resident.get(table, 0.0)
        self._resident[table] = min(self.capacity_rows, max(current, min(rows, self.capacity_rows)))
        self._last_touch[table] = now
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
        """Drop all cached contents."""
        self._resident.clear()
        self._last_touch.clear()
