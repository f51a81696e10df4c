"""Always-available wall-clock section timers for the library's own layers."""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator

__all__ = ["SectionTimers"]


class SectionTimers:
    """Accumulating wall-clock timers over named sections."""

    def __init__(self) -> None:
        self._totals: dict[str, float] = {}
        self._calls: dict[str, int] = {}

    @contextmanager
    def section(self, name: str) -> Iterator[None]:
        """Time one pass through ``name`` (accumulates across passes)."""
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            self._totals[name] = self._totals.get(name, 0.0) + elapsed
            self._calls[name] = self._calls.get(name, 0) + 1

    def as_dict(self) -> dict[str, dict[str, float]]:
        """Sections sorted by total seconds, heaviest first."""
        ordered = sorted(self._totals.items(), key=lambda item: -item[1])
        return {
            name: {"seconds": total, "calls": float(self._calls[name])}
            for name, total in ordered
        }
