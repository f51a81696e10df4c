"""Profiling harness for the hot-path benchmarks (cProfile + section timers).

Two complementary views of where rollout/serving time goes:

* :class:`SectionTimers` — coarse wall-clock accounting over named sections
  (``with timers.section("rollouts"): ...``), cheap enough to stay on in any
  benchmark.  It lives in :mod:`repro.timing` (the trainers use it too) and
  is re-exported here.
* :func:`profile_call` — a cProfile pass over one callable, reduced to the
  top functions by cumulative time so the JSON stays reviewable.

Both serialise into the same ``write_json_report`` envelope every benchmark
already emits, so profiles land next to the measurements they explain.
Profiling is opt-in via the ``REPRO_BENCH_PROFILING`` environment variable
(set by ``benchmarks/run_all.py --profiling``): cProfile instrumentation
slows the measured hot loop severely, so throughput numbers and profiles are
taken from separate runs.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import time
from pathlib import Path
from typing import Any, Callable, TypeVar

from ..timing import SectionTimers
from .reporting import write_json_report

__all__ = [
    "PROFILING_ENV",
    "SectionTimers",
    "profile_call",
    "profiling_enabled",
    "write_profile_json",
]

#: Environment variable that opts a benchmark run into the cProfile pass.
PROFILING_ENV = "REPRO_BENCH_PROFILING"

_T = TypeVar("_T")


def profiling_enabled() -> bool:
    """Whether the current benchmark run should collect cProfile data."""
    value = os.environ.get(PROFILING_ENV, "").strip().lower()
    return value not in ("", "0", "false", "no", "off")


def profile_call(fn: Callable[[], _T], top: int = 30) -> tuple[_T, dict[str, Any]]:
    """Run ``fn`` under cProfile; returns its result and a JSON-ready summary.

    The summary keeps the ``top`` functions by cumulative time (file, line,
    name, call count, tottime, cumtime) plus the overall wall clock and call
    count — enough to spot a hot-path regression in a diff without shipping
    the full pstats dump.
    """
    profiler = cProfile.Profile()
    started = time.perf_counter()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    wall = time.perf_counter() - started
    stats = pstats.Stats(profiler)
    raw: dict[Any, Any] = getattr(stats, "stats", {})
    entries = sorted(raw.items(), key=lambda item: item[1][3], reverse=True)
    rows: list[dict[str, Any]] = []
    for (filename, lineno, funcname), (_cc, ncalls, tottime, cumtime, _callers) in entries[:top]:
        rows.append(
            {
                "function": f"{Path(filename).name}:{lineno}({funcname})",
                "calls": int(ncalls),
                "tottime_seconds": float(tottime),
                "cumtime_seconds": float(cumtime),
            }
        )
    summary: dict[str, Any] = {
        "wall_seconds": wall,
        "total_calls": int(getattr(stats, "total_calls", 0)),
        "top_by_cumtime": rows,
    }
    return result, summary


def write_profile_json(
    name: str,
    profile: dict[str, Any],
    sections: "SectionTimers | None" = None,
    extra: "dict[str, Any] | None" = None,
) -> Path:
    """Write one profile document (cProfile summary + optional sections)."""
    payload: dict[str, Any] = {"cprofile": profile}
    if sections is not None:
        payload["sections"] = sections.as_dict()
    if extra:
        payload.update(extra)
    return write_json_report(name, payload)
