"""Incrementally-maintained structure-of-arrays session state.

The scheduler-facing snapshot used to be rebuilt from scratch at every
decision step: ``n`` frozen ``QueryRuntimeInfo`` objects materialized, then
re-extracted with ``np.fromiter`` per feature channel.  Profiling showed this
AoS round-trip dominating the rollout hot loop once the policy forward became
cheap (tape-free NumPy inference).

:class:`SessionStateArrays` keeps the observable per-query state as flat
NumPy columns that every session backend (engine, cluster, simulator,
simulated cluster) updates in O(1) as transitions land — submit, completion,
failure, deferral.  The environment then assembles a
:class:`~repro.encoder.run_state.SnapshotArrays` view with a handful of
whole-array ops and zero per-query Python work.

Status codes are *backend-observable* states; the environment maps them onto
the three scheduler-visible ``QueryStatus`` values (FAILED reads as FINISHED,
DEFERRED as PENDING-but-unavailable) with one table lookup.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SessionStateArrays",
    "SOA_PENDING",
    "SOA_RUNNING",
    "SOA_FINISHED",
    "SOA_FAILED",
    "SOA_DEFERRED",
]

SOA_PENDING = 0
SOA_RUNNING = 1
SOA_FINISHED = 2
SOA_FAILED = 3
SOA_DEFERRED = 4


class SessionStateArrays:
    """Flat per-query state columns, updated O(1) per transition.

    ``status`` holds the ``SOA_*`` code of every query; ``submit_time`` the
    instant of the most recent (current) submission, meaningful while the
    query is running.  Sessions mutate these in place, so NumPy slice views
    handed to tenants stay live for free.
    """

    __slots__ = ("status", "submit_time")

    def __init__(self, num_queries: int) -> None:
        self.status = np.zeros(num_queries, dtype=np.int8)
        self.submit_time = np.zeros(num_queries, dtype=np.float64)

    @property
    def num_queries(self) -> int:
        return int(self.status.shape[0])

    def mark_running(self, query_id: int, submit_time: float) -> None:
        self.status[query_id] = SOA_RUNNING
        self.submit_time[query_id] = submit_time

    def mark_pending(self, query_id: int) -> None:
        self.status[query_id] = SOA_PENDING

    def mark_finished(self, query_id: int) -> None:
        self.status[query_id] = SOA_FINISHED

    def mark_failed(self, query_id: int) -> None:
        self.status[query_id] = SOA_FAILED

    def mark_deferred(self, query_id: int) -> None:
        self.status[query_id] = SOA_DEFERRED
