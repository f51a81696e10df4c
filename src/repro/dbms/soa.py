"""The state every backend session shares.

:class:`SessionStateArrays` keeps the observable per-query state as flat
NumPy columns that every session backend (engine, cluster, simulator,
simulated cluster) updates in O(1) as transitions land — submit, completion,
failure, deferral.  The environment then assembles a
:class:`~repro.encoder.run_state.SnapshotArrays` view with a handful of
whole-array ops and zero per-query Python work.

Status codes are *backend-observable* states; the environment maps them onto
the three scheduler-visible ``QueryStatus`` values (FAILED reads as FINISHED,
DEFERRED as PENDING-but-unavailable) with one table lookup.

:class:`BackendSession` is the base of those four sessions: the round's query
lists, the state arrays and the transitions that do not touch the clock are
written there once.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, ClassVar, Mapping

import numpy as np

from ..exceptions import BQSchedError, SchedulingError
from .logs import RoundLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..workloads import BatchQuerySet, Query
    from .engine import RunningQueryState

__all__ = [
    "BackendSession",
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


class BackendSession:
    """One scheduling round on a backend: the bookkeeping all sessions share.

    A query of the round is *pending* (submittable), *deferred* (not arrived
    yet, or backing off before a retry), running, *finished* or terminally
    *failed*.  Subclasses own the running set and the clock (``submit``,
    ``advance``, ``cancel``); this base owns the lists around them and keeps
    :attr:`state_arrays` in step with every transition it makes.  The fleet
    questions get the answers of a one-instance backend here; the fleet
    sessions override them.
    """

    #: Raised when a transition does not apply to the query's current state.
    error: ClassVar[type[BQSchedError]] = SchedulingError
    #: Whether the vectorized engine may interleave this session's advances
    #: with batched model predictions (only the learned simulator can).
    supports_lockstep: ClassVar[bool] = False

    if TYPE_CHECKING:
        # Defined by every subclass: ``running`` is a dict on the single-engine
        # sessions and a merged per-instance view on the fleet sessions.
        @property
        def running(self) -> Mapping[int, RunningQueryState]: ...

        @property
        def num_running(self) -> int: ...

        @property
        def has_idle_connection(self) -> bool: ...

    def __init__(self, batch: BatchQuerySet, round_id: int, strategy: str) -> None:
        self.batch = batch
        self.round_id = round_id
        self.current_time = 0.0
        self.pending: list[int] = [query.query_id for query in batch]
        self.deferred: list[int] = []
        self.finished: dict[int, float] = {}
        #: Terminally failed queries (retries exhausted / never retried).
        self.failed: dict[int, float] = {}
        self.log = RoundLog(round_id=round_id, strategy=strategy)
        #: SoA mirror of the observable per-query state, updated O(1) per
        #: transition; the environment's snapshot reads it.
        self.state_arrays = SessionStateArrays(len(batch))

    # ------------------------------------------------------------------ #
    # Round state
    # ------------------------------------------------------------------ #
    @property
    def is_done(self) -> bool:
        return not self.pending and not self.deferred and self.num_running == 0

    @property
    def has_pending(self) -> bool:
        return bool(self.pending)

    @property
    def makespan(self) -> float:
        """Latest finish time observed so far."""
        return max(self.finished.values(), default=0.0)

    def pending_queries(self) -> list[Query]:
        return [self.batch[i] for i in self.pending]

    def running_states(self) -> list[RunningQueryState]:
        return list(self.running.values())

    def unarrived_ids(self) -> tuple[int, ...]:
        """Query ids present in the round but not yet arrived (deferred)."""
        return tuple(self.deferred)

    def arrival_time(self, query_id: int) -> float:
        """Backend sessions have no arrival schedule; everything arrives at zero."""
        return 0.0

    # ------------------------------------------------------------------ #
    # Transitions that leave the clock alone
    # ------------------------------------------------------------------ #
    def defer(self, query_ids: list[int]) -> None:
        """Move pending queries into the deferred (not yet arrived) state.

        Deferred queries belong to the round, but they cannot be submitted
        until :meth:`release` marks them as arrived, and the round does not
        finish while any remain.
        """
        for query_id in query_ids:
            if query_id not in self.pending:
                raise self.error(f"query {query_id} is not pending and cannot be deferred")
            self.pending.remove(query_id)
            self.deferred.append(query_id)
            self.state_arrays.mark_deferred(query_id)

    def release(self, query_id: int) -> None:
        """Mark a deferred query as arrived: it becomes pending at the current time."""
        if query_id not in self.deferred:
            raise self.error(f"query {query_id} is not deferred")
        self.deferred.remove(query_id)
        self.pending.append(query_id)
        self.state_arrays.mark_pending(query_id)

    def mark_failed(self, query_id: int) -> None:
        """Terminally fail a pending/deferred query (retries exhausted)."""
        if query_id in self.pending:
            self.pending.remove(query_id)
        elif query_id in self.deferred:
            self.deferred.remove(query_id)
        else:
            raise self.error(f"query {query_id} is not pending/deferred and cannot be failed")
        self.failed[query_id] = self.current_time
        self.state_arrays.mark_failed(query_id)

    # ------------------------------------------------------------------ #
    # Fleet questions, answered for one instance
    # ------------------------------------------------------------------ #
    @property
    def num_instances(self) -> int:
        return 1

    def idle_instances(self) -> list[int]:
        """Instances with at least one idle connection."""
        return [0] if self.has_idle_connection else []

    def instance_of(self, query_id: int) -> int:
        """The instance a running/finished query was placed on (-1 if never)."""
        return 0 if query_id in self.running or query_id in self.finished else -1

    def instance_context(self) -> np.ndarray | None:
        """Observable per-instance context rows (``None`` off-fleet)."""
        return None

    def instance_num_running(self) -> list[int]:
        """Running-query count per instance (all tenants)."""
        return [self.num_running]

    def speed_factors(self) -> tuple[float, ...]:
        """Per-instance hardware speed relative to the fleet mean."""
        return (1.0,)

    def instance_health(self) -> list[bool]:
        """Per-instance up/down health."""
        return [True]

    def next_fault_wakeup(self) -> float | None:
        """Earliest recovery instant of a downed instance (``None``: nothing is down)."""
        return None
