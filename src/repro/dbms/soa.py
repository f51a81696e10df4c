"""The one backend session and the state it keeps.

:class:`SessionStateArrays` keeps the observable per-query state as flat
NumPy columns that the session updates in O(1) as transitions land —
submit, completion, failure, deferral.  The environment then assembles a
:class:`~repro.encoder.run_state.SnapshotArrays` view with a handful of
whole-array ops and zero per-query Python work.

Status codes are *backend-observable* states; the environment maps them onto
the three scheduler-visible status codes (FAILED reads as FINISHED,
DEFERRED as PENDING-but-unavailable) with one table lookup.

:class:`FleetSession` is the one backend session class: a round across a
fleet of instance units behind one clock.  A single engine is a fleet of one.
It owns the round's query lists, the state arrays, every round transition and
every fleet answer — placement, connection offsets, park, cancel, health,
instance context and delivery of an instance's events.  Its two subclasses
differ only in how an instance predicts its next event (their ``advance``):
the engine fleet's :class:`~repro.dbms.engine.ClusterSession` over
:class:`~repro.dbms.engine.ExecutionSession` units, and the learned
simulator's :class:`~repro.perf.SimulatedClusterSession`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, Generic, Protocol, Sequence, TypeVar

import numpy as np

from ..exceptions import BQSchedError, SchedulingError
from .faults import FAILURE_OUTAGE, InstanceWindows
from .logs import QueryExecutionRecord, RoundLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..workloads import BatchQuerySet, Query
    from .params import RunningParameters

__all__ = [
    "CompletionEvent",
    "FleetSession",
    "INSTANCE_FEATURE_DIM",
    "RunningQueryState",
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

#: Width of the per-instance context feature vector exposed to the encoder:
#: relative speed, busy-connection fraction, capacity share, buffer fill.
INSTANCE_FEATURE_DIM = 4

#: Floor for the reconstructed total work of a buffered tied completion
#: (keeps it positive for zero-duration records).
_MIN_TOTAL_WORK = 1e-9


@dataclass
class RunningQueryState:
    """Mutable execution state of one in-flight query."""

    query: Query
    parameters: RunningParameters
    connection: int
    submit_time: float
    remaining_work: float
    total_work: float


@dataclass(frozen=True)
class CompletionEvent:
    """Returned by a session's ``advance``: one query finished.

    ``instance`` identifies the instance the query ran on: the placement
    chosen at submit time (always 0 on a single engine, a fleet of one).

    ``failed`` marks an attempt that did *not* complete — the query errored
    out (``failure == "error"``) or its instance went down mid-flight
    (``failure == "outage"``).  Failed attempts are never logged or counted
    as finished; the query returns to the pending set and the caller (the
    runtime's retry machinery, or a history-collection loop) decides whether
    to resubmit or mark it terminally failed.
    """

    query_id: int
    finish_time: float
    connection: int
    instance: int = 0
    failed: bool = False
    failure: str = ""


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


class InstanceUnit(Protocol):
    """One instance of a fleet round, as :class:`FleetSession` sees it.

    On an engine fleet the unit is the engine's
    :class:`~repro.dbms.engine.ExecutionSession`; on a simulated fleet it is
    the simulator's per-instance state.  Connection ids are local to the
    unit; the fleet adds the instance's offset.
    """

    num_connections: int
    running: dict[int, RunningQueryState]
    #: Idle connections, lowest first: a submission takes the first.
    idle_connections: list[int]
    #: Failures of killed queries, in kill order, not yet delivered.
    fault_events: list[CompletionEvent]
    windows: InstanceWindows

    @property
    def num_running(self) -> int: ...

    @property
    def buffer_fill(self) -> float: ...

    def withdraw(self, query_id: int) -> int:
        """Take a running query off the instance: its connection frees and its
        attempt is forgotten.  Returns the local connection id."""
        ...


UnitT = TypeVar("UnitT", bound=InstanceUnit)

#: One event an instance materialised, with the execution record it captured
#: (``None`` for a failed attempt: nothing was logged).
InstanceEvent = tuple[CompletionEvent, QueryExecutionRecord | None]


def kill_running(unit: InstanceUnit, time: float) -> None:
    """``unit`` went down at ``time``: every running query dies, lowest id
    first, and its outage failure waits in ``unit.fault_events``."""
    for query_id in sorted(unit.running):
        connection = unit.withdraw(query_id)
        unit.fault_events.append(CompletionEvent(query_id, time, connection, failed=True, failure=FAILURE_OUTAGE))


class FleetSession(Generic[UnitT]):
    """One scheduling round across a fleet of instances behind one clock.

    A query of the round is *pending* (submittable), *deferred* (not arrived
    yet, or backing off before a retry), running, *finished* or terminally
    *failed*; :attr:`state_arrays` follows every transition.  Placement
    (``submit`` returns a *global* connection id: the instance's offset plus
    the local one), ``cancel``, park/unpark, health and the instance context
    are written here once; a subclass differs only in how an instance
    predicts its next event (its ``advance``).  An event an instance has
    materialised but the fleet has not delivered — a tie, a failure buffered
    after a kill — counts as running until delivered.
    """

    #: Raised when a transition does not apply to the query's current state.
    error: ClassVar[type[BQSchedError]] = SchedulingError

    def __init__(
        self,
        batch: BatchQuerySet,
        round_id: int,
        strategy: str,
        units: Sequence[UnitT],
        speeds: tuple[float, ...],
    ) -> None:
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
        self.instances = list(units)
        self._speeds = speeds
        self._placement: dict[int, int] = {}
        # Per-instance completions that tied with a delivered one, each with
        # the execution record captured when it was materialised; drained in
        # instance order before the clock moves again.
        self._instance_events: list[list[InstanceEvent]] = [[] for _ in self.instances]
        counts = [unit.num_connections for unit in self.instances]
        self._connection_offsets = [sum(counts[:index]) for index in range(len(counts))]
        self.num_connections = sum(counts)

    @property
    def supports_lockstep(self) -> bool:
        """Whether the vectorized engine may interleave this session's advances
        with batched model predictions (only a fault-free simulated round can)."""
        return False

    # ------------------------------------------------------------------ #
    # Fleet questions
    # ------------------------------------------------------------------ #
    @property
    def num_instances(self) -> int:
        return len(self.instances)

    def _unit(self, instance: int) -> UnitT:
        if not 0 <= instance < len(self.instances):
            raise self.error(f"instance {instance} out of range (fleet has {len(self.instances)})")
        return self.instances[instance]

    def instance_of(self, query_id: int) -> int:
        return self._placement.get(query_id, -1)

    def idle_instances(self) -> list[int]:
        """Instances that are up and have an idle connection."""
        now = self.current_time
        return [
            index
            for index, unit in enumerate(self.instances)
            if unit.idle_connections and not unit.windows.is_down(now)
        ]

    def instance_health(self) -> list[bool]:
        """Per-instance up/down health (``False`` inside an outage window or parked)."""
        now = self.current_time
        return [not unit.windows.is_down(now) for unit in self.instances]

    def next_fault_wakeup(self) -> float | None:
        """Earliest recovery instant among downed instances.

        A parked instance has no scheduled recovery (the control plane
        unparks it), so it never appears here.
        """
        now = self.current_time
        wakeups = [wakeup for unit in self.instances if (wakeup := unit.windows.recovers_at(now)) is not None]
        return min(wakeups) if wakeups else None

    def park_instance(self, instance: int) -> None:
        """Scale-down: take one instance out of the fleet.

        In-flight queries on the instance die as outage kills on the next
        advance, and the runtime requeues them on the capacity left; the
        instance takes no submissions until :meth:`unpark_instance`.
        """
        windows = self._unit(instance).windows
        if windows.parked:
            raise self.error(f"instance {instance} is already parked")
        windows.park(self.current_time)

    def unpark_instance(self, instance: int) -> None:
        """Scale-up: a parked instance's connections rejoin the idle pool."""
        windows = self._unit(instance).windows
        if not windows.parked:
            raise self.error(f"instance {instance} is not parked")
        windows.unpark()

    def parked_instances(self) -> list[int]:
        return [index for index, unit in enumerate(self.instances) if unit.windows.parked]

    def cancel(self, query_id: int) -> int:
        """Kill a running query wherever it was placed and requeue it.

        Returns the freed *global* connection id, as events report it.
        """
        instance = self._placement.get(query_id, -1)
        if instance < 0 or query_id not in self.instances[instance].running:
            raise self.error(f"query {query_id} is not running and cannot be cancelled")
        connection = self.instances[instance].withdraw(query_id)
        self.pending.append(query_id)
        self.state_arrays.mark_pending(query_id)
        return self._connection_offsets[instance] + connection

    def instance_num_running(self) -> list[int]:
        """Running queries per instance, killed ones with undelivered failures included.

        Observable non-intrusively: every submission and completion is an
        event the scheduler sees, whichever tenant placed the query.
        """
        return [unit.num_running for unit in self.instances]

    def speed_factors(self) -> tuple[float, ...]:
        return self._speeds

    def instance_context(self) -> np.ndarray:
        """Observable per-instance context, shape ``(num_instances, 4)``.

        Columns: relative speed (the profile, known to the operator), busy
        connection fraction, capacity share of the fleet's connections and
        buffer-pool fill (zero on the simulator, which has no buffer pool).
        The scheduler knows where it placed queries and what the fleet looks
        like; it never reads engine internals.
        """
        context = np.zeros((len(self.instances), INSTANCE_FEATURE_DIM), dtype=np.float64)
        total_connections = max(1, self.num_connections)
        for index, unit in enumerate(self.instances):
            context[index, 0] = self._speeds[index]
            context[index, 1] = unit.num_running / unit.num_connections
            context[index, 2] = unit.num_connections / total_connections
            context[index, 3] = unit.buffer_fill
        return context

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
    # Session protocol: state
    # ------------------------------------------------------------------ #
    @property
    def running(self) -> dict[int, RunningQueryState]:
        """Running queries across every instance, undelivered ties included.

        A buffered tie has left its instance's running set, but until it is
        delivered the query is in flight for the scheduler (dropping it
        would make a snapshot report a finished query as pending); its
        reconstructed state has zero remaining work.
        """
        merged: dict[int, RunningQueryState] = {}
        for unit in self.instances:
            merged.update(unit.running)
        for events in self._instance_events:
            for event, record in events:
                if record is None:  # failed attempt: no record, nothing to reconstruct
                    continue
                merged[event.query_id] = RunningQueryState(
                    query=self.batch[event.query_id],
                    parameters=record.parameters,
                    connection=record.connection,
                    submit_time=record.submit_time,
                    remaining_work=0.0,
                    total_work=max(record.finish_time - record.submit_time, _MIN_TOTAL_WORK),
                )
        return merged

    @property
    def has_idle_connection(self) -> bool:
        now = self.current_time
        return any(unit.idle_connections and not unit.windows.is_down(now) for unit in self.instances)

    @property
    def num_running(self) -> int:
        """In-flight queries, undelivered ties and failures included."""
        buffered = sum(len(events) for events in self._instance_events)
        return sum(unit.num_running for unit in self.instances) + buffered

    # ------------------------------------------------------------------ #
    # Placement and delivery
    # ------------------------------------------------------------------ #
    def _check_submit(self, query_id: int, instance: int) -> UnitT:
        """The unit a pending query may be placed on now (raises otherwise)."""
        unit = self._unit(instance)
        if query_id not in self.pending:
            raise self.error(f"query {query_id} is not pending")
        if unit.windows.is_down(self.current_time):
            raise self.error(f"instance {instance} is down and accepts no submissions")
        if not unit.idle_connections:
            raise self.error(f"instance {instance} has no idle connection")
        return unit

    def _record_submit(self, query_id: int, instance: int, connection: int) -> int:
        """Record a query placed on ``instance``; returns its global connection id."""
        self.pending.remove(query_id)
        self._placement[query_id] = instance
        self.state_arrays.mark_running(query_id, self.current_time)
        return self._connection_offsets[instance] + connection

    def _demote_buffered_failures(self, unit: UnitT) -> None:
        """Killed queries whose failures wait on ``unit`` are already requeued: they read as pending."""
        for event in unit.fault_events:
            self.state_arrays.mark_pending(event.query_id)

    def _pop_buffered(self) -> CompletionEvent | None:
        for index, events in enumerate(self._instance_events):
            if events:
                return self._record(*events.pop(0), index)
        return None

    def _record(self, event: CompletionEvent, local: QueryExecutionRecord | None, instance: int) -> CompletionEvent:
        """Deliver one instance event: global connection id, log record, state arrays."""
        connection = self._connection_offsets[instance] + event.connection
        if event.failed:
            # Nothing was logged or finished: the query returns to pending and
            # the failure propagates with global ids.
            self.pending.append(event.query_id)
            self.state_arrays.mark_pending(event.query_id)
            return CompletionEvent(
                query_id=event.query_id,
                finish_time=event.finish_time,
                connection=connection,
                instance=instance,
                failed=True,
                failure=event.failure,
            )
        assert local is not None
        self.finished[event.query_id] = event.finish_time
        self.state_arrays.mark_finished(event.query_id)
        self.log.add(
            QueryExecutionRecord(
                query_id=local.query_id,
                query_name=local.query_name,
                template_id=local.template_id,
                connection=connection,
                parameters=local.parameters,
                submit_time=local.submit_time,
                finish_time=local.finish_time,
                instance=instance,
            )
        )
        return CompletionEvent(
            query_id=event.query_id,
            finish_time=event.finish_time,
            connection=connection,
            instance=instance,
        )
