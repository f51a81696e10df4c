"""The event-driven execution runtime: multi-tenant rounds, many instances.

BQSched is non-intrusive: the scheduler only submits queries to connections
and observes completion events.  :class:`ExecutionRuntime` makes that
interface literal.  It owns ONE backend session per round — a
:class:`~repro.dbms.soa.FleetSession` over the instances of the backend: one
for a single engine, N for a :class:`~repro.dbms.Cluster`, and those of the
learned simulator's fleet — and multiplexes it between N *tenants*:
independent batch query sets that share the engine's connections, buffer
pool and contention model while keeping their own pending sets, logs and
metrics.  The runtime advances the engine to the next event (a query
completion, or a scheduled streaming arrival from the
:class:`~repro.runtime.EventQueue`) and dispatches it to the owning tenant.

Tenants interact through :class:`TenantSession`, which speaks exactly the
session protocol :class:`~repro.core.env.SchedulingEnv` already consumes —
the environment is a thin runtime client, and single-tenant closed-batch
rounds through the runtime are bit-for-bit identical to driving the engine
session directly (verified by digest in ``tests/test_runtime.py``).

Global/local id mapping: tenant batches are concatenated in registration
order into one union batch, so tenant ``t`` with offset ``o`` owns global
ids ``[o, o + len(batch))``; every event a tenant sees carries its *local*
id, which is what keeps per-tenant logs disjoint and self-consistent.

Instance routing: the shared session routes submissions to engine
*instances* (``submit`` takes a placement; a single engine has instance 0
only) and each instance keeps its own completion buffer; the session merges
those per-instance event streams into the single time-ordered stream the
runtime consumes, alongside the scheduled arrivals of the global
:class:`~repro.runtime.EventQueue`.  Completion events then carry the
instance they happened on, so tenants can attribute latency to placement.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from ..dbms.engine import CompletionEvent, RunningQueryState
from ..dbms.faults import FAILURE_OUTAGE, FAILURE_TIMEOUT
from ..dbms.logs import QueryExecutionRecord, RoundLog
from ..exceptions import SchedulingError
from ..seeding import SeedSpawner
from ..workloads import ArrivalProcess, BatchQuerySet
from .controlplane import ControlPlane, TenantClass
from .events import (
    InstanceRecovery,
    QueryArrival,
    QueryCompletion,
    QueryFailure,
    QueryRetry,
    QueryShed,
    QueryTimeout,
    RuntimeEvent,
)
from .queue import EventQueue

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..dbms.faults import FailureProfile
    from ..dbms.params import RunningParameters

__all__ = ["ExecutionRuntime", "RuntimeTenant", "TenantSession"]

#: Root of the arrival-sampling entropy tree; ``derive(round_id, offset)``
#: reproduces the historical ``default_rng((0xA881, round_id, offset))``.
_ARRIVAL_SEEDS = SeedSpawner(0xA881)


@dataclass
class _TenantState:
    """Registration-time description of one tenant."""

    name: str
    batch: BatchQuerySet
    arrivals: "ArrivalProcess | np.ndarray | None"
    offset: int
    session: "TenantSession | None" = None
    claimed: bool = False
    tenant_class: "TenantClass | None" = None


class ExecutionRuntime:
    """Advances one shared backend session and dispatches events to tenants.

    ``backend`` opens the rounds: a :class:`~repro.dbms.DatabaseEngine`, a
    :class:`~repro.dbms.Cluster` or a :class:`~repro.perf.SimulatedCluster`,
    whose ``new_session`` returns a :class:`~repro.dbms.soa.FleetSession` —
    not another runtime's :class:`RuntimeTenant`.  ``faults`` is the one way
    a :class:`~repro.dbms.faults.FailureProfile` enters a round: the runtime
    passes it to the backend's ``new_session`` for every round it opens.

    Arrival handling, retry decisions and elastic fleet sizing all flow
    through one :class:`~repro.runtime.controlplane.ControlPlane`, the one
    owner of each decision.  Its ``retry`` policy governs how failed attempts
    are handled — backoff re-arrivals through the event queue, straggler
    timeout kills, and the terminal-failure fallback once the attempt budget
    is exhausted; its admission controller can *shed* arrivals under
    overload, and its autoscaler parks and unparks instances with the
    backlog.  Instance-outage kills are *always* requeued (retry policy or
    not): an outage is the fleet's fault, not the query's.  The default
    control plane has no retry policy, admits everything and never scales;
    with ``faults`` unset too, every code path is bit-identical to the
    fault-free tree.
    """

    def __init__(
        self,
        backend: Any,
        faults: "FailureProfile | None" = None,
        control: "ControlPlane | None" = None,
    ) -> None:
        if isinstance(backend, RuntimeTenant):
            raise SchedulingError(
                "an ExecutionRuntime needs a backend that opens fleet sessions (an engine, a cluster or a "
                "simulator), not another runtime's tenant: register the tenant on that runtime instead"
            )
        self.backend = backend
        self.control = control if control is not None else ControlPlane()
        self.faults = faults
        self._tenants: dict[str, _TenantState] = {}
        self._offsets: list[int] = []
        self._order: list[str] = []
        #: Scheduled-event queue.
        self.events = EventQueue()
        self._shared: Any = None
        #: Submissions so far per *global* query id (1-based after the first
        #: submit); strictly monotonic — attempt numbers are never reused, so
        #: a scheduled timeout check can always tell whether its attempt is
        #: still the live one.  Cleared when a fresh round opens.
        self._attempts: dict[int, int] = {}
        #: Outage kills per global query id: these don't count against
        #: ``RetryPolicy.max_attempts`` (the fleet failed, not the query).
        self._outage_kills: dict[int, int] = {}

    # ------------------------------------------------------------------ #
    # Tenant registration
    # ------------------------------------------------------------------ #
    def register(
        self,
        name: str,
        batch: BatchQuerySet,
        arrivals: "ArrivalProcess | Sequence[float] | None" = None,
        tenant_class: "TenantClass | None" = None,
    ) -> "RuntimeTenant":
        """Register a tenant before any round opens.

        ``arrivals`` opens the tenant's batch into a stream: either an
        :class:`~repro.workloads.ArrivalProcess` (re-sampled every round) or
        explicit per-query arrival times.  ``None`` keeps the closed-batch
        scenario (everything pending at time zero).

        ``tenant_class`` assigns the tenant a service tier
        (:class:`~repro.runtime.controlplane.TenantClass`): its priority
        drives admission exemption and fairness shaping, its latency SLO is
        graded per completion, and its deadline caps retries.  ``None`` (the
        default) keeps the tenant classless and bit-identical to before.
        """
        if self._shared is not None:
            raise SchedulingError("tenants must register before the first round opens")
        if name in self._tenants:
            raise SchedulingError(f"tenant {name!r} is already registered")
        times: "ArrivalProcess | np.ndarray | None"
        if arrivals is not None and not isinstance(arrivals, ArrivalProcess):
            times = np.asarray(list(arrivals), dtype=np.float64)
            if times.shape != (len(batch),):
                raise SchedulingError("explicit arrival times must provide one time per query")
            if not (times >= 0).all() or not np.isfinite(times).all():
                raise SchedulingError("arrival times must be finite and >= 0")
        else:
            times = arrivals
        if tenant_class is not None and not isinstance(tenant_class, TenantClass):
            raise SchedulingError("tenant_class must be a TenantClass (or None)")
        offset = sum(len(state.batch) for state in self._tenants.values())
        self._tenants[name] = _TenantState(
            name=name, batch=batch, arrivals=times, offset=offset, tenant_class=tenant_class
        )
        self._offsets.append(offset)
        self._order.append(name)
        return RuntimeTenant(self, name)

    @property
    def num_tenants(self) -> int:
        return len(self._tenants)

    @property
    def shared_session(self) -> Any:
        """The backend session of the current round (read-only access)."""
        if self._shared is None:
            raise SchedulingError("no round is open")
        return self._shared

    def sessions(self) -> "dict[str, TenantSession]":
        """The live tenant sessions of the current round."""
        if self._shared is None:
            raise SchedulingError("no round is open")
        live = {}
        for name in self._order:
            session = self._tenants[name].session
            assert session is not None
            live[name] = session
        return live

    # ------------------------------------------------------------------ #
    # Round lifecycle
    # ------------------------------------------------------------------ #
    def open_for(
        self,
        name: str,
        batch: BatchQuerySet,
        num_connections: int | None = None,
        strategy: str = "",
        round_id: int | None = None,
    ) -> "TenantSession":
        """Open (or join) a round on behalf of tenant ``name``.

        The first tenant to ask opens the shared round with its parameters;
        the remaining tenants join it and their ``round_id``/``strategy``
        arguments are ignored.  Once every tenant's round is complete, the
        next call opens a fresh round.  A lone tenant may abandon an
        unfinished round (the RL training loop resets mid-episode during
        evaluation); with multiple live tenants that would corrupt the peers'
        rounds and raises instead.
        """
        if name not in self._tenants:
            raise SchedulingError(f"unknown tenant {name!r}")
        if round_id is not None and round_id < 0:
            raise SchedulingError(f"round_id must be >= 0 (it seeds the round's streams), got {round_id}")
        state = self._tenants[name]
        if len(batch) != len(state.batch):
            raise SchedulingError(
                f"tenant {name!r} registered {len(state.batch)} queries but requested {len(batch)}"
            )
        if self._shared is not None:
            if not state.claimed:
                state.claimed = True
                assert state.session is not None
                return state.session
            others_done = all(
                other.session is None or other.session.is_done
                for other in self._tenants.values()
                if other.name != name
            )
            if not others_done:
                raise SchedulingError(
                    f"tenant {name!r} cannot reopen: peers are still scheduling in the shared round"
                )
        self._open_round(num_connections=num_connections, strategy=strategy, round_id=round_id)
        state.claimed = True
        assert state.session is not None
        return state.session

    def _open_round(self, num_connections: int | None, strategy: str, round_id: int | None) -> None:
        union = BatchQuerySet([query for name in self._order for query in self._tenants[name].batch])
        self._shared = self.backend.new_session(
            union,
            num_connections=num_connections,
            strategy=strategy,
            round_id=round_id,
            faults=self.faults,
        )
        self.events.clear()
        self._attempts.clear()
        self._outage_kills.clear()
        self.control.reset_round()
        opened_round_id = self._shared.log.round_id
        for state in self._tenants.values():
            times = self._arrival_times(state, opened_round_id)
            state.session = TenantSession(self, state, arrival_times=times)
            state.claimed = False
            if times is not None:
                deferred = [state.offset + i for i in range(len(state.batch)) if times[i] > 0.0]
                self._shared.defer(deferred)
                # Bulk-schedule the round's arrivals: one heapify instead of
                # one sift-up per deferred query.
                self.events.extend(
                    QueryArrival(time=float(times[i]), tenant=state.name, query_id=i)
                    for i in range(len(state.batch))
                    if times[i] > 0.0
                )
        # Elastic fleets start at their configured initial size: instances
        # beyond it are parked before any submission happens.
        self.control.on_round_open(self._shared)

    def _arrival_times(self, state: _TenantState, round_id: int) -> "np.ndarray | None":
        if state.arrivals is None:
            return None
        if isinstance(state.arrivals, ArrivalProcess):
            rng = _ARRIVAL_SEEDS.derive(round_id, state.offset)
            return np.asarray(state.arrivals.times(len(state.batch), rng), dtype=np.float64)
        return state.arrivals

    @property
    def _round_done(self) -> bool:
        return self._shared is not None and self._shared.is_done

    @property
    def is_done(self) -> bool:
        """Whether the current round has drained every tenant's work."""
        return self._round_done

    @property
    def current_time(self) -> float:
        return self.shared_session.current_time

    # ------------------------------------------------------------------ #
    # Event loop
    # ------------------------------------------------------------------ #
    def advance(self) -> RuntimeEvent:
        """Advance the engine to the next event, dispatch it, and return it.

        The next event is either the earliest query completion (or failure)
        the backend predicts, the earliest scheduled event (arrival, retry
        re-arrival, timeout check), or — on a faulty backend — the earliest
        instance recovery.  Ties resolve in favour of the completion (its
        finish instant is at or before the scheduled event's), which keeps
        the closed single-tenant path identical to driving the engine
        session directly.  Stale timeout checks are consumed silently and
        the loop keeps advancing until a real event surfaces.

        With an autoscaling control plane, every dispatched event is also a
        fleet-sizing tick: the backlog is re-measured and an instance may be
        parked or unparked before the event returns to the caller.
        """
        event = self._advance_event()
        if self.control.has_autoscaler:
            self.control.autoscale(
                self.shared_session, self._total_backlog(), self.shared_session.current_time
            )
        return event

    def _total_backlog(self) -> int:
        """Pending-but-unsubmitted queries across every tenant right now."""
        backlog = 0
        for state in self._tenants.values():
            if state.session is not None:
                backlog += len(state.session.pending)
        return backlog

    def _advance_event(self) -> RuntimeEvent:
        shared = self.shared_session
        while True:
            next_scheduled = self.events.peek_time()
            wakeup = shared.next_fault_wakeup()
            limits = [value for value in (next_scheduled, wakeup) if value is not None]
            limit = min(limits) if limits else None
            if shared.num_running:
                completion = shared.advance(limit=limit)
                if completion is not None:
                    return self._dispatch_completion(completion)
            elif limit is None:
                raise self._deadlock_error()
            else:
                shared.advance(limit=limit)
            # Single head access: pops the scheduled event iff it is due
            # (the queue is untouched between the peek above and here, so
            # this is exactly the former peek-then-pop pair collapsed).
            due = self.events.pop_due(shared.current_time)
            if due is not None:
                event = self._apply_scheduled_event(due)
                if event is not None:
                    return event
                # Stale timeout check: nothing happened — but popping it may
                # have idled the clock across a recovery boundary, and then
                # control must return to the schedulers (capacity is back).
                if wakeup is not None and shared.current_time >= wakeup:
                    return InstanceRecovery(time=shared.current_time)
                continue
            # The clock stopped at a fault wake-up: downed capacity returned.
            return InstanceRecovery(time=shared.current_time)

    def _deadlock_error(self) -> SchedulingError:
        """Diagnostic for a stalled round: who still holds undrained work.

        Shed (not-admitted) arrivals are named explicitly: an over-aggressive
        admission policy that starves the round should read as exactly that,
        not as a drain bug.
        """
        details = []
        for name in self._order:
            session = self._tenants[name].session
            if session is None or session.is_done:
                continue
            details.append(
                f"{name!r}: pending={len(session.pending)}, running={session.num_running}, "
                f"unarrived={len(session.unarrived_ids())}, awaiting_retry={len(session.retrying_ids())}, "
                f"shed={session.num_shed}"
            )
        undrained = "; ".join(details) if details else "none (shared session holds orphaned work)"
        shed_note = ""
        shed_counts = {
            name: state.session.num_shed
            for name, state in sorted(self._tenants.items())
            if state.session is not None and state.session.num_shed
        }
        if shed_counts:
            per_tenant = ", ".join(f"{name!r}: {count}" for name, count in shed_counts.items())
            shed_note = (
                f" Admission control shed {sum(shed_counts.values())} arrival(s) this round "
                f"({per_tenant}) — shed queries never become pending, so an over-aggressive "
                "admission policy can leave tenants with nothing left to run."
            )
        return SchedulingError(
            "cannot advance: nothing is running, no event is scheduled and no recovery is "
            f"pending — the round is deadlocked. Undrained tenants: {undrained}.{shed_note}"
        )

    def _apply_scheduled_event(self, event: RuntimeEvent) -> "RuntimeEvent | None":
        """Apply an already-popped scheduled event (``None`` if it was stale)."""
        state = self._tenants[event.tenant]
        assert state.session is not None
        if isinstance(event, QueryArrival):
            if not self.control.admits_all and not self.control.admit(state.tenant_class, event.time):
                # Shed: the arrival is refused under overload.  The query is
                # terminally failed straight from deferred — it never becomes
                # pending, consumes no connection and no retry budget — and
                # the tenant's shed ledger records the decision.
                self.shared_session.mark_failed(state.offset + event.query_id)
                shed = QueryShed(time=event.time, tenant=state.name, query_id=event.query_id)
                state.session._on_shed(shed)
                return shed
            self.shared_session.release(state.offset + event.query_id)
            state.session._on_arrival(event)
            return event
        if isinstance(event, QueryRetry):
            self.shared_session.release(state.offset + event.query_id)
            state.session._on_retry(event)
            return event
        assert isinstance(event, QueryTimeout)
        return self._apply_timeout(event, state)

    def _apply_timeout(self, event: QueryTimeout, state: _TenantState) -> "QueryFailure | None":
        """Kill-and-requeue a straggler, unless the check is stale."""
        shared = self.shared_session
        global_id = state.offset + event.query_id
        if self._attempts.get(global_id, 0) != event.attempt or global_id not in shared.running:
            return None
        instance = shared.instance_of(global_id)
        connection = shared.cancel(global_id)
        return self._register_failure(
            state,
            event.query_id,
            time=shared.current_time,
            connection=connection,
            instance=instance,
            reason=FAILURE_TIMEOUT,
        )

    def _register_failure(
        self,
        state: _TenantState,
        local_id: int,
        time: float,
        connection: int,
        instance: int,
        reason: str,
    ) -> QueryFailure:
        """Decide one failed attempt's future: retry re-arrival or terminal.

        By the time this runs the shared session holds the query *pending*
        again (failed attempts always return there); retrying moves it to
        deferred until the scheduled :class:`QueryRetry` releases it.
        """
        global_id = state.offset + local_id
        attempt = self._attempts.get(global_id, 1)
        shared = self.shared_session
        if reason == FAILURE_OUTAGE:
            # Outage kills requeue immediately and don't consume any of the
            # retry budget: the dead instance is excluded naturally (it has
            # no idle connections until it recovers), so the resubmission
            # lands on surviving capacity.  The submission counter itself
            # stays monotonic — reusing attempt numbers would let a stale
            # pre-outage timeout check alias onto the fresh attempt.
            self._outage_kills[global_id] = self._outage_kills.get(global_id, 0) + 1
        give_up_at: float | None = None
        if state.tenant_class is not None and state.tenant_class.deadline is not None:
            assert state.session is not None
            give_up_at = state.session.arrival_time(local_id) + state.tenant_class.deadline
        will_retry, delay = self.control.decide_retry(
            reason=reason,
            attempt=attempt,
            outage_kills=self._outage_kills.get(global_id, 0),
            time=time,
            give_up_at=give_up_at,
        )
        retry_at: float | None = None
        if will_retry:
            retry_at = time + delay
            shared.defer([global_id])
            self.events.push(
                QueryRetry(time=retry_at, tenant=state.name, query_id=local_id, attempt=attempt + 1)
            )
        else:
            shared.mark_failed(global_id)
        event = QueryFailure(
            time=time,
            tenant=state.name,
            query_id=local_id,
            connection=connection,
            instance=instance,
            reason=reason,
            attempt=attempt,
            will_retry=will_retry,
            retry_at=retry_at,
        )
        assert state.session is not None
        state.session._on_failure(event)
        return event

    def _note_submit(self, state: _TenantState, local_id: int) -> None:
        """Count one submission attempt and arm its straggler timeout."""
        global_id = state.offset + local_id
        attempt = self._attempts.get(global_id, 0) + 1
        self._attempts[global_id] = attempt
        retry = self.control.retry
        if retry is not None and retry.timeout is not None:
            self.events.push(
                QueryTimeout(
                    time=self.shared_session.current_time + retry.timeout,
                    tenant=state.name,
                    query_id=local_id,
                    attempt=attempt,
                )
            )

    def _dispatch_completion(self, completion: CompletionEvent) -> "QueryCompletion | QueryFailure":
        state, local_id = self._locate(completion.query_id)
        if completion.failed:
            return self._register_failure(
                state,
                local_id,
                time=completion.finish_time,
                connection=completion.connection,
                instance=completion.instance,
                reason=completion.failure,
            )
        record = self.shared_session.log.records[-1]
        event = QueryCompletion(
            time=completion.finish_time,
            tenant=state.name,
            query_id=local_id,
            connection=completion.connection,
            instance=completion.instance,
        )
        assert state.session is not None
        state.session._on_completion(event, record)
        return event

    def _locate(self, global_id: int) -> tuple[_TenantState, int]:
        index = bisect_right(self._offsets, global_id) - 1
        if index < 0:
            raise SchedulingError(f"global query id {global_id} belongs to no tenant")
        state = self._tenants[self._order[index]]
        local_id = global_id - state.offset
        if not 0 <= local_id < len(state.batch):
            raise SchedulingError(f"global query id {global_id} belongs to no tenant")
        return state, local_id


class RuntimeTenant:
    """A tenant that an environment takes in place of a backend.

    It is not a ``SessionBackend``: its ``new_session`` takes no ``faults``
    (the runtime's own profile applies), and no runtime accepts it as a
    backend.  Handing a :class:`RuntimeTenant` to
    :class:`~repro.core.env.SchedulingEnv` makes the environment a client of
    the shared runtime: ``new_session`` opens (or joins) the runtime's shared
    round and returns the tenant's :class:`TenantSession`.
    """

    def __init__(self, runtime: ExecutionRuntime, name: str) -> None:
        self.runtime = runtime
        self.name = name

    def new_session(
        self,
        batch: BatchQuerySet,
        num_connections: int | None = None,
        strategy: str = "",
        round_id: int | None = None,
    ) -> "TenantSession":
        return self.runtime.open_for(
            self.name,
            batch,
            num_connections=num_connections,
            strategy=strategy,
            round_id=round_id,
        )

    def __repr__(self) -> str:
        return f"RuntimeTenant({self.name!r}, tenants={self.runtime.num_tenants})"


class TenantSession:
    """One tenant's view of a shared runtime round.

    Exposes the same session protocol as the raw engine/simulator sessions
    (pending/running/finished bookkeeping, ``submit``, ``advance``, a round
    log) but scoped to the tenant's local query ids, delegating execution to
    the shared backend session through the runtime.  ``advance`` pumps the
    runtime's event loop until *this* tenant receives an event or can make a
    scheduling decision again.
    """

    def __init__(
        self,
        runtime: ExecutionRuntime,
        state: _TenantState,
        arrival_times: "np.ndarray | None",
    ) -> None:
        self._runtime = runtime
        self._state = state
        self.name = state.name
        self.batch = state.batch
        shared = runtime.shared_session
        # A tenant session lives exactly one round and the runtime installs
        # the backend session before constructing its tenants, so the shared
        # session can be pinned here instead of re-resolved per delegation.
        self._shared_session = shared
        self.num_connections = shared.num_connections
        self.log = RoundLog(round_id=shared.log.round_id, strategy=shared.log.strategy)
        self._arrival_times = arrival_times
        if arrival_times is None:
            self.pending = [query.query_id for query in state.batch]
            self._unarrived: set[int] = set()
        else:
            self.pending = [query.query_id for query in state.batch if arrival_times[query.query_id] <= 0.0]
            self._unarrived = {query.query_id for query in state.batch if arrival_times[query.query_id] > 0.0}
        self._running: set[int] = set()
        self.finished: dict[int, float] = {}
        #: Terminally failed queries (error/timeout retries exhausted).
        self.failed: dict[int, float] = {}
        #: Arrivals the admission controller refused, and when.  Shed queries
        #: also appear in ``failed`` (they are terminally failed the instant
        #: they would have arrived) — this ledger distinguishes load shedding
        #: from exhausted retries.
        self.shed: dict[int, float] = {}
        #: Queries awaiting a scheduled retry re-arrival.
        self._retrying: set[int] = set()
        self.num_timeouts = 0
        self.num_retries = 0
        #: SLO grading (only counted when the tenant's class sets a
        #: ``latency_slo``): completions at or under the target vs over it.
        self.num_slo_met = 0
        self.num_slo_misses = 0
        offset = state.offset
        count = len(state.batch)
        #: Failed attempts per query (errors, timeout kills, outage kills).
        self.failed_attempts = np.zeros(count, dtype=np.int64)
        # SoA snapshot view: live slices of the shared session's state
        # arrays scoped to this tenant's global-id range.
        self.soa_status: np.ndarray = shared.state_arrays.status[offset : offset + count]
        self.soa_submit_time: np.ndarray = shared.state_arrays.submit_time[offset : offset + count]

    # -- identity ------------------------------------------------------- #
    @property
    def _shared(self) -> Any:
        return self._shared_session

    @property
    def supports_lockstep(self) -> bool:
        """Whether the vectorized lockstep fast path may drive this session.

        Only single-tenant closed rounds on a lockstep-capable backend (the
        learned simulator) qualify: with peers or scheduled arrivals the
        shared clock is not this tenant's to batch.
        """
        return (
            self._runtime.num_tenants == 1
            and not self._unarrived
            and not self._runtime.events
            and self._shared.supports_lockstep
        )

    # -- protocol properties -------------------------------------------- #
    @property
    def current_time(self) -> float:
        return self._shared.current_time

    @property
    def is_done(self) -> bool:
        return (
            not self.pending
            and not self._running
            and not self._unarrived
            and not self._retrying
        )

    @property
    def has_idle_connection(self) -> bool:
        return self._shared.has_idle_connection

    @property
    def has_pending(self) -> bool:
        return bool(self.pending)

    @property
    def num_running(self) -> int:
        return len(self._running)

    @property
    def makespan(self) -> float:
        return max(self.finished.values(), default=0.0)

    @property
    def tenant_class(self) -> "TenantClass | None":
        """The tenant's service tier (``None`` when classless)."""
        return self._state.tenant_class

    @property
    def num_failed_attempts(self) -> int:
        """Failed attempts this round, over every query."""
        return int(self.failed_attempts.sum())

    @property
    def num_shed(self) -> int:
        """Arrivals the admission controller refused this round."""
        return len(self.shed)

    def unarrived_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self._unarrived))

    def retrying_ids(self) -> tuple[int, ...]:
        """Queries whose failed attempt awaits its scheduled retry re-arrival."""
        return tuple(sorted(self._retrying))

    def failure_counts(self) -> dict[int, int]:
        """Failed attempts per tenant-local query id (empty when fault-free)."""
        failed = self.failed_attempts
        return {int(query_id): int(failed[query_id]) for query_id in np.flatnonzero(failed)}

    def arrival_time(self, query_id: int) -> float:
        """When the query arrives (0.0 in the closed scenario)."""
        if self._arrival_times is None:
            return 0.0
        return float(self._arrival_times[query_id])

    def running_states(self) -> list[RunningQueryState]:
        offset = self._state.offset
        states = []
        for global_id, state in self._shared.running.items():
            local_id = global_id - offset
            if local_id in self._running:
                if offset == 0:
                    states.append(state)
                else:
                    states.append(
                        RunningQueryState(
                            query=self.batch[local_id],
                            parameters=state.parameters,
                            connection=state.connection,
                            submit_time=state.submit_time,
                            remaining_work=state.remaining_work,
                            total_work=state.total_work,
                        )
                    )
        return states

    # -- cluster topology (delegated to the shared session) -------------- #
    @property
    def num_instances(self) -> int:
        """Engine instances behind the shared session (1 on a single engine)."""
        return self._shared.num_instances

    def idle_instances(self) -> list[int]:
        return self._shared.idle_instances()

    def instance_of(self, query_id: int) -> int:
        """The instance a tenant-local query was placed on (-1 if never)."""
        return self._shared.instance_of(self._state.offset + query_id)

    def instance_context(self) -> np.ndarray:
        return self._shared.instance_context()

    def instance_num_running(self) -> list[int]:
        """Fleet-wide per-instance occupancy (every tenant's queries)."""
        return self._shared.instance_num_running()

    def speed_factors(self) -> tuple[float, ...]:
        return self._shared.speed_factors()

    # -- protocol methods ------------------------------------------------ #
    def submit(self, query_id: int, parameters: "RunningParameters", instance: int = 0) -> int:
        """Submit a pending local query to ``instance`` of the shared backend.

        The shared session rejects an instance its backend does not have
        (anything but 0 on a single engine) with the backend's error type.
        """
        if query_id not in self.pending:
            raise SchedulingError(f"query {query_id} is not pending for tenant {self.name!r}")
        connection = self._shared.submit(self._state.offset + query_id, parameters, instance=instance)
        self.pending.remove(query_id)
        self._running.add(query_id)
        self._runtime._note_submit(self._state, query_id)
        return connection

    def advance(self, limit: float | None = None) -> "RuntimeEvent | None":
        """Pump the runtime until this tenant gets an event or can decide.

        Peers' events are dispatched to them along the way.  Returns the
        event this tenant received, or ``None`` when a peer's completion
        freed a connection this tenant can now use.
        """
        if self.is_done:
            raise SchedulingError(f"tenant {self.name!r} has no more work in this round")
        while True:
            event = self._runtime.advance()
            if event.tenant == self.name:
                return event
            if self.has_pending and self._shared.has_idle_connection:
                return None

    # -- lockstep delegation (vectorized simulator rollouts) ------------- #
    @property
    def perf(self) -> Any:
        return self._shared.perf

    def advance_features(self) -> Any:
        return self._shared.advance_features()

    def apply_advance(self, groups: Any, predictions: Any) -> None:
        completion = self._shared.apply_advance(groups, predictions)
        self._runtime._dispatch_completion(completion)

    # -- event sinks ------------------------------------------------------ #
    def _on_arrival(self, event: QueryArrival) -> None:
        self._unarrived.discard(event.query_id)
        self.pending.append(event.query_id)

    def _on_shed(self, event: QueryShed) -> None:
        # The runtime has already marked the query failed in the shared
        # session (straight from deferred); mirror that here so ``is_done``
        # and the report see a drained, not stranded, query.
        self._unarrived.discard(event.query_id)
        self.shed[event.query_id] = event.time
        self.failed[event.query_id] = event.time

    def _on_failure(self, event: QueryFailure) -> None:
        self._running.discard(event.query_id)
        self.failed_attempts[event.query_id] += 1
        if event.reason == FAILURE_TIMEOUT:
            self.num_timeouts += 1
        if event.will_retry:
            self.num_retries += 1
            self._retrying.add(event.query_id)
        else:
            self.failed[event.query_id] = event.time

    def _on_retry(self, event: QueryRetry) -> None:
        self._retrying.discard(event.query_id)
        self.pending.append(event.query_id)

    def _on_completion(self, event: QueryCompletion, record: QueryExecutionRecord) -> None:
        self._running.discard(event.query_id)
        self.finished[event.query_id] = event.time
        tenant_class = self._state.tenant_class
        if tenant_class is not None and tenant_class.latency_slo is not None:
            latency = event.time - self.arrival_time(event.query_id)
            if latency <= tenant_class.latency_slo:
                self.num_slo_met += 1
            else:
                self.num_slo_misses += 1
        if self._state.offset == 0:
            self.log.add(record)
        else:
            self.log.add(
                QueryExecutionRecord(
                    query_id=event.query_id,
                    query_name=record.query_name,
                    template_id=record.template_id,
                    connection=record.connection,
                    parameters=record.parameters,
                    submit_time=record.submit_time,
                    finish_time=record.finish_time,
                    instance=record.instance,
                )
            )

    # -- metrics ----------------------------------------------------------- #
    def latencies(self) -> dict[int, float]:
        """Per-query latency: finish time minus arrival time."""
        return {
            query_id: finish - self.arrival_time(query_id)
            for query_id, finish in self.finished.items()
        }

    def __repr__(self) -> str:
        return (
            f"TenantSession({self.name!r}, pending={len(self.pending)}, "
            f"running={len(self._running)}, finished={len(self.finished)}, "
            f"unarrived={len(self._unarrived)})"
        )
