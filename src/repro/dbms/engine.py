"""Fluid-model discrete-event engine for concurrent query execution.

This is the substitute for the paper's real DBMS-X/Y/Z servers.  The engine
is a *black box* from the scheduler's point of view: queries are submitted to
connections with running parameters, and the only feedback is which query
finished and when.  Internally a fluid model advances all running queries
between events:

* each query's work is a blend of CPU work and I/O work derived from its plan;
* CPU rates scale with the degree of parallelism via Amdahl's law and shrink
  under contention for the profile's CPU capacity;
* I/O rates shrink under contention for I/O bandwidth and grow when a query
  shares tables with concurrently running queries or finds them in the
  shared buffer pool;
* undersized working memory causes spills that slow memory-sensitive
  operators down;
* every execution is perturbed by lognormal noise so repeated rounds of the
  same schedule differ (the σ_ov the paper reports).

The model intentionally reproduces the three phenomena the paper's
introduction identifies as the sources of scheduling head-room: resource
contention, data sharing, and long-tail queries.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..exceptions import SchedulingError, SimulationError
from ..seeding import SeedSpawner
from ..workloads import BatchQuerySet, Query
from .buffer import BufferPool
from .faults import FAILURE_ERROR, FAILURE_OUTAGE, FAULT_STREAM, FailureProfile, OutageWindow, QueryFate
from .logs import ExecutionLog, QueryExecutionRecord, RoundLog
from .params import RunningParameters
from .profiles import DBMSProfile
from .soa import BackendSession

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .cluster import Cluster

__all__ = ["DatabaseEngine", "ExecutionSession", "RunningQueryState", "CompletionEvent", "next_instance_in_rotation"]

_EPSILON = 1e-9
_SPILL_PENALTY = 0.8


@dataclass
class RunningQueryState:
    """Mutable execution state of one in-flight query."""

    query: Query
    parameters: RunningParameters
    connection: int
    submit_time: float
    remaining_work: float
    total_work: float

    @property
    def elapsed_fraction(self) -> float:
        """Fraction of the (noisy) work already completed."""
        return 1.0 - self.remaining_work / self.total_work if self.total_work > 0 else 1.0


@dataclass(frozen=True)
class CompletionEvent:
    """Returned by :meth:`ExecutionSession.advance`: one query finished.

    ``instance`` identifies the engine instance the query ran on; plain
    single-engine sessions always report instance 0, a
    :class:`~repro.dbms.cluster.ClusterSession` reports the placement chosen
    at submit time.

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


class ExecutionSession(BackendSession):
    """One scheduling round against the engine.

    The session owns the clock: queries are submitted to idle connections at
    the current time, and :meth:`advance` moves the clock to the next query
    completion, returning the corresponding event.

    Sessions also speak the event-driven dialect used by
    :class:`repro.runtime.ExecutionRuntime`: queries can be *deferred* at the
    start of a round (they exist in the batch but cannot be submitted until
    :meth:`release`, which is how streaming arrivals enter a live round), and
    :meth:`advance` accepts a ``limit`` so the runtime can stop the clock at
    the next external event (e.g. a query arrival) instead of running through
    to the next completion.
    """

    running: dict[int, RunningQueryState]

    def __init__(
        self,
        profile: DBMSProfile,
        batch: BatchQuerySet,
        num_connections: int,
        rng: np.random.Generator,
        round_id: int = 0,
        strategy: str = "",
        warm_buffer: BufferPool | None = None,
        faults: FailureProfile | None = None,
        fault_rng: np.random.Generator | None = None,
        instance: int = 0,
    ) -> None:
        if num_connections < 1:
            raise SimulationError("num_connections must be >= 1")
        if faults is not None and faults.has_random_faults and fault_rng is None:
            raise SimulationError("a FailureProfile with random faults needs a fault_rng stream")
        super().__init__(batch, round_id, strategy)
        self.profile = profile
        self.num_connections = num_connections
        self._rng = rng
        self.running = {}
        self._idle_connections: list[int] = list(range(num_connections))
        self.buffer = warm_buffer if warm_buffer is not None else BufferPool(profile.buffer_pool_rows)
        # Fault injection: fates are drawn from the dedicated fault stream at
        # submit time; a session without a profile performs zero extra draws
        # and stays bit-identical to the fault-free tree.
        self._faults = faults
        self._fault_rng = fault_rng
        self._instance = instance
        #: Outage windows governing this instance: the static profile windows
        #: plus at most one dynamic administrative window (autoscale park),
        #: kept sorted by start.  Rebuilt on park/unpark — scaling events are
        #: rare, window scans are hot.
        self._windows: tuple[OutageWindow, ...] = (
            faults.windows_for(instance) if faults is not None else ()
        )
        self._park_window: OutageWindow | None = None
        self._fates: dict[int, QueryFate] = {}
        self._fault_events: list[CompletionEvent] = []
        # Progress rates depend only on the running set (which queries, with
        # which parameters) and the buffer contents — never on remaining work
        # or the clock — so next_completion_time/advance pairs reuse one
        # computation.  Version counters invalidate the memos (the next-finish
        # one also keys on remaining work, through the work version).
        self._running_version = 0
        self._work_version = 0
        self._rates_cache: tuple[tuple[int, int], dict[int, float]] | None = None
        self._finish_cache: tuple[tuple[int, int, int], tuple[int, float]] | None = None
        # Per-query noise factors drawn once per round: the same query can be
        # faster or slower in different rounds regardless of the schedule.
        self._noise = {
            q.query_id: float(np.exp(rng.normal(0.0, profile.noise))) for q in batch
        }

    # ------------------------------------------------------------------ #
    # Scheduler-facing API
    # ------------------------------------------------------------------ #
    @property
    def has_idle_connection(self) -> bool:
        return bool(self._idle_connections) and not self.is_down

    @property
    def num_running(self) -> int:
        """In-flight queries, including failures buffered but not yet delivered."""
        return len(self.running) + len(self._fault_events)

    def idle_connections(self) -> list[int]:
        return [] if self.is_down else list(self._idle_connections)

    # ------------------------------------------------------------------ #
    # Fault-injection API
    # ------------------------------------------------------------------ #
    @property
    def is_down(self) -> bool:
        """Whether this instance is inside an outage window (or parked) right now."""
        if not self._windows:
            return False
        now = self.current_time
        return any(window.covers(now) for window in self._windows)

    def instance_health(self) -> list[bool]:
        """Per-instance up/down health (single-engine sessions have one entry)."""
        return [not self.is_down]

    def next_fault_wakeup(self) -> float | None:
        """Recovery instant of the current outage, if the instance is down.

        The event-driven runtime uses this as an extra clock limit so a round
        stalled on a fleet-wide outage wakes up when capacity returns instead
        of deadlocking.  A *parked* instance (autoscale scale-down) has no
        scheduled recovery — its window never ends — so it reports none; the
        fleet controller brings it back explicitly.
        """
        if not self._windows:
            return None
        now = self.current_time
        ends = [
            window.end
            for window in self._windows
            if window.covers(now) and math.isfinite(window.end)
        ]
        return max(ends) if ends else None

    @property
    def is_parked(self) -> bool:
        """Whether the instance is administratively down (autoscale park)."""
        return self._park_window is not None

    def park(self) -> None:
        """Administratively take the instance down: a planned, open-ended outage.

        The elastic-fleet control plane uses this for scale-down.  A park is
        an :class:`~repro.dbms.faults.OutageWindow` with no scheduled end, so
        in-flight queries die through the normal outage-kill path on the next
        advance (the runtime requeues them without consuming retry budget)
        and the instance accepts no submissions until :meth:`unpark`.
        """
        if self._park_window is not None:
            raise SchedulingError(f"instance {self._instance} is already parked")
        window = OutageWindow(
            instance=self._instance, start=self.current_time, duration=math.inf
        )
        self._park_window = window
        self._windows = tuple(sorted((*self._windows, window), key=lambda w: w.start))

    def unpark(self) -> None:
        """Bring a parked instance back: its connections rejoin the idle pool."""
        window = self._park_window
        if window is None:
            raise SchedulingError(f"instance {self._instance} is not parked")
        self._park_window = None
        self._windows = tuple(w for w in self._windows if w is not window)

    def cancel(self, query_id: int) -> int:
        """Kill a running query: free its connection, return it to pending.

        The attempt's work is wasted — nothing is logged and nothing counts
        as finished.  This is the engine half of the runtime's
        timeout-kill-and-requeue policy for stragglers.  Returns the freed
        connection id (globalised on cluster sessions).
        """
        state = self.running.pop(query_id, None)
        if state is None:
            raise SchedulingError(f"query {query_id} is not running and cannot be cancelled")
        self._idle_connections.append(state.connection)
        self._idle_connections.sort()
        self._fates.pop(query_id, None)
        self.pending.append(query_id)
        self.state_arrays.mark_pending(query_id)
        self._running_version += 1
        return state.connection

    def _outage_kill_instant(self, until: float) -> float | None:
        """Earliest instant in ``(now, until]`` at which running work must die."""
        if not self._windows or not self.running:
            return None
        for window in self._windows:
            if window.covers(self.current_time):
                return self.current_time
            if self.current_time < window.start <= until:
                return window.start
        return None

    def _kill_running(self, reason: str) -> None:
        """Kill every running query at the current instant (instance outage)."""
        for query_id in sorted(self.running):
            state = self.running.pop(query_id)
            self._idle_connections.append(state.connection)
            self._fates.pop(query_id, None)
            self.pending.append(query_id)
            self.state_arrays.mark_pending(query_id)
            self._fault_events.append(
                CompletionEvent(
                    query_id=query_id,
                    finish_time=self.current_time,
                    connection=state.connection,
                    failed=True,
                    failure=reason,
                )
            )
        self._idle_connections.sort()
        self._running_version += 1

    def buffered_failure_ids(self) -> list[int]:
        """Ids of killed queries whose failure events are still undelivered.

        After an outage kill, :meth:`advance` returns the buffered failures
        one at a time; until delivery the victims sit in the pending set.  A
        :class:`~repro.dbms.cluster.ClusterSession` reads this to demote its
        own observable-state arrays for victims beyond the first.
        """
        return [event.query_id for event in self._fault_events]

    def submit(self, query_id: int, parameters: RunningParameters, instance: int = 0) -> int:
        """Submit a pending query to an idle connection at the current time.

        A single engine is instance 0 of a one-instance backend, the only
        placement it accepts.  Returns the connection id the query was placed
        on.
        """
        if instance != 0:
            raise SchedulingError(f"instance {instance} out of range (a single engine has instance 0 only)")
        if query_id not in self.pending:
            raise SchedulingError(f"query {query_id} is not pending")
        if self.is_down:
            raise SchedulingError(f"instance {self._instance} is down and accepts no submissions")
        if not self._idle_connections:
            raise SchedulingError("no idle connection available")
        connection = self._idle_connections.pop(0)
        query = self.batch[query_id]
        noisy_work = query.total_work * self._noise[query_id]
        if self._faults is not None and self._faults.has_random_faults:
            assert self._fault_rng is not None
            fate = self._faults.draw_fate(self._fault_rng)
            if fate.hang:
                noisy_work *= self._faults.hang_factor
            if fate.error:
                noisy_work *= self._faults.error_work_fraction
                self._fates[query_id] = fate
        self.pending.remove(query_id)
        self.running[query_id] = RunningQueryState(
            query=query,
            parameters=parameters,
            connection=connection,
            submit_time=self.current_time,
            remaining_work=noisy_work,
            total_work=noisy_work,
        )
        self.state_arrays.mark_running(query_id, self.current_time)
        self._running_version += 1
        return connection

    def next_completion_time(self) -> float | None:
        """Absolute time of the next completion, without advancing the clock.

        ``None`` when nothing is running.  The returned instant is exactly
        the finish time :meth:`advance` would produce from the current state
        (both read one memoized :meth:`_next_finish`), which is what lets a
        :class:`~repro.dbms.cluster.ClusterSession` pick the globally
        earliest event across per-instance clocks without perturbing them.
        """
        if self._fault_events:
            return self.current_time
        if not self.running:
            return None
        finish_time = self.current_time + self._next_finish()[1]
        kill_at = self._outage_kill_instant(finish_time)
        return kill_at if kill_at is not None else finish_time

    def advance(self, limit: float | None = None) -> CompletionEvent | None:
        """Advance the clock to the next query completion and return it.

        With a ``limit``, the clock never moves past that instant: if the next
        completion falls beyond it, all running queries progress up to
        ``limit`` and ``None`` is returned (the event-driven runtime uses this
        to stop at query arrivals).  With nothing running, a ``limit`` simply
        idles the clock forward to it.
        """
        if self._fault_events:
            return self._fault_events.pop(0)
        if not self.running:
            if limit is None:
                raise SimulationError("cannot advance: no query is running")
            self.current_time = max(self.current_time, limit)
            return None
        rates = self._progress_rates()
        finishing_id, delta = self._next_finish()
        kill_at = self._outage_kill_instant(self.current_time + delta)
        if kill_at is not None and (limit is None or kill_at <= limit):
            partial = kill_at - self.current_time
            if partial > 0:
                self._progress(rates, partial)
            self.current_time = kill_at
            self._kill_running(FAILURE_OUTAGE)
            return self._fault_events.pop(0)
        if limit is not None and self.current_time + delta > limit:
            partial = limit - self.current_time
            if partial > 0:
                self._progress(rates, partial)
            self.current_time = limit
            return None
        self.current_time += delta
        self._progress(rates, delta)

        state = self.running.pop(finishing_id)
        self._idle_connections.append(state.connection)
        self._idle_connections.sort()
        self._running_version += 1
        fate = self._fates.pop(finishing_id, None)
        if fate is not None and fate.error:
            # The attempt errored out after consuming its (truncated) work:
            # the connection frees, nothing is logged, and the query returns
            # to pending for the caller's retry machinery to resubmit.
            self.pending.append(finishing_id)
            self.state_arrays.mark_pending(finishing_id)
            return CompletionEvent(
                query_id=finishing_id,
                finish_time=self.current_time,
                connection=state.connection,
                failed=True,
                failure=FAILURE_ERROR,
            )
        self.finished[finishing_id] = self.current_time
        self.state_arrays.mark_finished(finishing_id)
        for table, rows in state.query.tables.items():
            self.buffer.touch(table, rows, self.current_time)
        self.log.add(
            QueryExecutionRecord(
                query_id=finishing_id,
                query_name=state.query.name,
                template_id=state.query.template_id,
                connection=state.connection,
                parameters=state.parameters,
                submit_time=state.submit_time,
                finish_time=self.current_time,
            )
        )
        return CompletionEvent(query_id=finishing_id, finish_time=self.current_time, connection=state.connection)

    # ------------------------------------------------------------------ #
    # Fluid model internals
    # ------------------------------------------------------------------ #
    def _progress_rates(self) -> dict[int, float]:
        """Work-per-second rate of every running query under current load.

        Memoized on (running-set version, buffer version): rates depend only
        on *which* queries run with *which* parameters and on the buffer
        contents — never on remaining work or the clock — so the
        ``next_completion_time``/``advance`` double-compute (and every
        idle-forward peer advance in cluster merging) reuses one computation;
        :meth:`_next_finish` adds the work version on top of these two.
        The exact per-call float arithmetic is unchanged.
        """
        key = (self._running_version, self.buffer.version)
        if self._rates_cache is not None and self._rates_cache[0] == key:
            return self._rates_cache[1]
        rates = self._compute_progress_rates()
        self._rates_cache = (key, rates)
        return rates

    def _next_finish(self) -> tuple[int, float]:
        """``(finishing id, delta)`` of the first running query to finish (first minimum in running order).

        Memoized on (running version, buffer version, work version), the
        last bumped by every write of ``remaining_work`` (:meth:`_progress`),
        so a ``next_completion_time`` and the ``advance`` that follows share
        one pass over the (non-empty) running set.
        """
        key = (self._running_version, self.buffer.version, self._work_version)
        if self._finish_cache is not None and self._finish_cache[0] == key:
            return self._finish_cache[1]
        rates = self._progress_rates()
        time_to_finish = {
            query_id: state.remaining_work / max(rates[query_id], _EPSILON)
            for query_id, state in self.running.items()
        }
        finishing_id = min(time_to_finish, key=time_to_finish.__getitem__)
        self._finish_cache = (key, (finishing_id, time_to_finish[finishing_id]))
        return self._finish_cache[1]

    def _progress(self, rates: dict[int, float], seconds: float) -> None:
        """Run every running query ``seconds`` forward at its rate."""
        for query_id, state in self.running.items():
            state.remaining_work = max(0.0, state.remaining_work - rates[query_id] * seconds)
        self._work_version += 1

    def _compute_progress_rates(self) -> dict[int, float]:
        states = list(self.running.values())
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
        cpu_scale = self._contention_scale(cpu_demand, self.profile.cpu_capacity)
        io_scale = self._contention_scale(io_demand, self.profile.io_capacity)

        memory_granted = sum(min(s.parameters.memory_mb, s.query.memory_demand_mb) for s in states)
        global_pressure = max(0.0, memory_granted / self.profile.memory_capacity_mb - 1.0)

        # How many running queries scan each table, counted once per call: a
        # table is scanned concurrently with a query iff another one counts it.
        table_counts = Counter(table for s in states for table in s.query.tables)
        rates: dict[int, float] = {}
        for state in states:
            query = state.query
            cpu_rate = amdahl[query.query_id] * cpu_scale
            spill = self._spill_factor(state, global_pressure)
            cpu_rate /= 1.0 + spill
            io_rate = io_scale * (1.0 + self._sharing_boost(state, table_counts))
            blended = query.cpu_fraction * cpu_rate + query.io_fraction * io_rate
            rates[query.query_id] = max(_EPSILON, blended * self.profile.speed)
        return rates

    def _contention_scale(self, demand: float, capacity: float) -> float:
        """Proportional-share contention, softened by the internal resource manager."""
        if demand <= capacity:
            return 1.0
        raw = capacity / demand
        smoothing = self.profile.contention_smoothing
        return (1.0 - smoothing) * raw + smoothing * np.sqrt(raw)

    def _spill_factor(self, state: RunningQueryState, global_pressure: float) -> float:
        """Slowdown from undersized working memory (spilling sorts/hashes)."""
        query = state.query
        if query.memory_demand_mb <= 0:
            return 0.0
        shortfall = max(0.0, query.memory_demand_mb - state.parameters.memory_mb) / query.memory_demand_mb
        return _SPILL_PENALTY * query.memory_sensitivity * (shortfall + 0.5 * global_pressure)

    def _sharing_boost(self, state: RunningQueryState, table_counts: "Counter[str]") -> float:
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
            cached_share = self.buffer.cached_fraction(table, table_rows)
            shared += rows * max(concurrent_share, cached_share)
        return self.profile.sharing_strength * (shared / total_rows)


def next_instance_in_rotation(available: Sequence[int], cursor: int, num_instances: int) -> int:
    """First available instance at or after ``cursor``, wrapping around.

    The single definition of round-robin placement, shared by
    :func:`execute_fixed_order` and the
    :class:`~repro.core.baselines.RoundRobinPlacementScheduler` baseline so
    "round-robin" means the same thing in historical logs and evaluations.
    """
    idle = set(available)
    for offset in range(num_instances):
        candidate = (cursor + offset) % num_instances
        if candidate in idle:
            return candidate
    raise SchedulingError("no instance has an idle connection")


def execute_fixed_order(
    self: "DatabaseEngine | Cluster",
    batch: BatchQuerySet,
    order: "list[int]",
    parameters: "dict[int, RunningParameters] | RunningParameters",
    num_connections: int | None = None,
    strategy: str = "fixed-order",
    round_id: int | None = None,
) -> RoundLog:
    """Execute ``batch`` submitting queries in ``order`` whenever a connection frees.

    The parameter-oblivious pipeline runner: each query goes to the next
    instance with an idle connection in round-robin rotation (always
    instance 0 on a single engine).  Under an attached
    :class:`~repro.dbms.faults.FailureProfile` it never retries: a failed
    attempt marks the query terminally failed (history collection records
    only what actually finished), and an outage idles the loop until an
    instance recovers.  Bound as both ``DatabaseEngine.execute_order`` and
    ``Cluster.execute_order``.
    """
    if sorted(order) != sorted(q.query_id for q in batch):
        raise SchedulingError("order must be a permutation of the batch query ids")
    session = self.new_session(batch, num_connections, strategy=strategy, round_id=round_id)
    queue = list(order)
    cursor = 0
    while not session.is_done:
        while queue and session.has_idle_connection:
            query_id = queue.pop(0)
            instance = next_instance_in_rotation(session.idle_instances(), cursor, session.num_instances)
            cursor = (instance + 1) % session.num_instances
            params = parameters if isinstance(parameters, RunningParameters) else parameters[query_id]
            session.submit(query_id, params, instance=instance)
        if session.num_running:
            event = session.advance()
            if event is not None and event.failed:
                session.mark_failed(event.query_id)
        else:
            wakeup = session.next_fault_wakeup()
            if wakeup is None:
                raise SchedulingError("execute_order stalled: nothing running and no recovery scheduled")
            session.advance(limit=wakeup)
    return session.log


def collect_fixed_order_logs(
    self: "DatabaseEngine | Cluster",
    batch: BatchQuerySet,
    orders: "list[list[int]]",
    parameters: RunningParameters,
    num_connections: int | None = None,
    strategy: str = "history",
) -> ExecutionLog:
    """Run several fixed-order rounds and return the combined log.

    Used to build the "historical logs" that adaptive masking, scheduling
    gain clustering and the learned simulator are trained from.  Bound as
    both ``DatabaseEngine.collect_logs`` and ``Cluster.collect_logs``.
    """
    log = ExecutionLog()
    for round_index, order in enumerate(orders):
        round_log = self.execute_order(
            batch,
            order,
            parameters,
            num_connections=num_connections,
            strategy=strategy,
            round_id=round_index,
        )
        log.add_round(round_log)
    return log


class DatabaseEngine:
    """Factory for :class:`ExecutionSession` rounds against one DBMS profile.

    ``faults`` attaches a :class:`~repro.dbms.faults.FailureProfile` to every
    round the engine opens (a per-round ``faults`` argument to
    :meth:`new_session` overrides it).  ``None`` — the default — keeps the
    engine perfectly reliable and bit-identical to the fault-free tree.
    """

    def __init__(self, profile: DBMSProfile, seed: int = 0, faults: FailureProfile | None = None) -> None:
        self.profile = profile
        self.seed = seed
        self.seeds = SeedSpawner(seed)
        self.faults = faults
        self._round_counter = 0

    def new_session(
        self,
        batch: BatchQuerySet,
        num_connections: int | None = None,
        strategy: str = "",
        round_id: int | None = None,
        keep_buffer_warm: bool = False,
        warm_buffer: BufferPool | None = None,
        faults: FailureProfile | None = None,
        fault_instance: int = 0,
    ) -> ExecutionSession:
        """Open a fresh scheduling round.

        Each round gets its own RNG stream derived from the engine seed and
        the round id, so the per-round execution noise is reproducible yet
        different across rounds.  Fault fates draw from a *separate* stream
        (``(seed, round_id, FAULT_STREAM)``), so injecting faults never
        perturbs the execution-noise draws.
        """
        if round_id is None:
            round_id = self._round_counter
        self._round_counter = max(self._round_counter, round_id) + 1
        # Entropy (seed, round_id, 0x5EED): the historical per-round stream,
        # now derived through the central SeedSpawner (bit-identical).
        rng = self.seeds.derive(round_id, 0x5EED)
        connections = num_connections or self.profile.default_connections
        buffer = warm_buffer if keep_buffer_warm else None
        session_faults = faults if faults is not None else self.faults
        fault_rng = (
            self.seeds.derive(round_id, FAULT_STREAM) if session_faults is not None else None
        )
        return ExecutionSession(
            profile=self.profile,
            batch=batch,
            num_connections=connections,
            rng=rng,
            round_id=round_id,
            strategy=strategy,
            warm_buffer=buffer,
            faults=session_faults,
            fault_rng=fault_rng,
            instance=fault_instance,
        )

    def estimate_isolated_time(self, query: Query, parameters: RunningParameters) -> float:
        """Execute one query alone on an otherwise idle system (no noise).

        This is the "external knowledge" collection step of adaptive masking:
        the periodic nature of batch workloads lets the operator profile each
        query under every configuration.
        """
        batch = BatchQuerySet([query])
        probe = batch[0]
        rng = self.seeds.derive(0xC0FFEE)
        session = ExecutionSession(
            profile=self.profile,
            batch=batch,
            num_connections=1,
            rng=rng,
            strategy="isolated-probe",
        )
        session._noise = {probe.query_id: 1.0}
        session.submit(probe.query_id, parameters)
        event = session.advance()
        assert event is not None
        return event.finish_time

    execute_order = execute_fixed_order
    collect_logs = collect_fixed_order_logs
