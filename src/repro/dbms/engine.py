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

One engine instance of a round is an :class:`ExecutionSession` unit: its
clock, connections, buffer pool, fates and the fluid model.  The round
itself is the engine fleet's :class:`ClusterSession`, which merges the
events of its units behind one clock; a :class:`DatabaseEngine` opens it
over one unit (a fleet of one), a :class:`~repro.dbms.cluster.Cluster` over
one unit per engine.
"""

from __future__ import annotations

import math
from bisect import insort
from collections import Counter
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from ..exceptions import SchedulingError, SimulationError
from ..seeding import SeedSpawner
from ..workloads import BatchQuerySet, Query
from .buffer import BufferPool
from .faults import FAILURE_ERROR, FAULT_STREAM, FailureProfile, InstanceWindows, QueryFate
from .logs import ExecutionLog, RoundLog
from .params import RunningParameters
from .profiles import DBMSProfile
from .soa import CompletionEvent, FleetSession, InstanceEvent, RunningQueryState, kill_running

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .cluster import Cluster

__all__ = [
    "ClusterSession",
    "CompletionEvent",
    "DatabaseEngine",
    "ExecutionSession",
    "RunningQueryState",
    "next_instance_in_rotation",
    "progress_rates",
]

_EPSILON = 1e-9
_SPILL_PENALTY = 0.8


class _RateTerms(NamedTuple):
    """The query- and parameter-only terms of one attempt's progress rate.

    A unit computes them once at submit; :func:`progress_rates` per call.
    ``memory_granted`` is the object ``min(memory_mb, memory_demand_mb)``
    returns (an ``int`` when the grant binds), so the memory sum adds the
    same types.  The spill slowdown is ``spill_coefficient * (shortfall +
    pressure / 2)``, both 0.0 for a query that demands no memory.
    ``boost_tables`` holds the query's ``(table, rows)`` items, empty when it
    scans no rows.
    """

    query_id: int
    amdahl: float
    cpu_demand: float
    cpu_fraction: float
    io_fraction: float
    memory_granted: float
    spill_coefficient: float
    shortfall: float
    boost_tables: tuple[tuple[str, float], ...]
    total_rows: float


def _rate_terms(query: Query, parameters: RunningParameters) -> _RateTerms:
    p = query.parallel_fraction
    amdahl = 1.0 / ((1.0 - p) + p / parameters.workers)
    demand = query.memory_demand_mb
    if demand <= 0:
        spill_coefficient = shortfall = 0.0
    else:
        spill_coefficient = _SPILL_PENALTY * query.memory_sensitivity
        shortfall = max(0.0, demand - parameters.memory_mb) / demand
    total_rows = sum(query.tables.values()) if query.tables else 0.0
    boost_tables = tuple(query.tables.items()) if total_rows > 0 else ()
    return _RateTerms(
        query.query_id, amdahl, amdahl * query.cpu_fraction, query.cpu_fraction, query.io_fraction,
        min(parameters.memory_mb, demand), spill_coefficient, shortfall, boost_tables, total_rows,
    )


class ExecutionSession:
    """One engine instance of a scheduling round: the fluid model's unit.

    The unit owns the instance's clock, its running set, its idle
    connections (lowest first), its buffer pool, its outage and park
    windows and its fault fates.  It knows nothing of the round's query
    lists: a :class:`ClusterSession` places queries on it, checks that a
    submission may land, and delivers what :meth:`advance` materialises.
    A single engine's round is a fleet of one such unit.

    :meth:`advance` moves the clock to the instance's next event and
    returns it with the state of a finished query; with a ``limit`` the
    clock stops there instead, so the fleet can idle the instance forward
    to another instance's event or to a query arrival.

    Each attempt's rate terms (:class:`_RateTerms`) live from :meth:`submit`
    to :meth:`withdraw`.  The rates memo keys on (running-set version, buffer
    version), the next-finish memo on those and the remaining-work version.
    """

    def __init__(
        self,
        profile: DBMSProfile,
        batch: BatchQuerySet,
        num_connections: int,
        rng: np.random.Generator,
        faults: FailureProfile | None = None,
        fault_rng: np.random.Generator | None = None,
        instance: int = 0,
    ) -> None:
        if num_connections < 1:
            raise SimulationError("num_connections must be >= 1")
        if faults is not None and faults.has_random_faults and fault_rng is None:
            raise SimulationError("a FailureProfile with random faults needs a fault_rng stream")
        self.profile = profile
        self.batch = batch
        self.current_time = 0.0
        self.num_connections = num_connections
        self.running: dict[int, RunningQueryState] = {}
        self.idle_connections: list[int] = list(range(num_connections))
        self.buffer = BufferPool(profile.buffer_pool_rows)
        # Fault injection: fates are drawn from the dedicated fault stream at
        # submit time; a session without a profile performs zero extra draws
        # and stays bit-identical to the fault-free tree.
        self._faults = faults
        self._fault_rng = fault_rng
        #: When this instance is down: the profile's outage windows for it
        #: plus, while parked, the open-ended park window.
        self.windows = InstanceWindows(instance, faults)
        self._fates: dict[int, QueryFate] = {}
        #: Failures of killed queries, in kill order, not yet delivered.
        self.fault_events: list[CompletionEvent] = []
        #: Rate terms of every running attempt, keyed and ordered like ``running``,
        #: and how many running attempts scan each table (zero counts stay).
        self._terms: dict[int, _RateTerms] = {}
        self._scans: dict[str, int] = {}
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
        # One draw and one exp of the whole column equal one of each per query.
        factors = np.exp(rng.normal(0.0, profile.noise, size=len(batch))).tolist()
        self._noise = {q.query_id: factor for q, factor in zip(batch, factors)}

    @property
    def num_running(self) -> int:
        """In-flight queries, including failures buffered but not yet delivered."""
        return len(self.running) + len(self.fault_events)

    @property
    def buffer_fill(self) -> float:
        """Fraction of the buffer pool in use (an observable warmth signal)."""
        return min(1.0, self.buffer.used_rows / self.buffer.capacity_rows)

    def withdraw(self, query_id: int) -> int:
        """Take a running query off the instance: free its connection, forget
        its fate and rate terms.  The attempt's work is wasted.  Returns the
        freed connection."""
        state = self.running.pop(query_id)
        del self._terms[query_id]
        for table in state.query.tables:
            self._scans[table] -= 1
        insort(self.idle_connections, state.connection)
        self._fates.pop(query_id, None)
        self._running_version += 1
        return state.connection

    def _outage_kill_instant(self, until: float) -> float | None:
        """When running work must die: now if the instance is down, else the
        first outage start in ``(now, until]``."""
        if not self.running or not self.windows.windows:
            return None
        return self.windows.kill_instant(self.current_time, until)

    def submit(self, query_id: int, parameters: RunningParameters) -> int:
        """Start a query on the lowest idle connection at the current time.

        The fleet has checked that the query is pending and the instance up
        with an idle connection.  Returns the local connection id.
        """
        connection = self.idle_connections.pop(0)
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
        self.running[query_id] = RunningQueryState(
            query=query,
            parameters=parameters,
            connection=connection,
            submit_time=self.current_time,
            remaining_work=noisy_work,
            total_work=noisy_work,
        )
        self._terms[query_id] = _rate_terms(query, parameters)
        for table in query.tables:
            self._scans[table] = self._scans.get(table, 0) + 1
        self._running_version += 1
        return connection

    def next_completion_time(self) -> float | None:
        """Absolute time of the next event, without advancing the clock.

        ``None`` when nothing is running.  The returned instant is exactly
        the event time :meth:`advance` would produce from the current state
        (both read one memoized :meth:`_next_finish`), which is what lets a
        :class:`ClusterSession` pick the globally earliest event across
        per-instance clocks without perturbing them.
        """
        if self.fault_events:
            return self.current_time
        if not self.running:
            return None
        finish_time = self.current_time + self._next_finish()[1]
        kill_at = self._outage_kill_instant(finish_time)
        return kill_at if kill_at is not None else finish_time

    def advance(self, limit: float | None = None) -> InstanceEvent | None:
        """Advance the clock to the next event and return it with its state.

        A finished query comes with its withdrawn running state (local
        connection id); a failed attempt — an error, or an outage kill — with
        ``None``.  With a ``limit``, the clock never moves past that instant:
        if the next event falls beyond it, all running queries progress up to
        ``limit`` and ``None`` is returned.  With nothing running, a
        ``limit`` simply idles the clock forward to it.
        """
        if self.fault_events:
            return self.fault_events.pop(0), None
        if not self.running:
            if limit is None:
                raise SimulationError("cannot advance: no query is running")
            self.current_time = max(self.current_time, limit)
            return None
        rates = self._progress_rates()
        finishing_id, delta = self._next_finish()
        finish_time = self.current_time + delta
        kill_at = self._outage_kill_instant(finish_time)
        if kill_at is not None and (limit is None or kill_at <= limit):
            partial = kill_at - self.current_time
            if partial > 0:
                self._progress(rates, partial)
            self.current_time = kill_at
            kill_running(self, kill_at)
            return self.fault_events.pop(0), None
        if limit is not None and finish_time > limit:
            partial = limit - self.current_time
            if partial > 0:
                self._progress(rates, partial)
            self.current_time = limit
            return None
        self.current_time = finish_time
        self._progress(rates, delta)

        state = self.running[finishing_id]
        fate = self._fates.get(finishing_id)
        self.withdraw(finishing_id)
        if fate is not None and fate.error:
            # The attempt errored out after consuming its (truncated) work:
            # the connection frees, nothing is logged, and the fleet returns
            # the query to pending for the caller's retry machinery.
            event = CompletionEvent(finishing_id, finish_time, state.connection, failed=True, failure=FAILURE_ERROR)
            return event, None
        for table, rows in state.query.tables.items():
            self.buffer.touch(table, rows, finish_time)
        return CompletionEvent(finishing_id, finish_time, state.connection), state

    # ------------------------------------------------------------------ #
    # Fluid model internals
    # ------------------------------------------------------------------ #
    def _progress_rates(self) -> dict[int, float]:
        """Work-per-second rate of every running query under current load, in running order.

        Memoized on (running-set version, buffer version): rates depend only
        on *which* queries run with *which* parameters and on the buffer
        contents — never on remaining work or the clock — so the
        ``next_completion_time``/``advance`` double-compute (and every
        idle-forward peer advance in cluster merging) reuses one computation;
        :meth:`_next_finish` adds the work version on top of these two.
        The rates are :func:`progress_rates` of the running set and buffer,
        evaluated from the attempts' stored terms.
        """
        key = (self._running_version, self.buffer.version)
        if self._rates_cache is not None and self._rates_cache[0] == key:
            return self._rates_cache[1]
        rates = _rates_from_terms(self.profile, list(self._terms.values()), self._scans, self.buffer)
        self._rates_cache = (key, rates)
        return rates

    def _next_finish(self) -> tuple[int, float]:
        """``(finishing id, delta)`` of the first running query to finish (first minimum in running order).

        Memoized on (running version, buffer version, work version), the
        last bumped by every write of ``remaining_work`` (:meth:`_progress`),
        so a ``next_completion_time`` and the ``advance`` that follows share
        one pass over the (non-empty) running set.  A rate is never below
        ``_EPSILON``, so the division needs no floor.
        """
        key = (self._running_version, self.buffer.version, self._work_version)
        if self._finish_cache is not None and self._finish_cache[0] == key:
            return self._finish_cache[1]
        finishing_id, best = -1, math.inf
        for (query_id, rate), state in zip(self._progress_rates().items(), self.running.values()):
            delta = state.remaining_work / rate
            if delta < best:
                finishing_id, best = query_id, delta
        self._finish_cache = (key, (finishing_id, best))
        return self._finish_cache[1]

    def _progress(self, rates: dict[int, float], seconds: float) -> None:
        """Run every running query ``seconds`` forward at its rate."""
        for state, rate in zip(self.running.values(), rates.values()):
            remaining = state.remaining_work - rate * seconds
            state.remaining_work = remaining if remaining > 0.0 else 0.0
        self._work_version += 1


def progress_rates(
    profile: DBMSProfile, states: Sequence[RunningQueryState], buffer: BufferPool
) -> dict[int, float]:
    """The fluid model: work-per-second rate of every query in ``states`` running together.

    A function of the profile, the running set (which queries, with which
    parameters) and the buffer's residency only: the states' terms feed
    :func:`_rates_from_terms`, which an :class:`ExecutionSession` calls with
    the terms it stored at submit.
    """
    terms = [_rate_terms(state.query, state.parameters) for state in states]
    scans = Counter(table for state in states for table in state.query.tables)
    return _rates_from_terms(profile, terms, scans, buffer)


def _rates_from_terms(
    profile: DBMSProfile, terms: Sequence[_RateTerms], scans: dict[str, int], buffer: BufferPool
) -> dict[int, float]:
    """The rates of :func:`progress_rates`, keyed in ``terms`` order; ``scans``
    counts the running attempts that scan each table.  Demands are ``sum()``
    in running order: CPython 3.12 compensates a float ``sum``, a ``+=`` loop not.
    """
    if not terms:
        return {}
    _, _, cpu_demands, _, io_fractions, memory_granted, *_ = zip(*terms)
    cpu_scale = _contention_scale(profile, sum(cpu_demands), profile.cpu_capacity)
    io_scale = _contention_scale(profile, sum(io_fractions), profile.io_capacity)
    half_pressure = 0.5 * max(0.0, sum(memory_granted) / profile.memory_capacity_mb - 1.0)

    resident = buffer._resident
    strength, speed = profile.sharing_strength, profile.speed
    rates: dict[int, float] = {}
    for query_id, amdahl, _, cpu_fraction, io_fraction, _, spill_coefficient, shortfall, tables, total_rows in terms:
        cpu_rate = amdahl * cpu_scale / (1.0 + spill_coefficient * (shortfall + half_pressure))
        io_rate = io_scale
        if tables:
            shared = 0.0
            for table, rows in tables:
                # max(concurrent share, min(1.0, cached fraction)), written out.
                share = 0.8 if scans[table] > 1 else 0.0
                if rows > 0:
                    cached = resident.get(table, 0.0) / rows
                    if cached > share:
                        share = cached if cached < 1.0 else 1.0
                shared += rows * share
            io_rate = io_scale * (1.0 + strength * (shared / total_rows))
        rate = (cpu_fraction * cpu_rate + io_fraction * io_rate) * speed
        rates[query_id] = rate if rate > _EPSILON else _EPSILON
    return rates


def _contention_scale(profile: DBMSProfile, demand: float, capacity: float) -> float:
    """Proportional-share contention, softened by the internal resource manager."""
    if demand <= capacity:
        return 1.0
    raw = capacity / demand
    smoothing = profile.contention_smoothing
    return (1.0 - smoothing) * raw + smoothing * math.sqrt(raw)


class ClusterSession(FleetSession[ExecutionSession]):
    """One scheduling round across every instance of an engine fleet.

    Each instance is an :class:`ExecutionSession` unit with its own clock,
    buffer pool and contention state, and :meth:`advance` merges their
    events behind the round's clock.  A single engine's round is this
    session over one unit.  Placement, park, cancel and the instance context
    are :class:`~repro.dbms.soa.FleetSession`'s.
    """

    def submit(self, query_id: int, parameters: RunningParameters, instance: int = 0) -> int:
        """Submit a pending query to ``instance`` at the current logical time.

        Returns the *global* connection id (instance connection offsets), so
        log records across the fleet stay disjoint.
        """
        unit = self._check_submit(query_id, instance)
        return self._record_submit(query_id, instance, unit.submit(query_id, parameters))

    def advance(self, limit: float | None = None) -> CompletionEvent | None:
        """Advance the unified clock to the next completion and return it.

        With a ``limit`` the clock never moves past it (partial progress on
        every instance, ``None`` returned), and with nothing running a
        ``limit`` idles the clock forward to it; without one the globally
        earliest event is materialised.  Instance index breaks exact-time
        ties, and simultaneous events on other instances are buffered per
        instance and drained (in instance order) before time moves again.
        Each instance computes its next finish once per state: the winner's
        ``advance()`` and the peers' ``advance(limit=…)`` reuse the pass
        their ``next_completion_time()`` made.
        """
        buffered = self._pop_buffered()
        if buffered is not None:
            return buffered
        # The earliest next-event instant (idle instances report none); the
        # lowest instance wins a tie.
        winner_time, winner = math.inf, 0
        for index, unit in enumerate(self.instances):
            time = unit.next_completion_time()
            if time is not None and time < winner_time:
                winner_time, winner = time, index
        if winner_time == math.inf:
            if limit is None:
                raise SimulationError("cannot advance: no query is running")
            for unit in self.instances:
                unit.advance(limit=limit)
            self.current_time = max(self.current_time, limit)
            return None
        if limit is not None and winner_time > limit:
            for unit in self.instances:
                unit.advance(limit=limit)
            self.current_time = limit
            return None
        delivered = self.instances[winner].advance()
        assert delivered is not None
        if delivered[0].failed:
            # An outage can kill several in-flight queries at once; only the
            # first failure is delivered now.
            self._demote_buffered_failures(self.instances[winner])
        for index, unit in enumerate(self.instances):
            if index == winner:
                continue
            # Idle the peers forward to the winning instant; events that tie
            # with it land in the per-instance buffers.
            while (tied := unit.advance(limit=winner_time)) is not None:
                if tied[0].failed:
                    # A failed attempt is observably pending already.
                    self.state_arrays.mark_pending(tied[0].query_id)
                self._instance_events[index].append(tied)
        self.current_time = winner_time
        return self._record(*delivered, winner)


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
    instance 0 on a single engine).  Its rounds open fault-free, so every
    query finishes.  Bound as both ``DatabaseEngine.execute_order`` and
    ``Cluster.execute_order``.
    """
    if sorted(order) != sorted(q.query_id for q in batch):
        raise SchedulingError("order must be a permutation of the batch query ids")
    session = self.new_session(batch, num_connections, strategy=strategy, round_id=round_id)
    fixed = isinstance(parameters, RunningParameters)
    position, cursor = 0, 0
    # A fault-free round delivers one completion per advance: one advance per query.
    for _ in order:
        while position < len(order) and (idle := session.idle_instances()):
            query_id = order[position]
            position += 1
            instance = next_instance_in_rotation(idle, cursor, session.num_instances)
            cursor = (instance + 1) % session.num_instances
            session.submit(query_id, parameters if fixed else parameters[query_id], instance=instance)
        session.advance()
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
    """One DBMS profile opening scheduling rounds: a fleet of one instance.

    :meth:`new_session` returns the engine fleet's :class:`ClusterSession`
    over one :class:`ExecutionSession` unit, the same session a
    :class:`~repro.dbms.cluster.Cluster` opens over many.  The engine holds
    no failure profile: a :class:`~repro.dbms.faults.FailureProfile` enters
    one round through :meth:`new_session`'s ``faults`` (which the
    :class:`~repro.runtime.ExecutionRuntime` passes), and a round opened
    without one is perfectly reliable.
    """

    def __init__(self, profile: DBMSProfile, seed: int = 0) -> None:
        self.profile = profile
        self.seed = seed
        self.seeds = SeedSpawner(seed)
        self._round_counter = 0

    def new_session(
        self,
        batch: BatchQuerySet,
        num_connections: int | None = None,
        strategy: str = "",
        round_id: int | None = None,
        faults: FailureProfile | None = None,
    ) -> ClusterSession:
        """Open a fresh scheduling round on this engine, a fleet of one."""
        if round_id is None:
            round_id = self._round_counter
        unit = self.open_instance(batch, num_connections, round_id, faults, instance=0)
        return ClusterSession(batch, round_id, strategy, [unit], (1.0,))

    def open_instance(
        self,
        batch: BatchQuerySet,
        num_connections: int | None,
        round_id: int,
        faults: FailureProfile | None,
        instance: int,
    ) -> ExecutionSession:
        """This engine's unit for round ``round_id``, as fleet instance ``instance``.

        Each round gets its own RNG stream derived from the engine seed and
        the round id, so the per-round execution noise is reproducible yet
        different across rounds.  Fault fates draw from a *separate* stream
        (``(seed, round_id, FAULT_STREAM)``), so injecting faults never
        perturbs the execution-noise draws; the unit honours the outage
        windows of ``instance`` only.
        """
        self._round_counter = max(self._round_counter, round_id) + 1
        # Entropy (seed, round_id, 0x5EED): the historical per-round stream,
        # now derived through the central SeedSpawner (bit-identical).
        rng = self.seeds.derive(round_id, 0x5EED)
        fault_rng = self.seeds.derive(round_id, FAULT_STREAM) if faults is not None else None
        return ExecutionSession(
            profile=self.profile,
            batch=batch,
            num_connections=num_connections or self.profile.default_connections,
            rng=rng,
            faults=faults,
            fault_rng=fault_rng,
            instance=instance,
        )

    def estimate_isolated_time(self, query: Query, parameters: RunningParameters) -> float:
        """Time for one query alone on an otherwise idle instance with a cold buffer (no noise).

        This is the "external knowledge" collection step of adaptive masking:
        the periodic nature of batch workloads lets the operator profile each
        query under every configuration.  It reads the fluid model's rate
        for the query as the only running state (:func:`progress_rates`) and
        opens no session: the finish time a one-query round would reach.
        """
        work = query.total_work
        state = RunningQueryState(query, parameters, 0, 0.0, work, work)
        rate = progress_rates(self.profile, (state,), BufferPool(self.profile.buffer_pool_rows))[query.query_id]
        return 0.0 + work / max(rate, _EPSILON)

    execute_order = execute_fixed_order
    collect_logs = collect_fixed_order_logs
