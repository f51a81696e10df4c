"""A heterogeneous cluster of engine instances behind one logical clock.

The paper evaluates against three DBMS personalities, but a production
deployment rarely owns exactly one server: batches run against a *fleet* of
engine instances — mixed hardware generations, mixed profiles — and the
scheduler's decision space doubles: not only *which query next*, but *which
instance runs it*.  :class:`Cluster` is the dbms-layer substrate for that
scenario.

Design:

* a :class:`Cluster` holds N :class:`~repro.dbms.engine.DatabaseEngine`
  instances, each with its own :class:`~repro.dbms.profiles.DBMSProfile`
  (mixed X/Y/Z fleets are first-class) and its own seed derived from the
  cluster seed through :class:`repro.seeding.SeedSpawner`;
* a :class:`ClusterSession` opens one per-instance
  :class:`~repro.dbms.engine.ExecutionSession` per round.  Every instance
  keeps its *own* buffer pool, contention state and clock; the cluster
  session unifies them behind one logical time by always advancing to the
  globally earliest completion and idling the other instances forward to
  that instant;
* completions that tie on the same instant land in per-instance event
  buffers and are drained in instance order before the clock moves again —
  the same deterministic merge the runtime's global
  :class:`~repro.runtime.EventQueue` applies to arrivals.

A single-instance cluster is bit-for-bit identical to driving the engine
directly (digest-pinned in ``tests/test_cluster.py``): instance 0 derives
the same per-round noise stream, allocates the same connections and emits
the same log records.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from ..exceptions import ConfigurationError, SchedulingError, SimulationError
from ..seeding import SeedSpawner
from ..workloads import BatchQuerySet, Query
from .engine import (
    CompletionEvent,
    DatabaseEngine,
    ExecutionSession,
    RunningQueryState,
    collect_fixed_order_logs,
    execute_fixed_order,
)
from .faults import FailureProfile
from .logs import QueryExecutionRecord
from .params import RunningParameters
from .profiles import DBMSProfile
from .soa import BackendSession

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..config import ServiceConfig

__all__ = ["Cluster", "ClusterSession", "INSTANCE_FEATURE_DIM"]

#: Width of the per-instance context feature vector exposed to the encoder:
#: relative speed, busy-connection fraction, capacity share, buffer fill.
INSTANCE_FEATURE_DIM = 4

#: Floor for the reconstructed total work of a buffered tied completion
#: (keeps ``elapsed_fraction`` well-defined for zero-duration records).
_MIN_TOTAL_WORK = 1e-9


class ClusterSession(BackendSession):
    """One scheduling round across every instance of a cluster.

    Speaks the same session protocol as
    :class:`~repro.dbms.engine.ExecutionSession` (pending/deferred/running/
    finished bookkeeping, ``submit``/``advance``/``defer``/``release``, a
    merged :class:`~repro.dbms.logs.RoundLog`), extended with placement:
    ``submit`` takes the target ``instance`` and completions report the
    instance they happened on.  Connection ids in the merged log are
    globalised (instance offsets), so per-round logs stay unambiguous.
    """

    def __init__(
        self,
        cluster: "Cluster",
        batch: BatchQuerySet,
        sessions: Sequence[ExecutionSession],
        round_id: int,
        strategy: str,
    ) -> None:
        super().__init__(batch, round_id, strategy)
        self.cluster = cluster
        self.sessions = list(sessions)
        self._placement: dict[int, int] = {}
        # Per-instance buffers of completions that tied with the winning
        # instant, each captured with its execution record at materialisation
        # time (two ties on one instance would otherwise both resolve to that
        # instance's *last* log record); drained in instance order before the
        # clock moves again.  Failed completions carry no record (nothing was
        # logged), hence the ``QueryExecutionRecord | None``.
        self._instance_events: list[list[tuple[CompletionEvent, QueryExecutionRecord | None]]] = [
            [] for _ in self.sessions
        ]
        self._connection_offsets: list[int] = []
        offset = 0
        for session in self.sessions:
            self._connection_offsets.append(offset)
            offset += session.num_connections
        self.num_connections = offset
        # ``state_arrays`` is kept separate from the per-instance session
        # arrays: a tied completion buffered in ``_instance_events`` has
        # already left its instance's running set but is still observably
        # RUNNING here until delivered.

    # ------------------------------------------------------------------ #
    # Cluster topology
    # ------------------------------------------------------------------ #
    @property
    def num_instances(self) -> int:
        return len(self.sessions)

    def instance_of(self, query_id: int) -> int:
        """The instance a running/finished query was placed on (-1 if never)."""
        return self._placement.get(query_id, -1)

    def idle_instances(self) -> list[int]:
        """Instances with at least one idle connection (downed instances excluded)."""
        return [index for index, session in enumerate(self.sessions) if session.has_idle_connection]

    def instance_health(self) -> list[bool]:
        """Per-instance up/down health (``False`` while inside an outage window)."""
        return [not session.is_down for session in self.sessions]

    def next_fault_wakeup(self) -> float | None:
        """Earliest recovery instant among currently-downed instances.

        Parked instances (autoscale scale-down) report no recovery — the
        fleet controller unparks them explicitly — so they never appear here.
        """
        wakeups = [
            wakeup
            for session in self.sessions
            if (wakeup := session.next_fault_wakeup()) is not None
        ]
        return min(wakeups) if wakeups else None

    def park_instance(self, instance: int) -> None:
        """Scale-down: administratively take one instance out of the fleet.

        In-flight queries on the instance die through the normal outage-kill
        path on the next advance and the runtime requeues them on surviving
        capacity; the instance accepts no submissions until
        :meth:`unpark_instance`.
        """
        if not 0 <= instance < self.num_instances:
            raise SchedulingError(f"instance {instance} out of range (cluster has {self.num_instances})")
        self.sessions[instance].park()

    def unpark_instance(self, instance: int) -> None:
        """Scale-up: a parked instance's connections rejoin the idle pool."""
        if not 0 <= instance < self.num_instances:
            raise SchedulingError(f"instance {instance} out of range (cluster has {self.num_instances})")
        self.sessions[instance].unpark()

    def parked_instances(self) -> list[int]:
        """Instances currently parked by the elastic-fleet control plane."""
        return [index for index, session in enumerate(self.sessions) if session.is_parked]

    def cancel(self, query_id: int) -> int:
        """Kill a running query on whatever instance it was placed on.

        Returns the freed *global* connection id (instance offsets applied),
        matching the ids completion and failure events report.
        """
        instance = self._placement.get(query_id, -1)
        if instance < 0 or query_id not in self.sessions[instance].running:
            raise SchedulingError(f"query {query_id} is not running and cannot be cancelled")
        connection = self.sessions[instance].cancel(query_id)
        self.pending.append(query_id)
        self.state_arrays.mark_pending(query_id)
        return self._connection_offsets[instance] + connection

    def instance_num_running(self) -> list[int]:
        """Fleet-wide running-query count per instance (all tenants).

        Observable non-intrusively: every submission and completion is an
        event the scheduler sees, so per-instance occupancy is known even
        for queries other tenants placed.
        """
        return [session.num_running for session in self.sessions]

    def speed_factors(self) -> tuple[float, ...]:
        """Per-instance hardware speed relative to the fleet mean."""
        return self.cluster.speed_factors()

    def instance_context(self) -> np.ndarray:
        """Observable per-instance context, shape ``(num_instances, 4)``.

        Columns: relative speed (profile, known to the operator), busy
        connection fraction, capacity share of the fleet's connections, and
        buffer-pool fill fraction — the load/warmth signals a placement
        policy needs.  Everything here is non-intrusively observable: the
        scheduler knows where it submitted queries and what the fleet looks
        like; it never reads engine internals.
        """
        context = np.zeros((self.num_instances, INSTANCE_FEATURE_DIM), dtype=np.float64)
        speeds = self.speed_factors()
        total_connections = max(1, self.num_connections)
        for index, session in enumerate(self.sessions):
            context[index, 0] = speeds[index]
            context[index, 1] = session.num_running / session.num_connections
            context[index, 2] = session.num_connections / total_connections
            context[index, 3] = min(1.0, session.buffer.used_rows / session.buffer.capacity_rows)
        return context

    # ------------------------------------------------------------------ #
    # Session protocol: state
    # ------------------------------------------------------------------ #
    @property
    def running(self) -> dict[int, RunningQueryState]:
        """Aggregated running-state view across every instance.

        Includes queries whose tied completion is buffered but not yet
        delivered: they have left their instance session's running dict, but
        until :meth:`advance` dispatches the event they are still in flight
        from the scheduler's point of view — dropping them here would make
        observers (the env snapshot) misreport a finished query as pending.
        Their reconstructed state carries zero remaining work.
        """
        merged: dict[int, RunningQueryState] = {}
        for session in self.sessions:
            merged.update(session.running)
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
        return any(session.has_idle_connection for session in self.sessions)

    @property
    def num_running(self) -> int:
        """In-flight queries, including tied completions not yet delivered.

        A buffered tied completion has left its instance session's running
        set, but from the scheduler's point of view the query is still in
        flight until :meth:`advance` delivers its event — counting it here
        keeps ``is_done`` false (the round cannot end with undrained events)
        and keeps the runtime's event loop advancing to deliver it.
        """
        buffered = sum(len(events) for events in self._instance_events)
        return sum(session.num_running for session in self.sessions) + buffered

    # ------------------------------------------------------------------ #
    # Session protocol: scheduling
    # ------------------------------------------------------------------ #
    def submit(self, query_id: int, parameters: RunningParameters, instance: int = 0) -> int:
        """Submit a pending query to ``instance`` at the current logical time.

        Returns the *global* connection id (instance connection offsets), so
        log records across the fleet stay disjoint.
        """
        if not 0 <= instance < self.num_instances:
            raise SchedulingError(f"instance {instance} out of range (cluster has {self.num_instances})")
        if query_id not in self.pending:
            raise SchedulingError(f"query {query_id} is not pending")
        session = self.sessions[instance]
        if not session.has_idle_connection:
            raise SchedulingError(f"instance {instance} has no idle connection")
        local_connection = session.submit(query_id, parameters)
        self.pending.remove(query_id)
        self._placement[query_id] = instance
        self.state_arrays.mark_running(query_id, self.current_time)
        return self._connection_offsets[instance] + local_connection

    def advance(self, limit: float | None = None) -> CompletionEvent | None:
        """Advance the unified clock to the next completion and return it.

        Semantics mirror :meth:`ExecutionSession.advance`: with a ``limit``
        the clock never moves past it (partial progress on every instance,
        ``None`` returned); without one the globally earliest completion is
        materialised.  Instance index breaks exact-time ties, and
        simultaneous completions on other instances are buffered per
        instance and drained (in instance order) before time moves again.
        Each instance computes its next finish once per state: the winner's
        ``advance()`` and the peers' ``advance(limit=…)`` reuse the pass
        their ``next_completion_time()`` made.
        """
        buffered = self._pop_buffered()
        if buffered is not None:
            return buffered
        # Vectorized completion merging: one argmin over the per-instance
        # next-completion instants (idle instances report +inf).  np.argmin
        # returns the first minimum, which is exactly the lowest-instance
        # tie-breaking of the former ``min((time, index))`` Python loop —
        # pure comparisons, no arithmetic, so the pick is bit-identical.
        next_times = np.array(
            [
                time if (time := session.next_completion_time()) is not None else np.inf
                for session in self.sessions
            ],
            dtype=np.float64,
        )
        winner = int(np.argmin(next_times))
        winner_time = float(next_times[winner])
        if not np.isfinite(winner_time):
            if limit is None:
                raise SimulationError("cannot advance: no query is running")
            for session in self.sessions:
                session.advance(limit=limit)
            self.current_time = max(self.current_time, limit)
            return None
        if limit is not None and winner_time > limit:
            for session in self.sessions:
                session.advance(limit=limit)
            self.current_time = limit
            return None
        event = self.sessions[winner].advance()
        assert event is not None
        winner_record = None if event.failed else self.sessions[winner].log.records[-1]
        if event.failed:
            # An outage can kill several in-flight queries at once; only the
            # first failure is delivered now, but every victim is already
            # back in the instance's pending set — demote them in the
            # observable-state arrays so snapshots taken before their events
            # drain report them as pending, matching the session's object view.
            for victim in self.sessions[winner].buffered_failure_ids():
                self.state_arrays.mark_pending(victim)
        for index, session in enumerate(self.sessions):
            if index == winner:
                continue
            # Idle the peers forward to the winning instant; completions that
            # tie with it land in the per-instance buffers.
            while True:
                tied = session.advance(limit=winner_time)
                if tied is None:
                    break
                tied_record = None if tied.failed else session.log.records[-1]
                if tied.failed:
                    # Failed attempts carry no record: the query is back in
                    # the instance's pending set and observably pending now.
                    self.state_arrays.mark_pending(tied.query_id)
                self._instance_events[index].append((tied, tied_record))
        self.current_time = winner_time
        return self._record(event, winner_record, winner)

    def _pop_buffered(self) -> CompletionEvent | None:
        for index, events in enumerate(self._instance_events):
            if events:
                tied, record = events.pop(0)
                return self._record(tied, record, index)
        return None

    def _record(
        self, event: CompletionEvent, local: QueryExecutionRecord | None, instance: int
    ) -> CompletionEvent:
        """Globalise one instance completion into the cluster log and state."""
        connection = self._connection_offsets[instance] + event.connection
        if event.failed:
            # Nothing was logged or finished: the query returns to the
            # cluster-level pending set (the instance session already holds
            # it pending) and the failure propagates with globalised ids.
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


class Cluster:
    """N heterogeneous engine instances opening unified scheduling rounds.

    Satisfies the same ``SessionBackend`` shape as a single
    :class:`~repro.dbms.engine.DatabaseEngine` (``new_session`` /
    ``estimate_isolated_time`` / ``execute_order`` / ``collect_logs``), so
    every layer above — the runtime, the environments, the facade — can take
    either interchangeably.
    """

    def __init__(
        self,
        engines: Sequence[DatabaseEngine],
        name: str = "cluster",
        faults: FailureProfile | None = None,
    ) -> None:
        if not engines:
            raise ConfigurationError("a cluster needs at least one engine instance")
        self.engines = list(engines)
        self.name = name
        self.faults = faults
        self._round_counter = 0

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_profiles(
        cls,
        profiles: Sequence[DBMSProfile],
        seed: int = 0,
        name: str = "cluster",
        faults: FailureProfile | None = None,
    ) -> "Cluster":
        """Build a (possibly mixed-profile) fleet from per-instance profiles.

        Per-instance engine seeds descend from ``seed`` through the central
        :class:`~repro.seeding.SeedSpawner`, so identical cluster configs
        reproduce identical noise on every instance.
        """
        spawner = SeedSpawner(seed)
        engines = [
            DatabaseEngine(profile, seed=spawner.integer_seed("instance", index))
            for index, profile in enumerate(profiles)
        ]
        return cls(engines, name=name, faults=faults)

    @classmethod
    def homogeneous(
        cls,
        profile: DBMSProfile,
        num_instances: int,
        seed: int = 0,
        name: str = "cluster",
        faults: FailureProfile | None = None,
    ) -> "Cluster":
        """A fleet of ``num_instances`` identical-profile engines."""
        if num_instances < 1:
            raise ConfigurationError("num_instances must be >= 1")
        return cls.from_profiles([profile] * num_instances, seed=seed, name=name, faults=faults)

    @classmethod
    def from_names(
        cls,
        names: Sequence[str],
        seed: int = 0,
        name: str = "cluster",
        faults: FailureProfile | None = None,
    ) -> "Cluster":
        """Build a fleet from profile short-names (``("x", "x", "z")``)."""
        return cls.from_profiles(
            [DBMSProfile.by_name(n) for n in names], seed=seed, name=name, faults=faults
        )

    @classmethod
    def from_service_config(cls, service: "ServiceConfig", seed: int = 0) -> "Cluster":
        """Materialise the fleet declared in ``ServiceConfig.cluster_instances``."""
        if not service.cluster_instances:
            raise ConfigurationError("ServiceConfig.cluster_instances declares no fleet")
        return cls.from_names(service.cluster_instances, seed=seed, name="service-cluster")

    # ------------------------------------------------------------------ #
    # Topology
    # ------------------------------------------------------------------ #
    @property
    def num_instances(self) -> int:
        return len(self.engines)

    @property
    def profiles(self) -> list[DBMSProfile]:
        return [engine.profile for engine in self.engines]

    def __iter__(self) -> Iterator[DatabaseEngine]:
        return iter(self.engines)

    def __len__(self) -> int:
        return len(self.engines)

    def speed_factors(self) -> tuple[float, ...]:
        """Per-instance profile speed relative to the fleet mean."""
        speeds = [engine.profile.speed for engine in self.engines]
        mean = sum(speeds) / len(speeds)
        return tuple(speed / mean for speed in speeds)

    # ------------------------------------------------------------------ #
    # Backend protocol
    # ------------------------------------------------------------------ #
    def new_session(
        self,
        batch: BatchQuerySet,
        num_connections: int | None = None,
        strategy: str = "",
        round_id: int | None = None,
        faults: FailureProfile | None = None,
    ) -> ClusterSession:
        """Open one unified round: one per-instance engine session each.

        ``num_connections`` is *per instance* (matching the single-engine
        meaning of ``SchedulerConfig.num_connections``); ``None`` uses each
        instance profile's default.  Every instance session is built over
        the full batch so any query can be placed anywhere, and all share
        the same ``round_id`` so per-instance noise streams are aligned with
        the single-engine case.  ``faults`` (or the cluster-level profile)
        threads into every instance session; each instance draws fault fates
        from its own engine's dedicated stream and honours only its own
        outage windows.
        """
        if round_id is None:
            round_id = self._round_counter
        self._round_counter = max(self._round_counter, round_id) + 1
        session_faults = faults if faults is not None else self.faults
        sessions = [
            engine.new_session(
                batch,
                num_connections=num_connections,
                strategy=strategy,
                round_id=round_id,
                faults=session_faults,
                fault_instance=index,
            )
            for index, engine in enumerate(self.engines)
        ]
        return ClusterSession(self, batch, sessions, round_id=round_id, strategy=strategy)

    def estimate_isolated_time(
        self,
        query: Query,
        parameters: RunningParameters,
        instance: int = 0,
    ) -> float:
        """Isolated probe on one instance (instance 0 = the reference)."""
        if not 0 <= instance < self.num_instances:
            raise SchedulingError(f"instance {instance} out of range (cluster has {self.num_instances})")
        return self.engines[instance].estimate_isolated_time(query, parameters)

    execute_order = execute_fixed_order
    collect_logs = collect_fixed_order_logs

    def __repr__(self) -> str:
        names = ", ".join(profile.name for profile in self.profiles)
        return f"Cluster({self.name!r}, instances=[{names}])"
