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
  :class:`~repro.dbms.engine.ExecutionSession` per round.  The fleet
  mechanics — placement, connection offsets, park, cancel, health and the
  instance context — are :class:`~repro.dbms.soa.FleetSession`'s, shared with
  the learned simulator's :class:`~repro.perf.SimulatedClusterSession`; the
  two differ only in how an instance predicts its next event;
* here that is the engine's own: every instance keeps its *own* buffer pool,
  contention state and clock, and the cluster session unifies them behind
  one logical time by always advancing to the globally earliest completion
  and idling the other instances forward to that instant;
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
from .engine import DatabaseEngine, ExecutionSession, collect_fixed_order_logs, execute_fixed_order
from .faults import FailureProfile
from .params import RunningParameters
from .profiles import DBMSProfile
from .soa import CompletionEvent, FleetSession

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..config import ServiceConfig

__all__ = ["Cluster", "ClusterSession"]


class ClusterSession(FleetSession[ExecutionSession]):
    """One scheduling round across every instance of an engine fleet.

    Each instance is the engine's own
    :class:`~repro.dbms.engine.ExecutionSession`, with its own clock, and
    :meth:`advance` merges their events behind the round's clock.
    Placement, park, cancel and the instance context are
    :class:`~repro.dbms.soa.FleetSession`'s.
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
        # One argmin over the per-instance next-event instants (idle
        # instances report +inf); the first minimum is the lowest instance.
        next_times = np.array(
            [
                time if (time := session.next_completion_time()) is not None else np.inf
                for session in self.instances
            ],
            dtype=np.float64,
        )
        winner = int(np.argmin(next_times))
        winner_time = float(next_times[winner])
        if not np.isfinite(winner_time):
            if limit is None:
                raise SimulationError("cannot advance: no query is running")
            for session in self.instances:
                session.advance(limit=limit)
            self.current_time = max(self.current_time, limit)
            return None
        if limit is not None and winner_time > limit:
            for session in self.instances:
                session.advance(limit=limit)
            self.current_time = limit
            return None
        event = self.instances[winner].advance()
        assert event is not None
        winner_record = None if event.failed else self.instances[winner].log.records[-1]
        if event.failed:
            # An outage can kill several in-flight queries at once; only the
            # first failure is delivered now.
            self._demote_buffered_failures(self.instances[winner])
        for index, session in enumerate(self.instances):
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
        return ClusterSession(batch, round_id, strategy, sessions, self.speed_factors())

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
