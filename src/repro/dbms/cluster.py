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
* a round is the engine fleet's
  :class:`~repro.dbms.engine.ClusterSession` (defined next to the engine and
  re-exported here) over one :class:`~repro.dbms.engine.ExecutionSession`
  unit per instance — the session a single engine opens over one unit.  The
  fleet mechanics — placement, connection offsets, park, cancel, health and
  the instance context — are :class:`~repro.dbms.soa.FleetSession`'s, shared
  with the learned simulator's :class:`~repro.perf.SimulatedClusterSession`;
  the two differ only in how an instance predicts its next event;
* here that is the engine's own: every instance keeps its *own* buffer pool,
  contention state and clock, and the cluster session unifies them behind
  one logical time by always advancing to the globally earliest completion
  and idling the other instances forward to that instant;
* completions that tie on the same instant land in per-instance event
  buffers and are drained in instance order before the clock moves again —
  the same deterministic merge the runtime's global
  :class:`~repro.runtime.EventQueue` applies to arrivals.

A single-instance cluster is bit-for-bit identical to driving the engine
directly (digest-pinned in ``tests/test_cluster.py``): both open the same
session over the same unit, with the same per-round noise stream.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from ..exceptions import ConfigurationError
from ..seeding import SeedSpawner
from ..workloads import BatchQuerySet, Query
from .engine import ClusterSession, DatabaseEngine, collect_fixed_order_logs, execute_fixed_order
from .faults import FailureProfile
from .params import RunningParameters
from .profiles import DBMSProfile

__all__ = ["Cluster", "ClusterSession"]


class Cluster:
    """N heterogeneous engine instances opening unified scheduling rounds.

    Satisfies the same ``SessionBackend`` shape as a single
    :class:`~repro.dbms.engine.DatabaseEngine` (``new_session`` /
    ``estimate_isolated_time`` / ``execute_order`` / ``collect_logs``), so
    every layer above — the runtime, the environments, the facade — can take
    either interchangeably.  Like an engine it holds no failure profile: faults
    enter a round through :meth:`new_session`.
    """

    def __init__(self, engines: Sequence[DatabaseEngine], name: str = "cluster") -> None:
        if not engines:
            raise ConfigurationError("a cluster needs at least one engine instance")
        self.engines = list(engines)
        self.name = name
        self._round_counter = 0

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_profiles(cls, profiles: Sequence[DBMSProfile], seed: int = 0, name: str = "cluster") -> "Cluster":
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
        return cls(engines, name=name)

    @classmethod
    def homogeneous(cls, profile: DBMSProfile, num_instances: int, seed: int = 0, name: str = "cluster") -> "Cluster":
        """A fleet of ``num_instances`` identical-profile engines."""
        if num_instances < 1:
            raise ConfigurationError("num_instances must be >= 1")
        return cls.from_profiles([profile] * num_instances, seed=seed, name=name)

    @classmethod
    def from_names(cls, names: Sequence[str], seed: int = 0) -> "Cluster":
        """Build a fleet from profile short-names (``("x", "x", "z")``)."""
        return cls.from_profiles([DBMSProfile.by_name(n) for n in names], seed=seed)

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
        """Open one unified round: one engine unit per instance.

        ``num_connections`` is *per instance* (matching the single-engine
        meaning of ``SchedulerConfig.num_connections``); ``None`` uses each
        instance profile's default.  Every instance session is built over
        the full batch so any query can be placed anywhere, and all share
        the same ``round_id`` so per-instance noise streams are aligned with
        the single-engine case.  ``faults`` threads into every instance unit;
        each instance draws fault fates from its own engine's dedicated stream
        and honours only its own outage windows.
        """
        if round_id is None:
            round_id = self._round_counter
        self._round_counter = max(self._round_counter, round_id) + 1
        units = [
            engine.open_instance(batch, num_connections, round_id, faults, index)
            for index, engine in enumerate(self.engines)
        ]
        return ClusterSession(batch, round_id, strategy, units, self.speed_factors())

    def estimate_isolated_time(self, query: Query, parameters: RunningParameters) -> float:
        """Isolated probe on instance 0, the fleet's reference."""
        return self.engines[0].estimate_isolated_time(query, parameters)

    execute_order = execute_fixed_order
    collect_logs = collect_fixed_order_logs

    def __repr__(self) -> str:
        names = ", ".join(profile.name for profile in self.profiles)
        return f"Cluster({self.name!r}, instances=[{names}])"
