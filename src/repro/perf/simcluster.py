"""The learned incremental simulator: a simulated fleet of engine instances.

Sampling scheduling episodes against a real DBMS is slow, so BQSched trains a
:class:`~repro.perf.PerformanceModel` from historical logs and pre-trains the
RL policy against it (Section IV-C).  :class:`SimulatedCluster` is that
simulator as a backend.  It mirrors a :class:`~repro.dbms.Cluster` — a single
:class:`~repro.dbms.DatabaseEngine` is a simulated fleet of one — and opens
:class:`SimulatedClusterSession` rounds.  Those are
:class:`~repro.dbms.soa.FleetSession` rounds like the engine fleet's: the same
placement, connection offsets, outage and park windows, cancel and instance
context, written once.  They differ from the engine fleet's only in how an
instance predicts its next event, so the
:class:`~repro.runtime.ExecutionRuntime`, its control plane (autoscale parks a
simulated fleet too), both scheduling environments and the vectorized
rollout engine run against it unchanged.

A simulated round is fault-free by construction: history and pre-training
rounds open without a :class:`~repro.dbms.FailureProfile`, and
:meth:`SimulatedCluster.new_session` refuses one.  Faults have one model, the
engine's; an instance's windows hold only autoscale parks, which kill
in-flight work the way an outage does.

Every advance asks the shared model one question per busy instance: *of the
queries running on this instance, which finishes first and when?*  The
question comes in three steps — :meth:`SimulatedClusterSession.advance_features`,
the model's prediction, :meth:`SimulatedClusterSession.apply_advance` — so the
vectorized engine can answer the questions of many sessions with one batched
forward.  Online logs fed back through
:meth:`~repro.perf.PerformanceModel.update_from_log` fine-tune the model
incrementally (hence *incremental* simulator).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..dbms import RunningParameters
from ..dbms.faults import FailureProfile, InstanceWindows
from ..dbms.soa import CompletionEvent, FleetSession, RunningQueryState, kill_running
from ..exceptions import SimulationError
from ..workloads import BatchQuerySet
from .features import MIN_REMAINING, TIME_SCALE
from .perfmodel import PerformanceModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..dbms import Cluster

__all__ = ["SimulatedCluster", "SimulatedClusterSession"]

#: One instance's share of a prediction round: its index, its running states
#: and their ``(k, feature_dim)`` model input (row ``i`` belongs to state ``i``).
AdvanceGroup = tuple[int, list[RunningQueryState], np.ndarray]


class _SimulatedInstance:
    """One instance of a simulated fleet round.

    Holds what the fleet session asks of an instance — running set, idle
    connections (lowest first), park windows and buffered failures — and the
    model input of its running queries: row ``i`` of
    ``features`` / ``submit_times`` belongs to the ``i``-th entry of
    ``running`` (submission order), and an advance only rewrites the dynamic
    columns.
    """

    #: The simulator has no buffer pool.
    buffer_fill = 0.0

    def __init__(self, index: int, num_connections: int, feature_dim: int) -> None:
        if num_connections < 1:
            raise SimulationError("num_connections must be >= 1")
        self.index = index
        self.num_connections = num_connections
        self.idle_connections: list[int] = list(range(num_connections))
        self.running: dict[int, RunningQueryState] = {}
        self.windows = InstanceWindows(index)
        self.fault_events: list[CompletionEvent] = []
        self.features = np.zeros((num_connections, feature_dim), dtype=np.float64)
        self.submit_times = np.zeros(num_connections, dtype=np.float64)

    @property
    def num_running(self) -> int:
        return len(self.running) + len(self.fault_events)

    def add(self, state: RunningQueryState, row: np.ndarray) -> None:
        slot = len(self.running)
        self.features[slot] = row
        self.submit_times[slot] = state.submit_time
        self.running[state.query.query_id] = state

    def withdraw(self, query_id: int) -> int:
        """Take a running query off the instance: free its connection and
        splice its row out.  Returns the freed connection."""
        slot = list(self.running).index(query_id)
        k = len(self.running) - 1
        self.features[slot:k] = self.features[slot + 1 : k + 1]
        self.submit_times[slot:k] = self.submit_times[slot + 1 : k + 1]
        state = self.running.pop(query_id)
        self.idle_connections.append(state.connection)
        self.idle_connections.sort()
        return state.connection


class SimulatedCluster:
    """Opens simulated fleet rounds served by one :class:`PerformanceModel`.

    Its rounds are fault-free: :meth:`new_session` refuses a failure
    profile (inject faults into a :class:`~repro.dbms.DatabaseEngine` or a
    :class:`~repro.dbms.Cluster` round instead).
    """

    def __init__(
        self,
        perf: PerformanceModel,
        instance_connections: Sequence[int],
        name: str = "simulated-cluster",
    ) -> None:
        if not instance_connections:
            raise SimulationError("a simulated cluster needs at least one instance")
        if len(instance_connections) != perf.num_instances:
            raise SimulationError(
                f"performance model covers {perf.num_instances} instances, "
                f"got {len(instance_connections)} connection counts"
            )
        self.perf = perf
        self.instance_connections = tuple(int(count) for count in instance_connections)
        self.name = name
        self._round_counter = 0
        # Fresh-submission feature rows keyed (instance, query_id,
        # config_index), shared by the sessions of every round.  A row bakes
        # in the estimated expected time, so the entries are dropped whenever
        # the estimates' version moves.
        self._row_cache: dict[tuple[int, int, int], np.ndarray] = {}
        self._row_cache_version = -1

    @classmethod
    def for_cluster(cls, perf: PerformanceModel, cluster: "Cluster") -> "SimulatedCluster":
        """A simulated twin of ``cluster``: the same topology and connection defaults."""
        connections = [engine.profile.default_connections for engine in cluster.engines]
        return cls(perf, connections, name=f"simulated-{cluster.name}")

    # ------------------------------------------------------------------ #
    # Topology
    # ------------------------------------------------------------------ #
    @property
    def num_instances(self) -> int:
        return len(self.instance_connections)

    def speed_factors(self) -> tuple[float, ...]:
        speeds = self.perf.featurizer.instance_speeds
        return speeds if speeds else (1.0,) * self.num_instances

    def feature_row(self, instance: int, query_id: int, parameters: RunningParameters) -> np.ndarray:
        """Feature row of a fresh submission (``elapsed = 0``), cached.

        A row depends only on the frozen plan embedding, the configuration
        one-hot, the estimated expected time and the instance's speed, so it
        stays valid across rounds until the estimates are refreshed from new
        logs.  The returned array is shared: callers copy before writing.
        """
        version = self.perf.knowledge.version
        if version != self._row_cache_version:
            self._row_cache.clear()
            self._row_cache_version = version
        key = (instance, query_id, self.perf.config_space.index_of(parameters))
        row = self._row_cache.get(key)
        if row is None:
            row = self.perf.featurizer.rows([query_id], [parameters], [0.0], instance=instance)[0]
            self._row_cache[key] = row
        return row

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
    ) -> "SimulatedClusterSession":
        """Open one simulated round across every instance.

        ``num_connections`` is *per instance* (the cluster convention);
        ``None`` uses each instance's default connection count.  ``faults``
        is in the backend protocol's signature only: a simulated round is
        fault-free, so any profile raises :class:`SimulationError`.
        """
        if faults is not None:
            raise SimulationError(
                "the learned simulator opens fault-free rounds only; inject faults into a "
                "DatabaseEngine or a Cluster round instead"
            )
        if round_id is None:
            round_id = self._round_counter
        self._round_counter = max(self._round_counter, round_id) + 1
        connections = [
            num_connections if num_connections is not None else default
            for default in self.instance_connections
        ]
        return SimulatedClusterSession(
            cluster=self,
            batch=batch,
            instance_connections=connections,
            strategy=strategy,
            round_id=round_id,
        )

    def __repr__(self) -> str:
        return f"SimulatedCluster({self.name!r}, instances={self.num_instances})"


class SimulatedClusterSession(FleetSession[_SimulatedInstance]):
    """One simulated scheduling round across a fleet of engine instances.

    Placement, park, cancel and the instance context are
    :class:`~repro.dbms.soa.FleetSession`'s; an instance predicts its next
    event by asking the performance model.
    """

    error = SimulationError
    supports_lockstep = True

    def __init__(
        self,
        cluster: SimulatedCluster,
        batch: BatchQuerySet,
        instance_connections: Sequence[int],
        strategy: str = "",
        round_id: int = 0,
    ) -> None:
        feature_dim = cluster.perf.featurizer.feature_dim
        units = [
            _SimulatedInstance(index, int(count), feature_dim) for index, count in enumerate(instance_connections)
        ]
        super().__init__(batch, round_id, strategy or "simulated", units, cluster.speed_factors())
        self.cluster = cluster
        self.perf = cluster.perf

    def submit(self, query_id: int, parameters: RunningParameters, instance: int = 0) -> int:
        """Submit a pending query to ``instance`` at the current logical time.

        Returns the *global* connection id (instance connection offsets),
        matching :meth:`~repro.dbms.cluster.ClusterSession.submit`.
        """
        unit = self._check_submit(query_id, instance)
        state = RunningQueryState(
            query=self.batch[query_id],
            parameters=parameters,
            connection=unit.idle_connections.pop(0),
            submit_time=self.current_time,
            remaining_work=1.0,
            total_work=1.0,
        )
        unit.add(state, self.cluster.feature_row(instance, query_id, parameters))
        return self._record_submit(query_id, instance, state.connection)

    def advance_features(self) -> list[AdvanceGroup]:
        """One ``(instance, states, features)`` group per busy instance.

        ``features`` is a view of the instance's live model input with the
        dynamic columns brought up to the current time, valid until the next
        ``submit``/``cancel``/``apply_advance`` on this session.  Exposed
        apart from :meth:`advance` so the vectorized engine can stack the
        groups of many sessions into one batched prediction.
        """
        groups = []
        for instance in self.instances:
            k = len(instance.running)
            if k:
                features = instance.features[:k]
                elapsed = self.current_time - instance.submit_times[:k]
                self.perf.featurizer.rewrite_dynamic_columns(features, elapsed)
                groups.append((instance.index, list(instance.running.values()), features))
        return groups

    def advance(self, limit: float | None = None) -> CompletionEvent | None:
        """Advance the unified clock to the earliest predicted event.

        Failures buffered by a kill are delivered first, in instance order.
        With a ``limit`` the clock never moves past it (``None`` returned),
        and with nothing running a ``limit`` idles the clock forward to it.
        """
        for unit in self.instances:
            if unit.fault_events:
                return self._record(unit.fault_events.pop(0), None, unit.index)
        if self.num_running == 0:
            if limit is None:
                raise SimulationError("cannot advance: no query running in the simulator")
            self.current_time = max(self.current_time, limit)
            return None
        groups = self.advance_features()
        predictions = [self.perf.model.predict(features) for _, _, features in groups]
        return self.apply_advance(groups, predictions, limit=limit)

    def apply_advance(
        self,
        groups: Sequence[AdvanceGroup],
        predictions: Sequence[tuple[np.ndarray, np.ndarray]],
        limit: float | None = None,
    ) -> CompletionEvent | None:
        """Materialise the earliest event the per-group ``(logits, times)`` imply.

        Each group's predicted earliest finisher ends after its predicted
        remaining time; a parked instance loses its work instead, at the park
        instant.  The earliest event wins and the instance index breaks exact
        ties.
        """
        now = self.current_time
        best: tuple[float, int, RunningQueryState | None] | None = None
        for (index, states, _), (logits, times) in zip(groups, predictions):
            unit = self.instances[index]
            earliest = int(np.argmax(logits))
            finish_time = now + max(MIN_REMAINING, float(times[earliest]) * TIME_SCALE)
            kill_at = unit.windows.kill_instant(now, finish_time)
            # A parked instance's work dies at the park instant, as an outage kill.
            candidate: tuple[float, int, RunningQueryState | None] = (
                (finish_time, index, states[earliest]) if kill_at is None else (kill_at, index, None)
            )
            if best is None or candidate[:2] < best[:2]:
                best = candidate
        assert best is not None, "apply_advance needs at least one group"
        finish_time, winner, state = best
        if limit is not None and finish_time > limit:
            self.current_time = limit
            return None
        self.current_time = finish_time
        unit = self.instances[winner]
        if state is None:
            kill_running(unit, finish_time)
            self._demote_buffered_failures(unit)
            return self._record(unit.fault_events.pop(0), None, winner)
        query_id = state.query.query_id
        unit.withdraw(query_id)
        return self._record(CompletionEvent(query_id, finish_time, state.connection), state, winner)
