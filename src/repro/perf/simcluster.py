"""The learned incremental simulator: a simulated fleet of engine instances.

Sampling scheduling episodes against a real DBMS is slow, so BQSched trains a
:class:`~repro.perf.PerformanceModel` from historical logs and pre-trains the
RL policy against it (Section IV-C).  :class:`SimulatedCluster` is that
simulator as a backend.  It mirrors a :class:`~repro.dbms.Cluster` — a single
:class:`~repro.dbms.DatabaseEngine` is a simulated fleet of one — and opens
:class:`SimulatedClusterSession` rounds that speak the cluster session
protocol: placement-aware ``submit(query_id, params, instance=)``, one round
clock, deterministic completion merging (earliest predicted finish wins,
instance index breaks ties), bounded ``advance(limit)`` and
``defer``/``release`` for streaming arrivals.  So the
:class:`~repro.runtime.ExecutionRuntime`, both scheduling environments and the
vectorized rollout engine run against it unchanged.

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

from ..dbms import INSTANCE_FEATURE_DIM, QueryExecutionRecord, RunningParameters
from ..dbms.engine import CompletionEvent, RunningQueryState
from ..dbms.soa import BackendSession
from ..dbms.faults import FAILURE_ERROR, FAILURE_OUTAGE, FAULT_STREAM, FailureProfile, QueryFate
from ..exceptions import SimulationError
from ..seeding import SeedSpawner
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
    """Per-instance execution state behind one simulated fleet round.

    The model input of the running queries is kept incrementally: row ``i``
    of ``features`` / ``submit_times`` belongs to the ``i``-th entry of
    ``running`` (submission order), and an advance only rewrites the dynamic
    columns.  Capacity is bounded by the connection pool.
    """

    def __init__(self, index: int, num_connections: int, feature_dim: int) -> None:
        if num_connections < 1:
            raise SimulationError("num_connections must be >= 1")
        self.index = index
        self.num_connections = num_connections
        self.idle = num_connections
        self.running: dict[int, RunningQueryState] = {}
        self.features = np.zeros((num_connections, feature_dim), dtype=np.float64)
        self.submit_times = np.zeros(num_connections, dtype=np.float64)

    @property
    def has_idle_connection(self) -> bool:
        return self.idle > 0

    def add(self, state: RunningQueryState, row: np.ndarray) -> None:
        slot = len(self.running)
        self.features[slot] = row
        self.submit_times[slot] = state.submit_time
        self.running[state.query.query_id] = state
        self.idle -= 1

    def remove(self, query_id: int) -> RunningQueryState:
        """Free a running query's connection and splice its row out."""
        slot = list(self.running).index(query_id)
        k = len(self.running) - 1
        self.features[slot:k] = self.features[slot + 1 : k + 1]
        self.submit_times[slot:k] = self.submit_times[slot + 1 : k + 1]
        self.idle += 1
        return self.running.pop(query_id)


class SimulatedCluster:
    """Opens simulated fleet rounds served by one :class:`PerformanceModel`."""

    def __init__(
        self,
        perf: PerformanceModel,
        instance_connections: Sequence[int],
        name: str = "simulated-cluster",
        faults: FailureProfile | None = None,
        seed: int = 0,
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
        self.faults = faults
        self.seeds = SeedSpawner(seed)
        self._round_counter = 0
        # Fresh-submission feature rows keyed (instance, query_id,
        # config_index), shared by the sessions of every round.  A row bakes
        # in the estimated expected time, so the entries are dropped whenever
        # the estimates' version moves.
        self._row_cache: dict[tuple[int, int, int], np.ndarray] = {}
        self._row_cache_version = -1

    @classmethod
    def for_cluster(
        cls,
        perf: PerformanceModel,
        cluster: "Cluster",
        name: str | None = None,
        faults: FailureProfile | None = None,
    ) -> "SimulatedCluster":
        """A simulated twin of ``cluster`` (same topology, defaults and faults).

        The twin inherits the real cluster's :class:`FailureProfile` unless an
        explicit ``faults`` overrides it, so simulator pre-training exposes
        the policy to the same failure behaviour the serving fleet exhibits.
        """
        connections = [engine.profile.default_connections for engine in cluster.engines]
        return cls(
            perf,
            connections,
            name=name or f"simulated-{cluster.name}",
            faults=faults if faults is not None else cluster.faults,
        )

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
        ``None`` uses each instance's default connection count.  Fault fates
        draw from a dedicated per-round stream mirroring the real engine's
        derivation, so the fault-free path stays bit-identical.
        """
        if round_id is None:
            round_id = self._round_counter
        self._round_counter = max(self._round_counter, round_id) + 1
        connections = [
            num_connections if num_connections is not None else default
            for default in self.instance_connections
        ]
        session_faults = faults if faults is not None else self.faults
        fault_rng = (
            self.seeds.derive(round_id, FAULT_STREAM) if session_faults is not None else None
        )
        return SimulatedClusterSession(
            cluster=self,
            batch=batch,
            instance_connections=connections,
            strategy=strategy,
            round_id=round_id,
            faults=session_faults,
            fault_rng=fault_rng,
        )

    def __repr__(self) -> str:
        return f"SimulatedCluster({self.name!r}, instances={self.num_instances})"


class SimulatedClusterSession(BackendSession):
    """One simulated scheduling round across a fleet of engine instances."""

    error = SimulationError

    def __init__(
        self,
        cluster: SimulatedCluster,
        batch: BatchQuerySet,
        instance_connections: Sequence[int],
        strategy: str = "",
        round_id: int = 0,
        faults: FailureProfile | None = None,
        fault_rng: np.random.Generator | None = None,
    ) -> None:
        if faults is not None and faults.has_random_faults and fault_rng is None:
            raise SimulationError("a FailureProfile with random faults needs a fault_rng stream")
        super().__init__(batch, round_id, strategy or "simulated")
        self.cluster = cluster
        self.perf = cluster.perf
        self._faults = faults
        self._fault_rng = fault_rng
        self._fates: dict[int, QueryFate] = {}
        self._fault_events: list[CompletionEvent] = []
        feature_dim = self.perf.featurizer.feature_dim
        self.instances = [
            _SimulatedInstance(index, count, feature_dim) for index, count in enumerate(instance_connections)
        ]
        self._placement: dict[int, int] = {}
        self._connection_offsets: list[int] = []
        offset = 0
        for count in instance_connections:
            self._connection_offsets.append(offset)
            offset += int(count)
        self.num_connections = offset

    @property
    def supports_lockstep(self) -> bool:
        """Fault-free rounds only: fates and outage kills are not batched."""
        return self._faults is None

    # ------------------------------------------------------------------ #
    # Cluster topology
    # ------------------------------------------------------------------ #
    @property
    def num_instances(self) -> int:
        return len(self.instances)

    def instance_of(self, query_id: int) -> int:
        """The instance a running/finished query was placed on (-1 if never)."""
        return self._placement.get(query_id, -1)

    def idle_instances(self) -> list[int]:
        return [
            instance.index
            for instance in self.instances
            if instance.has_idle_connection and not self.instance_is_down(instance.index)
        ]

    # ------------------------------------------------------------------ #
    # Fault-injection API
    # ------------------------------------------------------------------ #
    def instance_is_down(self, instance: int) -> bool:
        """Whether ``instance`` is inside an outage window right now."""
        return self._faults is not None and self._faults.is_down(instance, self.current_time)

    def instance_health(self) -> list[bool]:
        """Per-instance up/down health (``False`` while inside an outage window)."""
        return [not self.instance_is_down(instance.index) for instance in self.instances]

    def next_fault_wakeup(self) -> float | None:
        """Earliest recovery instant among currently-downed instances."""
        if self._faults is None:
            return None
        wakeups = [
            recovery
            for instance in self.instances
            if (recovery := self._faults.recovery_time(instance.index, self.current_time)) is not None
        ]
        return min(wakeups) if wakeups else None

    def cancel(self, query_id: int) -> int:
        """Kill a running query: free its connection, return it to pending.

        Returns the freed *global* connection id (instance offsets applied).
        """
        placed = self._placement.get(query_id, -1)
        if placed < 0 or query_id not in self.instances[placed].running:
            raise SimulationError(f"query {query_id} is not running and cannot be cancelled")
        state = self.instances[placed].remove(query_id)
        self._fates.pop(query_id, None)
        self.pending.append(query_id)
        self.state_arrays.mark_pending(query_id)
        return self._connection_offsets[placed] + state.connection

    def _kill_instant(self, instance: int, until: float) -> float | None:
        """Earliest instant in ``(now, until]`` at which the instance's work dies."""
        if self._faults is None:
            return None
        if self._faults.is_down(instance, self.current_time):
            return self.current_time
        start = self._faults.next_outage_start(instance, self.current_time)
        if start is not None and start <= until:
            return start
        return None

    def _kill_instance(self, instance: _SimulatedInstance) -> None:
        """Kill every running query of one instance at the current instant."""
        for query_id in sorted(instance.running):
            state = instance.remove(query_id)
            self._fates.pop(query_id, None)
            self.pending.append(query_id)
            self.state_arrays.mark_pending(query_id)
            self._fault_events.append(
                CompletionEvent(
                    query_id=query_id,
                    finish_time=self.current_time,
                    connection=self._connection_offsets[instance.index] + state.connection,
                    instance=instance.index,
                    failed=True,
                    failure=FAILURE_OUTAGE,
                )
            )

    def instance_num_running(self) -> list[int]:
        return [len(instance.running) for instance in self.instances]

    def speed_factors(self) -> tuple[float, ...]:
        return self.cluster.speed_factors()

    def instance_context(self) -> np.ndarray:
        """Observable per-instance context, mirroring the real cluster's.

        The simulator has no buffer pool, so the buffer-fill column stays
        zero; speed, busy fraction and capacity share match the layout of
        :meth:`~repro.dbms.cluster.ClusterSession.instance_context`.
        """
        context = np.zeros((self.num_instances, INSTANCE_FEATURE_DIM), dtype=np.float64)
        speeds = self.speed_factors()
        total_connections = max(1, self.num_connections)
        for index, instance in enumerate(self.instances):
            context[index, 0] = speeds[index]
            context[index, 1] = len(instance.running) / instance.num_connections
            context[index, 2] = instance.num_connections / total_connections
        return context

    # ------------------------------------------------------------------ #
    # Session protocol: state
    # ------------------------------------------------------------------ #
    @property
    def running(self) -> dict[int, RunningQueryState]:
        """Aggregated running-state view across every instance."""
        merged: dict[int, RunningQueryState] = {}
        for instance in self.instances:
            merged.update(instance.running)
        return merged

    @property
    def has_idle_connection(self) -> bool:
        return bool(self.idle_instances())

    @property
    def num_running(self) -> int:
        """In-flight queries, including failures buffered but not yet delivered."""
        return sum(len(instance.running) for instance in self.instances) + len(self._fault_events)

    # ------------------------------------------------------------------ #
    # Session protocol: scheduling
    # ------------------------------------------------------------------ #
    def submit(self, query_id: int, parameters: RunningParameters, instance: int = 0) -> int:
        """Submit a pending query to ``instance`` at the current logical time.

        Returns the *global* connection id (instance connection offsets),
        matching :meth:`~repro.dbms.cluster.ClusterSession.submit`.
        """
        if not 0 <= instance < self.num_instances:
            raise SimulationError(f"instance {instance} out of range (fleet has {self.num_instances})")
        if query_id not in self.pending:
            raise SimulationError(f"query {query_id} is not pending in the simulator")
        if self.instance_is_down(instance):
            raise SimulationError(f"instance {instance} is down and accepts no submissions")
        target = self.instances[instance]
        if target.idle <= 0:
            raise SimulationError(f"instance {instance} has no idle connection in the simulated session")
        if self._faults is not None and self._faults.has_random_faults:
            assert self._fault_rng is not None
            fate = self._faults.draw_fate(self._fault_rng)
            if not fate.clean:
                self._fates[query_id] = fate
        connection = target.num_connections - target.idle
        self.pending.remove(query_id)
        self._placement[query_id] = instance
        state = RunningQueryState(
            query=self.batch[query_id],
            parameters=parameters,
            connection=connection,
            submit_time=self.current_time,
            remaining_work=1.0,
            total_work=1.0,
        )
        target.add(state, self.cluster.feature_row(instance, query_id, parameters))
        self.state_arrays.mark_running(query_id, self.current_time)
        return self._connection_offsets[instance] + connection

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

        Semantics mirror :meth:`~repro.dbms.cluster.ClusterSession.advance`:
        with a ``limit`` the clock never moves past it (``None`` returned),
        and with nothing running a ``limit`` idles the clock forward to it.
        """
        if self._fault_events:
            return self._fault_events.pop(0)
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
        remaining time, stretched or cut by its fault fate; an instance whose
        outage starts first loses its work instead.  The earliest event wins
        and the instance index breaks exact ties.
        """
        best: tuple[float, int, RunningQueryState | None] | None = None
        for (index, states, _), (logits, times) in zip(groups, predictions):
            earliest = int(np.argmax(logits))
            remaining = max(MIN_REMAINING, float(times[earliest]) * TIME_SCALE)
            if self._fates:
                # Mirror the fluid engine's fate semantics on predicted times: a
                # straggler runs ``hang_factor`` times longer, an errored attempt
                # dies after ``error_work_fraction`` of its predicted remainder.
                fate = self._fates.get(states[earliest].query.query_id)
                if fate is not None:
                    assert self._faults is not None
                    if fate.hang:
                        remaining *= self._faults.hang_factor
                    if fate.error:
                        remaining *= self._faults.error_work_fraction
            finish_time = self.current_time + remaining
            kill_at = self._kill_instant(index, finish_time)
            # An instance that dies before (or as) its earliest predicted
            # completion yields an outage kill at that instant.
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
        if state is None:
            self._kill_instance(self.instances[winner])
            return self._fault_events.pop(0)
        fate = self._fates.pop(state.query.query_id, None)
        if fate is not None and fate.error:
            return self._fail(self.instances[winner], state)
        return self._finish(self.instances[winner], state)

    def _fail(self, instance: _SimulatedInstance, state: RunningQueryState) -> CompletionEvent:
        """Materialise one predicted *errored* attempt: wasted work, no log."""
        query_id = state.query.query_id
        instance.remove(query_id)
        self.pending.append(query_id)
        self.state_arrays.mark_pending(query_id)
        return CompletionEvent(
            query_id=query_id,
            finish_time=self.current_time,
            connection=self._connection_offsets[instance.index] + state.connection,
            instance=instance.index,
            failed=True,
            failure=FAILURE_ERROR,
        )

    def _finish(self, instance: _SimulatedInstance, state: RunningQueryState) -> CompletionEvent:
        """Materialise one predicted completion into log, state and event."""
        query_id = state.query.query_id
        instance.remove(query_id)
        self.finished[query_id] = self.current_time
        self.state_arrays.mark_finished(query_id)
        connection = self._connection_offsets[instance.index] + state.connection
        self.log.add(
            QueryExecutionRecord(
                query_id=query_id,
                query_name=state.query.name,
                template_id=state.query.template_id,
                connection=connection,
                parameters=state.parameters,
                submit_time=state.submit_time,
                finish_time=self.current_time,
                instance=instance.index,
            )
        )
        return CompletionEvent(
            query_id=query_id,
            finish_time=self.current_time,
            connection=connection,
            instance=instance.index,
        )
