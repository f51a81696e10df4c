"""A learned-simulator stand-in for a whole heterogeneous fleet.

:class:`SimulatedCluster` mirrors :class:`~repro.dbms.Cluster` the way the
single-engine ``LearnedSimulator`` mirrors a
:class:`~repro.dbms.DatabaseEngine`: it opens
:class:`SimulatedClusterSession` rounds that speak the cluster session
protocol — placement-aware ``submit(query_id, params, instance=)``,
per-instance logical clocks unified behind one round clock, deterministic
completion merging (earliest predicted finish wins, instance index breaks
ties), bounded ``advance(limit)`` and ``defer``/``release`` for streaming
arrivals — so the :class:`~repro.runtime.ExecutionRuntime`, the
:class:`~repro.core.cluster_env.ClusterSchedulingEnv` and the vectorized
rollout engine run against a simulated fleet unchanged.

Every advance asks the shared :class:`~repro.perf.PerformanceModel` one
question per busy instance: *of the queries running on this instance, which
finishes first and when?*  At ``num_instances == 1`` the arithmetic —
feature rows, prediction, clock updates, connection allocation — is
bit-for-bit the single-engine ``SimulatedSession``'s (digest-pinned in
``tests/test_perf.py``).
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


class _SimulatedInstance:
    """Per-instance execution state behind one simulated fleet round."""

    def __init__(self, index: int, num_connections: int) -> None:
        if num_connections < 1:
            raise SimulationError("num_connections must be >= 1")
        self.index = index
        self.num_connections = num_connections
        self.idle = num_connections
        self.clock = 0.0
        self.running: dict[int, RunningQueryState] = {}
        self.feature_rows: dict[int, np.ndarray] = {}

    @property
    def has_idle_connection(self) -> bool:
        return self.idle > 0


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
        self.instances = [
            _SimulatedInstance(index, count) for index, count in enumerate(instance_connections)
        ]
        self._placement: dict[int, int] = {}
        self._connection_offsets: list[int] = []
        offset = 0
        for count in instance_connections:
            self._connection_offsets.append(offset)
            offset += int(count)
        self.num_connections = offset

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
        instance = self.instances[placed]
        state = instance.running.pop(query_id)
        instance.feature_rows.pop(query_id, None)
        instance.idle += 1
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
            state = instance.running.pop(query_id)
            instance.feature_rows.pop(query_id, None)
            instance.idle += 1
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
        target.idle -= 1
        connection = target.num_connections - target.idle - 1
        self.pending.remove(query_id)
        self._placement[query_id] = instance
        target.running[query_id] = RunningQueryState(
            query=self.batch[query_id],
            parameters=parameters,
            connection=connection,
            submit_time=self.current_time,
            remaining_work=1.0,
            total_work=1.0,
        )
        self.state_arrays.mark_running(query_id, self.current_time)
        return self._connection_offsets[instance] + connection

    def _feature_row(self, instance: _SimulatedInstance, state: RunningQueryState) -> np.ndarray:
        """Cached per-query feature row (dynamic slots rewritten per advance)."""
        query_id = state.query.query_id
        row = instance.feature_rows.get(query_id)
        if row is None:
            row = self.perf.featurizer.rows(
                [query_id], [state.parameters], [0.0], instance=instance.index
            )[0]
            instance.feature_rows[query_id] = row
        return row

    def _instance_prediction(
        self, instance: _SimulatedInstance
    ) -> tuple[float, list[RunningQueryState], int]:
        """Predicted (finish_time, states, earliest index) for one instance."""
        states = list(instance.running.values())
        features = np.stack([self._feature_row(instance, state) for state in states], axis=0)
        elapsed = np.array([self.current_time - state.submit_time for state in states])
        self.perf.featurizer.rewrite_dynamic_columns(features, elapsed)
        logits, times = self.perf.model.predict(features)
        index = int(np.argmax(logits))
        remaining = max(MIN_REMAINING, float(times[index]) * TIME_SCALE)
        if self._fates:
            # Mirror the fluid engine's fate semantics on predicted times: a
            # straggler runs ``hang_factor`` times longer, an errored attempt
            # dies after ``error_work_fraction`` of its predicted remainder.
            fate = self._fates.get(states[index].query.query_id)
            if fate is not None:
                assert self._faults is not None
                if fate.hang:
                    remaining *= self._faults.hang_factor
                if fate.error:
                    remaining *= self._faults.error_work_fraction
        return self.current_time + remaining, states, index

    def advance(self, limit: float | None = None) -> CompletionEvent | None:
        """Advance the unified clock to the earliest predicted completion.

        Semantics mirror :meth:`~repro.dbms.cluster.ClusterSession.advance`:
        each busy instance predicts its earliest finisher, the globally
        earliest one is materialised (instance index breaks exact ties), and
        with a ``limit`` the clock never moves past it (``None`` returned).
        """
        if self._fault_events:
            return self._fault_events.pop(0)
        if self.num_running == 0:
            if limit is None:
                raise SimulationError("cannot advance: no query running in the simulator")
            self.current_time = max(self.current_time, limit)
            for instance in self.instances:
                instance.clock = self.current_time
            return None
        candidates: list[tuple[float, int, "list[RunningQueryState] | None", int]] = []
        for instance in self.instances:
            if not instance.running:
                continue
            finish_time, states, index = self._instance_prediction(instance)
            kill_at = self._kill_instant(instance.index, finish_time)
            if kill_at is not None:
                # The instance dies before (or as) its earliest predicted
                # completion: the event at this instant is an outage kill.
                candidates.append((kill_at, instance.index, None, -1))
            else:
                candidates.append((finish_time, instance.index, states, index))
        finish_time, winner, states, index = min(candidates, key=lambda entry: (entry[0], entry[1]))
        if limit is not None and finish_time > limit:
            self.current_time = limit
            for instance in self.instances:
                instance.clock = self.current_time
            return None
        self.current_time = finish_time
        for instance in self.instances:
            instance.clock = self.current_time
        if states is None:
            self._kill_instance(self.instances[winner])
            return self._fault_events.pop(0)
        state = states[index]
        fate = self._fates.pop(state.query.query_id, None)
        if fate is not None and fate.error:
            return self._fail(self.instances[winner], state)
        return self._finish(self.instances[winner], state)

    def _fail(self, instance: _SimulatedInstance, state: RunningQueryState) -> CompletionEvent:
        """Materialise one predicted *errored* attempt: wasted work, no log."""
        query_id = state.query.query_id
        del instance.running[query_id]
        instance.feature_rows.pop(query_id, None)
        instance.idle += 1
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
        del instance.running[query_id]
        instance.feature_rows.pop(query_id, None)
        instance.idle += 1
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
