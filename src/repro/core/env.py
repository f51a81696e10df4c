"""The batch-query scheduling environment.

The environment turns the scheduling problem into the sequential decision
process BQSched learns on:

* a *state* is the observable runtime snapshot of every query
  (:class:`repro.encoder.SnapshotArrays`): its status, running parameters,
  elapsed time and logged average time (Section III-A), plus the fleet's
  instance context on a :class:`~repro.dbms.Cluster`;
* an *action* selects the next pending query together with the instance it
  runs on and its running parameters (or, in cluster mode, the next query
  cluster, the instance of its first submission and the cluster's shared
  configuration);
* after each submission the clock only advances when no further decision can
  be made (no idle connection or nothing pending), and the per-step *reward*
  is the negative wall-clock time that elapsed (``-elapsed``, nothing else),
  so the episode return is the negative makespan the paper optimises.

The action space is flat: each slot fans out into ``num_instances *
num_configs`` joint choices, laid out as::

    action = slot * (num_instances * num_configs)
           + instance * num_configs
           + config_index

A single engine is a fleet of one instance, where every formula collapses to
"pick the next (query, configuration)"; ``tests/test_env_parity.py`` pins an
engine and a :class:`~repro.dbms.Cluster` of that engine to the same
decisions, masks and round logs.

The environment is backend-agnostic: it drives the real DBMS substrate
(:class:`repro.dbms.DatabaseEngine` or a :class:`repro.dbms.Cluster` of
them), the learned incremental simulator
(:class:`repro.perf.SimulatedCluster`), or a tenant of the event-driven
:class:`repro.runtime.ExecutionRuntime` — which is exactly the
non-intrusive interface the paper requires.  The environment itself is a
thin runtime client: every round runs through an
:class:`~repro.runtime.ExecutionRuntime` (a private single-tenant one when
the backend is a raw engine/simulator), so closed batches, multi-tenant
shared rounds and streaming arrivals all take the same code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, Sequence, runtime_checkable

import numpy as np

from ..config import SchedulerConfig
from ..dbms import Cluster, ConfigurationSpace, RunningParameters
from ..dbms.logs import RoundLog
from ..dbms.soa import SOA_DEFERRED
from ..encoder import SnapshotArrays
from ..exceptions import SchedulingError
from ..perf import SimulatedCluster
from ..runtime import ExecutionRuntime, RuntimeTenant
from ..workloads import ArrivalProcess, BatchQuerySet
from .knowledge import ExternalKnowledge
from .masking import AdaptiveMask
from .types import SchedulingResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..dbms.engine import RunningQueryState

__all__ = [
    "SchedulingEnv",
    "StepResult",
    "SchedulingSession",
    "SessionBackend",
    "cluster_instance_count",
    "drive_service",
    "greedy_cost_instance",
]

#: Maps backend-observable ``SOA_*`` codes onto the three scheduler-visible
#: status codes (FAILED reads as FINISHED, DEFERRED as PENDING).
_SOA_STATUS_OBS = np.array([0, 1, 2, 2, 0], dtype=np.int8)

#: True exactly for ``SOA_RUNNING`` — one table lookup instead of an
#: equality scan per snapshot build.
_SOA_IS_RUNNING = np.array([False, True, False, False, False])

#: Observable config index per status when the query is *not* running:
#: finished/failed queries report slot 0 (their config one-hot is kept),
#: pending/deferred report -1.  The running entry is a filler —
#: running rows take the live config slot instead.
_SOA_CONFIG_BASE = np.array([-1, 0, 0, 0, -1], dtype=np.int64)


def greedy_cost_instance(
    available: "Sequence[int]",
    outstanding: np.ndarray,
    speeds: "Sequence[float]",
    expected: float,
) -> int:
    """Idle instance minimising ``(outstanding + expected) / speed``.

    The single definition of the greedy-cost placement rule, shared by
    :class:`~repro.core.baselines.GreedyCostPlacementScheduler` and the
    trailing placements of :class:`SchedulingEnv`'s cluster drain.  Ties
    break to the lowest instance index.
    """
    if not available:
        raise SchedulingError("no instance has an idle connection")
    return min(
        available,
        key=lambda index: ((outstanding[index] + expected) / max(speeds[index], 1e-9), index),
    )


def cluster_instance_count(backend: object) -> int | None:
    """Instances behind a fleet backend, or ``None`` for single-engine backends.

    The single definition of "is this backend a fleet": a
    :class:`~repro.dbms.Cluster` (or its learned twin, a
    :class:`~repro.perf.SimulatedCluster`) directly, or a
    :class:`~repro.runtime.RuntimeTenant` routing (possibly through nested
    tenants) to one.  The environment's instance count, the facade and
    ``evaluate_on`` resolve through here.
    """
    if isinstance(backend, (Cluster, SimulatedCluster)):
        return backend.num_instances
    if isinstance(backend, RuntimeTenant):
        return cluster_instance_count(backend.runtime.backend)
    return None


def drive_service(runtime: ExecutionRuntime, envs: "Sequence[SchedulingEnv]", select_action) -> None:
    """Run a multi-tenant round to completion, event-driven.

    The one serve loop shared by :meth:`RLSchedulerBase.serve` and the
    service benchmarks: at every completion or arrival event, every tenant
    whose environment can decide submits (``select_action(env)`` chooses the
    action) before the clock moves again; submissions free up decisions for
    peers, so the inner sweep repeats until no tenant can act, then the
    runtime advances to the next event.  Callers must have ``reset`` every
    environment into the shared round first, and every environment must be
    a tenant of ``runtime`` (else :class:`SchedulingError` names its index):
    one on another runtime would never advance and be left half done.
    Sharing one fleet is also why its idle-connection half of
    :meth:`SchedulingEnv.can_decide` is asked once per tenant visit and per
    decision, and a sweep ends as soon as the fleet is saturated.
    """
    for index, env in enumerate(envs):
        if env.runtime is not runtime:
            raise SchedulingError(f"environment {index} is not a tenant of the runtime being driven")
        env._require_session()
    shared = runtime.shared_session
    while True:
        progressed = idle = True
        while progressed and idle:
            progressed = False
            for env in envs:
                while (idle := shared.has_idle_connection) and env._has_selectable_slot():
                    env.begin_step(select_action(env))
                    progressed = True
                if not idle:
                    break
        if runtime.is_done:
            break
        runtime.advance()


@runtime_checkable
class SchedulingSession(Protocol):
    """One live scheduling round: what a ``SessionBackend`` opens.

    Implemented by the one backend session class,
    :class:`~repro.dbms.soa.FleetSession` — the engine fleet's
    :class:`~repro.dbms.ClusterSession` (a single engine opens it over one
    instance) and the learned simulator's
    :class:`~repro.perf.SimulatedClusterSession` — and by the runtime's
    :class:`~repro.runtime.TenantSession`.  The environment itself only ever
    holds a :class:`~repro.runtime.TenantSession`: it wraps every raw backend
    in an :class:`~repro.runtime.ExecutionRuntime`.  ``submit`` places the
    query on ``instance``; a session rejects an instance its backend does not
    have (anything but 0 on a single engine) with the backend's error type.
    """

    current_time: float
    pending: list[int]
    finished: dict[int, float]
    log: RoundLog

    @property
    def is_done(self) -> bool: ...  # pragma: no cover - protocol

    @property
    def has_idle_connection(self) -> bool: ...  # pragma: no cover - protocol

    @property
    def has_pending(self) -> bool: ...  # pragma: no cover - protocol

    @property
    def num_running(self) -> int: ...  # pragma: no cover - protocol

    @property
    def makespan(self) -> float: ...  # pragma: no cover - protocol

    def running_states(self) -> "list[RunningQueryState]": ...  # pragma: no cover - protocol

    def unarrived_ids(self) -> tuple[int, ...]: ...  # pragma: no cover - protocol

    def arrival_time(self, query_id: int) -> float: ...  # pragma: no cover - protocol

    def submit(
        self, query_id: int, parameters: RunningParameters, instance: int = 0
    ) -> int: ...  # pragma: no cover - protocol

    def advance(self, limit: float | None = None) -> object | None: ...  # pragma: no cover - protocol


@runtime_checkable
class SessionBackend(Protocol):
    """Anything that can open scheduling rounds.

    Satisfied by :class:`repro.dbms.DatabaseEngine`,
    :class:`repro.dbms.Cluster`,
    :class:`repro.perf.SimulatedCluster` (the learned simulator) and
    :class:`repro.runtime.RuntimeTenant` (conformance is asserted in
    ``tests/test_session_protocol.py``).
    """

    def new_session(
        self,
        batch: BatchQuerySet,
        num_connections: int | None = None,
        strategy: str = "",
        round_id: int | None = None,
    ) -> SchedulingSession: ...  # pragma: no cover - protocol


@dataclass(frozen=True)
class StepResult:
    """Returned by :meth:`SchedulingEnv.step`."""

    snapshot: SnapshotArrays
    reward: float
    done: bool
    info: dict


class SchedulingEnv:
    """Gym-style environment over one batch query set and one backend.

    Actions place queries across the backend's instances: one on a single
    engine, ``Cluster.num_instances`` on a fleet (see the module docstring for
    the flat layout).
    """

    def __init__(
        self,
        batch: BatchQuerySet,
        backend: SessionBackend,
        scheduler_config: SchedulerConfig,
        config_space: ConfigurationSpace,
        knowledge: ExternalKnowledge,
        mask: AdaptiveMask | None = None,
        clusters=None,
        strategy_name: str = "rl",
        arrivals: "ArrivalProcess | Sequence[float] | None" = None,
    ) -> None:
        self.batch = batch
        self.backend = backend
        self.scheduler_config = scheduler_config
        self.config_space = config_space
        self.knowledge = knowledge
        self.num_configs = len(config_space)
        fleet_size = cluster_instance_count(backend)
        self.num_instances = fleet_size or 1
        # A single engine's session is a fleet of one with a context row, but
        # only a fleet backend has the instance-context channel.
        self._reads_context = fleet_size is not None
        #: Flat choices per slot: each picks a placement and a configuration.
        self.configs_per_slot = self.num_instances * self.num_configs
        if mask is None:
            mask = AdaptiveMask.unmasked(len(batch), self.num_configs)
        elif mask.num_queries < len(batch):
            # A mask built from a smaller probed set (e.g. before extra trace
            # queries were appended) grows to cover the full batch; the new
            # queries default to every configuration.
            mask = mask.extended(len(batch))
        self.mask = mask
        self.clusters = clusters
        self.strategy_name = strategy_name
        self.arrivals = arrivals
        if isinstance(backend, RuntimeTenant):
            if arrivals is not None:
                raise SchedulingError("arrivals are configured when registering the runtime tenant")
            self._tenant = backend
        else:
            self._tenant = ExecutionRuntime(backend).register("env", self.batch, arrivals=arrivals)
        self._session = None
        self._cluster_remaining: list[list[int]] = []
        self._cluster_union: "tuple[np.ndarray, np.ndarray, np.ndarray] | None" = None
        self._round_counter = 0
        # Fast-snapshot columns (rebuilt per reset, when knowledge may have
        # been refreshed): per-query average expected time, and the config
        # index / expected time recorded at each submission so the snapshot
        # never re-derives them per step.
        self._soa_avg_expected: np.ndarray | None = None
        self._soa_config_slots: np.ndarray | None = None
        self._soa_expected_slots: np.ndarray | None = None

    @property
    def runtime(self) -> ExecutionRuntime:
        """The event-driven runtime this environment schedules through."""
        return self._tenant.runtime

    def clone(self) -> "SchedulingEnv":
        """A fresh environment built from everything this one was built with.

        The components (batch, backend, knowledge, mask, clusters, arrivals)
        are shared; the clone registers its own single-tenant
        runtime, so its rounds are independent of this environment's.  An
        environment bound to a shared-runtime tenant cannot be cloned: the
        clones would fight over one tenant's round.
        """
        if isinstance(self.backend, RuntimeTenant):
            raise SchedulingError("cannot clone an environment bound to a shared runtime tenant")
        return type(self)(
            batch=self.batch,
            backend=self.backend,
            scheduler_config=self.scheduler_config,
            config_space=self.config_space,
            knowledge=self.knowledge,
            mask=self.mask,
            clusters=self.clusters,
            strategy_name=self.strategy_name,
            arrivals=self.arrivals,
        )

    # ------------------------------------------------------------------ #
    # Action space
    # ------------------------------------------------------------------ #
    @property
    def cluster_mode(self) -> bool:
        return self.clusters is not None

    @property
    def num_action_slots(self) -> int:
        """Number of selectable entities (queries, or clusters in cluster mode)."""
        return self.clusters.num_clusters if self.cluster_mode else len(self.batch)

    @property
    def action_dim(self) -> int:
        """Size of the flat action space ``slots * configs_per_slot``."""
        return self.num_action_slots * self.configs_per_slot

    def encode_action(self, slot: int, config_index: int) -> int:
        """Flatten (query-or-cluster index, per-slot choice) into one action id."""
        if not 0 <= slot < self.num_action_slots:
            raise SchedulingError(f"slot {slot} out of range")
        if not 0 <= config_index < self.configs_per_slot:
            raise SchedulingError(f"config index {config_index} out of range")
        return slot * self.configs_per_slot + config_index

    def decode_action(self, action: int) -> tuple[int, int]:
        """Inverse of :meth:`encode_action`."""
        if not 0 <= action < self.action_dim:
            raise SchedulingError(f"action {action} out of range (dim={self.action_dim})")
        return action // self.configs_per_slot, action % self.configs_per_slot

    def encode_placement(self, slot: int, instance: int, config_index: int) -> int:
        """Flatten a (slot, instance, configuration) triple into one action."""
        if not 0 <= instance < self.num_instances:
            raise SchedulingError(f"instance {instance} out of range")
        if not 0 <= config_index < self.num_configs:
            raise SchedulingError(f"config index {config_index} out of range")
        return self.encode_action(slot, instance * self.num_configs + config_index)

    def decode_placement(self, action: int) -> tuple[int, int, int]:
        """Inverse of :meth:`encode_placement`."""
        slot, joint = self.decode_action(action)
        instance, config_index = divmod(joint, self.num_configs)
        return slot, instance, config_index

    def action_mask(self) -> np.ndarray:
        """Valid (slot, instance, configuration) triples as one flat mask.

        A triple is valid when the slot is selectable (a pending-and-arrived
        query, or a query cluster with members remaining), the configuration
        is allowed by the adaptive mask, and the instance has an idle
        connection (saturated instances mask out whole columns — and so do
        *downed* instances: an instance inside an outage window reports no
        idle connections, so the policy can never place work on it).  Whenever
        :meth:`can_decide` is true at least one entry is set: the adaptive
        mask guarantees every query at least one configuration, and
        ``can_decide`` requires a selectable slot plus an idle instance — so
        a policy softmax over this mask can never collapse to all-masked.

        Built in one pass: the selectable slots' allowed configurations are
        written straight into the idle instances' columns.
        """
        self._require_session()
        mask = np.zeros((self.num_action_slots, self.num_instances, self.num_configs), dtype=bool)
        idle = self._session.idle_instances()
        if self.cluster_mode:
            mask[:, idle] = self._cluster_slot_mask()[:, None]
        else:
            pending = np.fromiter(self._session.pending, dtype=np.int64)
            mask[pending[:, None], idle] = self.mask.allowed_matrix[pending, None]
        return mask.reshape(self.action_dim)

    def _cluster_slot_mask(self) -> np.ndarray:
        """``(clusters, configs)`` mask: a cluster with members left allows a configuration
        iff some member does; a drained cluster allows none.

        The member union depends only on ``clusters.membership`` and the
        mask's ``allowed_matrix``, so it is built once per clustering (cached
        by the identity of both) and each decision only ANDs in the live column.
        """
        membership, allowed = self.clusters.membership, self.mask.allowed_matrix
        cached = self._cluster_union
        if cached is None or cached[0] is not membership or cached[1] is not allowed:
            union = (membership[:, :, None] & allowed[None, : membership.shape[1]]).any(axis=1)
            cached = self._cluster_union = (membership, allowed, union)
        remaining = self._cluster_remaining
        live = np.fromiter(map(bool, remaining), dtype=bool, count=len(remaining))
        return cached[2] & live[:, None]

    # ------------------------------------------------------------------ #
    # Episode control
    # ------------------------------------------------------------------ #
    def reset(self, round_id: int | None = None, strategy: str | None = None) -> SnapshotArrays:
        """Start a new scheduling round and return the initial snapshot.

        An explicit ``round_id`` (e.g. an evaluation round at 10_000+) leaves
        the auto-increment counter untouched, so subsequent auto-numbered
        rounds continue from where they left off instead of jumping past it.
        """
        if round_id is None:
            round_id = self._round_counter
            self._round_counter += 1
        self._session = self._tenant.new_session(
            self.batch,
            num_connections=self.scheduler_config.num_connections,
            strategy=strategy or self.strategy_name,
            round_id=round_id,
        )
        self._soa_avg_expected = np.array(
            [self.knowledge.average_time(query.query_id) for query in self.batch], dtype=np.float64
        )
        self._soa_config_slots = np.zeros(len(self.batch), dtype=np.int64)
        self._soa_expected_slots = np.zeros(len(self.batch), dtype=np.float64)
        if self.cluster_mode:
            self._cluster_remaining = [list(self.clusters.intra_order(c)) for c in range(self.clusters.num_clusters)]
        return self.snapshot()

    def step(self, action: int) -> StepResult:
        """Apply one scheduling decision and advance the round as far as possible."""
        self._require_session()
        slot, instance, config_index = self.decode_placement(action)
        time_before = self._session.current_time
        if self.cluster_mode:
            self._submit_cluster(slot, instance, config_index)
        else:
            self._submit_query(slot, instance, config_index)

        # Advance the clock until another decision is possible or the round ends.
        while self.needs_advance():
            self._session.advance()
        return self.finish_step(time_before)

    def begin_step(self, action: int) -> float:
        """Submit the decision without advancing the clock; returns the submit time.

        Part of the decomposed step used by the vectorized engine, which
        interleaves the clock advances of N environments so their simulator
        predictions can run as one batched forward
        (:meth:`VectorSchedulingEnv.step_many`).  The caller must drive
        :meth:`needs_advance` / the session's advance to completion and then
        call :meth:`finish_step`.  Not available in cluster mode, whose
        submission itself interleaves advances.
        """
        self._require_session()
        if self.cluster_mode:
            raise SchedulingError("begin_step is not available in cluster mode")
        slot, instance, config_index = self.decode_placement(action)
        time_before = self._session.current_time
        self._submit_query(slot, instance, config_index)
        return time_before

    def needs_advance(self) -> bool:
        """Whether the clock must advance before another decision is possible."""
        return not self._session.is_done and not self.can_decide()

    def finish_step(self, time_before: float) -> StepResult:
        """Build the :class:`StepResult` once the advance loop has converged.

        The reward is ``-elapsed``: the wall-clock time the step spent, so a
        round's return is its negative makespan.  Failed attempts and SLO
        misses cost exactly the time they took.
        """
        now, done = self._session.current_time, self._session.is_done
        info = {"time": now, "makespan": self._session.makespan if done else None}
        return StepResult(snapshot=self.snapshot(), reward=-(now - time_before), done=done, info=info)

    def result(self) -> SchedulingResult:
        """Return the finished round as a :class:`SchedulingResult`."""
        self._require_session()
        if not self._session.is_done:
            raise SchedulingError("the current round has not finished yet")
        return SchedulingResult(
            strategy=self.strategy_name,
            makespan=self._session.makespan,
            round_log=self._session.log,
        )

    # ------------------------------------------------------------------ #
    # Submission helpers
    # ------------------------------------------------------------------ #
    def _submit_query(self, query_id: int, instance: int, config_index: int) -> None:
        if query_id not in self._session.pending:
            raise SchedulingError(f"query {query_id} is not pending")
        if not self.mask.is_allowed(query_id, config_index):
            raise SchedulingError(f"configuration {config_index} is masked for query {query_id}")
        self._submit(query_id, self.config_space[config_index], instance)

    def _submit_cluster(self, cluster_id: int, instance: int, config_index: int) -> None:
        """Drain one query cluster.

        The action fixes the cluster's shared configuration and the placement
        of its *first* submission; the remaining members follow greedily
        (:meth:`_drain_instance`), filling idle connections and advancing the
        clock in between until every member query has been submitted.
        """
        remaining = self._cluster_remaining[cluster_id]
        if not remaining:
            raise SchedulingError(f"cluster {cluster_id} has no remaining queries")
        cluster_params = self.config_space[config_index]
        preferred: int | None = instance
        while remaining:
            while remaining and self._session.has_idle_connection:
                query_id = remaining.pop(0)
                params = self._resolve_cluster_config(query_id, cluster_params, config_index)
                self._submit(query_id, params, self._drain_instance(query_id, preferred))
                preferred = None
            if remaining:
                self._session.advance()

    def _drain_instance(self, query_id: int, preferred: int | None) -> int:
        """Placement of one cluster-drain submission.

        The action's instance while it is idle; otherwise the idle instance
        :func:`greedy_cost_instance` picks, priced by the environment's
        external knowledge.  With one idle instance (always, on a single
        engine) that instance is the answer, so outstanding work is priced
        only when there is a choice.
        """
        idle = self._session.idle_instances()
        if preferred is not None and preferred in idle:
            return preferred
        if len(idle) == 1:
            return idle[0]
        return greedy_cost_instance(
            idle,
            self.instance_outstanding_work(),
            self._session.speed_factors(),
            self.knowledge.average_time(query_id),
        )

    def _resolve_cluster_config(
        self, query_id: int, cluster_params: RunningParameters, config_index: int
    ) -> RunningParameters:
        """Use the cluster configuration unless the query's own mask forbids it."""
        if self.mask.is_allowed(query_id, config_index):
            return cluster_params
        allowed = self.mask.allowed_configs(query_id)
        return self.config_space.closest_to(cluster_params, allowed=allowed)

    def _submit(self, query_id: int, parameters: RunningParameters, instance: int) -> None:
        """Submit to the session and record the joint index for the fast snapshot.

        Recording the joint index and the expected time once at submission
        keeps the snapshot free of per-query lookups.  ``parameters`` is the
        *actually submitted* configuration (cluster drains may substitute the
        closest allowed one), so ``index_of`` matches the running state's
        parameters; the expected time keys on the raw configuration index.
        """
        self._session.submit(query_id, parameters, instance=instance)
        config_index = self.config_space.index_of(parameters)
        self._soa_config_slots[query_id] = instance * self.num_configs + config_index
        self._soa_expected_slots[query_id] = self.knowledge.expected_time(query_id, config_index)

    def can_decide(self) -> bool:
        """Whether a scheduling decision is possible right now.

        Public because event-driven drivers (``BQSched.serve``) interleave
        decisions of several tenants at every runtime event: after each
        event, every tenant whose environment can decide submits before the
        clock moves again.
        """
        self._require_session()
        return self._session.has_idle_connection and self._has_selectable_slot()

    def _has_selectable_slot(self) -> bool:
        """Whether a slot is left to choose: a pending query, or a cluster with members left."""
        if self.cluster_mode:
            return any(self._cluster_remaining)
        return self._session.has_pending

    # ------------------------------------------------------------------ #
    # Placement (baselines, the cluster drain)
    # ------------------------------------------------------------------ #
    def available_instances(self) -> list[int]:
        """Instances currently able to accept a submission."""
        self._require_session()
        return self._session.idle_instances()

    def instance_speed_factors(self) -> tuple[float, ...]:
        """Per-instance relative hardware speed (fleet mean = 1.0)."""
        self._require_session()
        return self._session.speed_factors()

    def instance_outstanding_work(self) -> np.ndarray:
        """Expected remaining seconds of work per instance, fleet-wide.

        Derived from non-intrusive observables only.  This tenant's own
        running queries are priced exactly: where each was placed, how long
        it has run, and its log-derived expected time under the submitted
        configuration.  Queries placed by *other* tenants sharing the fleet
        are visible only as occupancy (submissions/completions are events
        the scheduler sees), so each foreign running query contributes the
        batch's mean expected time — without this term a load balancer in a
        shared service would steer straight into instances peers have
        saturated.  Single-tenant rounds have no foreign queries and keep
        the exact accounting.
        """
        self._require_session()
        outstanding = np.zeros(self.num_instances, dtype=np.float64)
        own_counts = np.zeros(self.num_instances, dtype=np.int64)
        now = self._session.current_time
        for state in self._session.running_states():
            query_id = state.query.query_id
            instance = self._session.instance_of(query_id)
            if instance < 0:
                continue
            config_index = self.config_space.index_of(state.parameters)
            expected = self.knowledge.expected_time(query_id, config_index)
            outstanding[instance] += max(0.0, expected - (now - state.submit_time))
            own_counts[instance] += 1
        totals = np.asarray(self._session.instance_num_running(), dtype=np.int64)
        foreign = np.clip(totals - own_counts, 0, None)
        if foreign.any():
            mean_expected = float(
                np.mean([self.knowledge.average_time(query.query_id) for query in self.batch])
            )
            outstanding += foreign * mean_expected
        return outstanding

    # ------------------------------------------------------------------ #
    # Observation
    # ------------------------------------------------------------------ #
    def snapshot(self) -> SnapshotArrays:
        """Build the observable state of every query at the current instant.

        Queries that have not yet arrived (streaming scenario), or that await
        a retry after a failed attempt, are reported as
        pending-but-unavailable: the adaptive mask already excludes them from
        the action space.  Terminally failed queries report as finished: they
        are as unselectable as completed ones.

        The snapshot is a :class:`~repro.encoder.SnapshotArrays` built from
        the tenant session's incrementally-maintained state columns with a
        handful of whole-array ops.  ``tests/test_hotpath.py`` checks it
        against a per-query reference builder at every decision step.
        """
        self._require_session()
        session = self._session
        status_raw = session.soa_status
        now = session.current_time
        running = _SOA_IS_RUNNING[status_raw]
        return SnapshotArrays(
            time=now,
            status=_SOA_STATUS_OBS[status_raw],
            config_index=np.where(running, self._soa_config_slots, _SOA_CONFIG_BASE[status_raw]),
            elapsed=np.where(running, now - session.soa_submit_time, 0.0),
            expected_time=np.where(running, self._soa_expected_slots, self._soa_avg_expected),
            available=status_raw != SOA_DEFERRED,
            instance_context_array=session.instance_context() if self._reads_context else None,
        )

    # ------------------------------------------------------------------ #
    # Misc
    # ------------------------------------------------------------------ #
    @property
    def session(self):
        """The live session (read-only access for trainers needing logs)."""
        self._require_session()
        return self._session

    def _require_session(self) -> None:
        if self._session is None:
            raise SchedulingError("call reset() before interacting with the environment")
