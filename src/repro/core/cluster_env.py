"""Scheduling environment over a cluster: joint placement + ordering.

:class:`ClusterSchedulingEnv` generalises :class:`~repro.core.env.SchedulingEnv`
from "pick the next (query, configuration)" to "pick the next (query,
instance, configuration)".  The action space stays *flat* — each per-query
slot fans out into ``num_instances * num_configs`` joint choices — so the
unchanged policy heads and trainers work as-is: an
:class:`~repro.core.policy.ActorCriticNetwork` built with
``num_configs = num_instances * len(config_space)`` emits exactly one logit
per joint choice, and adaptive masking extends naturally to placement by
masking the columns of saturated instances.

Layout of one flat action::

    action = query_id * (num_instances * num_configs)
           + instance * num_configs
           + config_index

At ``num_instances == 1`` every formula collapses to the base environment's,
and the execution path is digest-pinned bit-for-bit against the
pre-refactor tree (``tests/test_cluster.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..config import SchedulerConfig
from ..dbms import Cluster, ConfigurationSpace
from ..encoder import QueryRuntimeInfo, QueryStatus
from ..exceptions import SchedulingError
from ..perf import SimulatedCluster
from ..runtime import RuntimeTenant
from ..workloads import ArrivalProcess, BatchQuerySet
from .env import SchedulingEnv
from .knowledge import ExternalKnowledge
from .masking import AdaptiveMask

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..dbms.engine import RunningQueryState
    from ..dbms.params import RunningParameters

__all__ = ["ClusterSchedulingEnv", "cluster_instance_count", "greedy_cost_instance"]


def greedy_cost_instance(
    available: "Sequence[int]",
    outstanding: np.ndarray,
    speeds: "Sequence[float]",
    expected: float,
) -> int:
    """Idle instance minimising ``(outstanding + expected) / speed``.

    The single definition of the greedy-cost placement rule, shared by
    :class:`~repro.core.baselines.GreedyCostPlacementScheduler` and the
    cluster-drain trailing placements of :class:`ClusterSchedulingEnv`.
    Ties break to the lowest instance index.
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
    tenants) to one.  Everything that branches on cluster-ness — this
    environment, the facade, ``evaluate_on`` — resolves through here.
    """
    if isinstance(backend, (Cluster, SimulatedCluster)):
        return backend.num_instances
    if isinstance(backend, RuntimeTenant):
        return cluster_instance_count(backend.runtime.backend)
    return None


def _backend_num_instances(backend: object) -> int:
    count = cluster_instance_count(backend)
    if count is None:
        raise SchedulingError(
            "ClusterSchedulingEnv needs a Cluster backend (or a runtime tenant over one), "
            f"got {type(backend).__name__}"
        )
    return count


class ClusterSchedulingEnv(SchedulingEnv):
    """Gym-style environment whose actions place queries across a fleet."""

    def __init__(
        self,
        batch: BatchQuerySet,
        backend,
        scheduler_config: SchedulerConfig,
        config_space: ConfigurationSpace,
        knowledge: ExternalKnowledge,
        mask: AdaptiveMask | None = None,
        clusters=None,
        strategy_name: str = "rl",
        arrivals: "ArrivalProcess | Sequence[float] | None" = None,
        tenant_class=None,
    ) -> None:
        self.num_instances = _backend_num_instances(backend)
        super().__init__(
            batch=batch,
            backend=backend,
            scheduler_config=scheduler_config,
            config_space=config_space,
            knowledge=knowledge,
            mask=mask,
            clusters=clusters,
            strategy_name=strategy_name,
            arrivals=arrivals,
            tenant_class=tenant_class,
        )

    # ------------------------------------------------------------------ #
    # Factored action space
    # ------------------------------------------------------------------ #
    @property
    def configs_per_slot(self) -> int:
        return self.num_instances * self.num_configs

    def encode_placement(self, query_id: int, instance: int, config_index: int) -> int:
        """Flatten a (query, instance, configuration) triple into one action."""
        if not 0 <= instance < self.num_instances:
            raise SchedulingError(f"instance {instance} out of range")
        if not 0 <= config_index < self.num_configs:
            raise SchedulingError(f"config index {config_index} out of range")
        return self.encode_action(query_id, instance * self.num_configs + config_index)

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
        """
        self._require_session()
        available = np.zeros(self.num_instances, dtype=bool)
        available[self._idle_instances()] = True
        if self.cluster_mode:
            per_slot = self._cluster_slot_mask()
        else:
            per_slot = self.mask.action_mask(self._session.pending).reshape(len(self.batch), self.num_configs)
        joint = per_slot[:, None, :] & available[None, :, None]
        return joint.reshape(self.action_dim)

    # ------------------------------------------------------------------ #
    # Placement helpers (baselines, context features)
    # ------------------------------------------------------------------ #
    def _idle_instances(self) -> list[int]:
        return self._session.idle_instances()

    def available_instances(self) -> list[int]:
        """Instances currently able to accept a submission."""
        self._require_session()
        return self._idle_instances()

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

    def _greedy_instance(self, query_id: int) -> int:
        """Greedy-cost placement for the trailing members of a drained cluster.

        The joint action only picks the placement of the cluster's first
        submission; the rest follow :func:`greedy_cost_instance`, priced by
        the environment's external knowledge.
        """
        return greedy_cost_instance(
            self._idle_instances(),
            self.instance_outstanding_work(),
            self._session.speed_factors(),
            self.knowledge.average_time(query_id),
        )

    # ------------------------------------------------------------------ #
    # Overridden submission / observation hooks
    # ------------------------------------------------------------------ #
    def _submit_query(self, query_id: int, joint_index: int) -> None:
        instance, config_index = divmod(joint_index, self.num_configs)
        if query_id not in self._session.pending:
            raise SchedulingError(f"query {query_id} is not pending")
        if not self.mask.is_allowed(query_id, config_index):
            raise SchedulingError(f"configuration {config_index} is masked for query {query_id}")
        params = self.config_space[config_index]
        self._session.submit(query_id, params, instance=instance)
        self._record_submission(query_id, params)

    def _submit_cluster(self, cluster_id: int, joint_index: int) -> None:
        """Drain one query cluster across the fleet.

        The joint action fixes the cluster's shared configuration and the
        placement of its *first* submission; the remaining members follow
        greedily (least expected completion among idle instances), advancing
        the clock whenever the whole fleet saturates — the fleet counterpart
        of the base environment's back-to-back cluster drain.
        """
        instance, config_index = divmod(joint_index, self.num_configs)
        remaining = self._cluster_remaining[cluster_id]
        if not remaining:
            raise SchedulingError(f"cluster {cluster_id} has no remaining queries")
        cluster_params = self.config_space[config_index]
        first = True
        while remaining:
            while remaining and self._session.has_idle_connection:
                query_id = remaining.pop(0)
                params = self._resolve_cluster_config(query_id, cluster_params, config_index)
                if first and instance in self._idle_instances():
                    target = instance
                else:
                    target = self._greedy_instance(query_id)
                first = False
                self._session.submit(query_id, params, instance=target)
                self._record_submission(query_id, params)
            if remaining:
                self._session.advance()

    def _running_info(
        self, query_id: int, state: "RunningQueryState", now: float, attempts: int = 0
    ) -> QueryRuntimeInfo:
        """Joint (instance, configuration) one-hot index for running queries."""
        config_index = self.config_space.index_of(state.parameters)
        instance = max(0, self._session.instance_of(query_id))
        return QueryRuntimeInfo(
            query_id=query_id,
            status=QueryStatus.RUNNING,
            config_index=instance * self.num_configs + config_index,
            elapsed=now - state.submit_time,
            expected_time=self.knowledge.expected_time(query_id, config_index),
            attempts=attempts,
        )

    def _record_submission(self, query_id: int, parameters: "RunningParameters") -> None:
        """Record the joint (instance, configuration) index for the SoA path.

        Placement is read back from the session (the cluster drain picks
        greedy targets the caller never sees); the expected time keys on the
        raw configuration index, exactly as :meth:`_running_info` does.
        """
        if self._soa_config_slots is None or self._soa_expected_slots is None:
            return
        config_index = self.config_space.index_of(parameters)
        instance = max(0, self._session.instance_of(query_id))
        self._soa_config_slots[query_id] = instance * self.num_configs + config_index
        self._soa_expected_slots[query_id] = self.knowledge.expected_time(query_id, config_index)

    def _instance_context(self) -> tuple[tuple[float, ...], ...]:
        context = self._session.instance_context()
        if context is None:
            return ()
        return tuple(tuple(float(value) for value in row) for row in context)

    def _instance_context_array(self) -> "np.ndarray | None":
        return self._session.instance_context()
