"""Feature pipeline of the performance-prediction stack.

The learned simulator, the cluster simulator and the cost estimates exposed
to the baselines all consume the same per-query feature rows: the query's
QueryFormer plan embedding, a one-hot of its running-parameter
configuration, the normalised elapsed time and the normalised expected
execution time from external knowledge.  On a heterogeneous fleet an
*instance-context channel* is appended to every row — the relative hardware
speed of the engine instance the concurrent group runs on and its current
concurrency level — so one model can predict earliest-finisher / remaining
time per engine instance (resource-state-conditioned prediction in the
spirit of arXiv:2007.10568).

At ``num_instances == 1`` the channel is absent and the rows are bit-for-bit
identical to the historical single-engine simulator features, which is what
keeps the ``num_instances=1`` simulated path digest-pinned.
"""

from __future__ import annotations

from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from ..config import TIME_SCALE
from ..dbms import ConfigurationSpace, RunningParameters
from ..exceptions import SimulationError

__all__ = ["PerformanceEstimator", "PerformanceFeaturizer", "TIME_SCALE", "MIN_REMAINING"]

#: Floor on a predicted remaining time (keeps the simulated clock moving).
MIN_REMAINING = 0.05
#: Soft scale of the per-instance concurrency feature.
_CONCURRENCY_SCALE = 8.0
#: Width of the per-row instance-context channel (speed, concurrency).
INSTANCE_CHANNEL_DIM = 2


@runtime_checkable
class PerformanceEstimator(Protocol):
    """Per-query execution-cost estimates every consumer types against.

    Its one implementation is the log/probe-derived
    :class:`~repro.core.knowledge.ExternalKnowledge`: adaptive masking, the
    placement baselines and the simulator's feature rows read estimates
    through this protocol instead of private engine internals.
    """

    #: Bumped whenever the estimates change, so caches of rows that bake them
    #: in (the simulator's feature rows) can tell when they went stale.
    version: int

    def expected_time(self, query_id: int, config_index: int) -> float:
        """Expected execution time of ``query_id`` under a configuration."""
        ...  # pragma: no cover - protocol

    def average_time(self, query_id: int) -> float:
        """Overall expected execution time of ``query_id`` (MCF's cost)."""
        ...  # pragma: no cover - protocol

    def improvement_profile(self, query_id: int) -> dict[int, tuple[float, float]]:
        """Absolute / relative gain of each configuration over the cheapest."""
        ...  # pragma: no cover - protocol


class PerformanceFeaturizer:
    """Builds the ``(k, feature_dim)`` model input for one concurrent group.

    ``instance_speeds`` declares the fleet: with two or more instances every
    row gains the instance-context channel; empty or single-instance fleets
    keep the exact legacy layout.  All ``k`` queries of one call run on the
    same instance (predictions are scoped per engine instance).
    """

    def __init__(
        self,
        plan_embeddings: np.ndarray,
        config_space: ConfigurationSpace,
        estimator: PerformanceEstimator,
        instance_speeds: Sequence[float] = (),
    ) -> None:
        self.plan_embeddings = plan_embeddings
        self.config_space = config_space
        self.estimator = estimator
        self.instance_speeds = tuple(float(speed) for speed in instance_speeds)

    @property
    def num_instances(self) -> int:
        return max(1, len(self.instance_speeds))

    @property
    def instance_channel_dim(self) -> int:
        """Width of the per-row instance channel (0 on single-engine setups)."""
        return INSTANCE_CHANNEL_DIM if len(self.instance_speeds) > 1 else 0

    @property
    def feature_dim(self) -> int:
        return self.plan_embeddings.shape[1] + len(self.config_space) + 2 + self.instance_channel_dim

    @property
    def elapsed_column(self) -> int:
        """Index of the ``tanh(elapsed)`` entry in a feature row."""
        return self.plan_embeddings.shape[1] + len(self.config_space)

    @property
    def concurrency_column(self) -> int:
        """Index of the per-instance concurrency entry (fleets only)."""
        if not self.instance_channel_dim:
            raise SimulationError("single-engine features carry no instance channel")
        return self.feature_dim - 1

    def speed_of(self, instance: int) -> float:
        if not self.instance_speeds:
            return 1.0
        if not 0 <= instance < len(self.instance_speeds):
            raise SimulationError(
                f"instance {instance} out of range (fleet has {len(self.instance_speeds)})"
            )
        return self.instance_speeds[instance]

    def rows(
        self,
        query_ids: Sequence[int],
        parameters: Sequence[RunningParameters],
        elapsed: Sequence[float],
        instance: int = 0,
    ) -> np.ndarray:
        """Feature rows for ``k`` queries running concurrently on ``instance``."""
        channel_dim = self.instance_channel_dim
        if channel_dim:
            speed = self.speed_of(instance)
            concurrency = float(np.tanh(len(query_ids) / _CONCURRENCY_SCALE))
        rows = []
        for query_id, params, elapsed_time in zip(query_ids, parameters, elapsed):
            config_index = self.config_space.index_of(params)
            config_onehot = np.zeros(len(self.config_space))
            config_onehot[config_index] = 1.0
            expected = self.estimator.expected_time(query_id, config_index)
            parts = [
                self.plan_embeddings[query_id],
                config_onehot,
                [np.tanh(elapsed_time / TIME_SCALE), np.tanh(expected / TIME_SCALE)],
            ]
            if channel_dim:
                parts.append([speed, concurrency])
            rows.append(np.concatenate(parts))
        return np.stack(rows, axis=0)

    def rewrite_dynamic_columns(self, features: np.ndarray, elapsed: np.ndarray) -> None:
        """Refresh the step-dependent entries of cached feature rows in place.

        A query's plan embedding, configuration one-hot, expected time and
        instance speed are fixed from submission to completion; only the
        elapsed time (and, on fleets, the instance's concurrency level)
        change between advances.
        """
        features[:, self.elapsed_column] = np.tanh(elapsed / TIME_SCALE)
        if self.instance_channel_dim:
            features[:, self.concurrency_column] = np.tanh(features.shape[0] / _CONCURRENCY_SCALE)
