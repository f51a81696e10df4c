"""Adaptive masking of the action space (Section IV-A).

Different queries prefer different resources: giving extra parallel workers
to an I/O-bound query, or extra working memory to a query that never spills,
wastes exploration on configurations that cannot help.  The mask keeps, for
every query, only the configurations whose measured improvement over the
cheapest configuration reaches :data:`MIN_ABSOLUTE_GAIN` and
:data:`MIN_RELATIVE_GAIN`; masked logits are replaced with a large
negative constant so their softmax probability is numerically zero.
"""

from __future__ import annotations

import numpy as np

from ..dbms import ConfigurationSpace
from ..exceptions import SchedulingError
from ..perf import PerformanceEstimator
from ..workloads import BatchQuerySet

__all__ = ["AdaptiveMask", "MIN_ABSOLUTE_GAIN", "MIN_RELATIVE_GAIN"]

#: Seconds of isolated execution time a richer configuration must save to stay allowed.
MIN_ABSOLUTE_GAIN = 0.25
#: Share of the cheapest configuration's time a richer configuration must save to stay allowed.
MIN_RELATIVE_GAIN = 0.05


class AdaptiveMask:
    """Per-query allowed running-parameter configurations."""

    def __init__(
        self,
        num_queries: int,
        num_configs: int,
        allowed: dict[int, list[int]],
    ) -> None:
        if num_queries < 1 or num_configs < 1:
            raise SchedulingError("mask dimensions must be positive")
        for query_id, configs in allowed.items():
            if not 0 <= query_id < num_queries:
                raise SchedulingError(f"query {query_id} is outside the mask's {num_queries} queries")
            if not configs:
                raise SchedulingError(f"query {query_id} has no allowed configuration")
        self.num_queries = num_queries
        self.num_configs = num_configs
        self._allowed = {query_id: sorted(set(configs)) for query_id, configs in allowed.items()}
        #: Dense ``(num_queries, num_configs)`` view of the allowed sets;
        #: queries absent from ``allowed`` default to every configuration.
        #: Never written after construction.
        self.allowed_matrix = np.ones((num_queries, num_configs), dtype=bool)
        for query_id, configs in self._allowed.items():
            self.allowed_matrix[query_id] = False
            self.allowed_matrix[query_id, configs] = True

    # ------------------------------------------------------------------ #
    # Builders
    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls,
        batch: BatchQuerySet,
        knowledge: PerformanceEstimator,
        config_space: ConfigurationSpace,
    ) -> "AdaptiveMask":
        """Derive the mask from a performance estimator.

        ``knowledge`` is a :class:`~repro.perf.PerformanceEstimator` (the
        probe/log-derived :class:`~repro.core.knowledge.ExternalKnowledge`),
        so masking gains come from the same interface as every other cost
        estimate.
        Configuration 0 (fewest resources) is always allowed; a richer
        configuration stays allowed only if it improves the query's isolated
        execution time by at least the absolute *and* relative thresholds.
        """
        allowed: dict[int, list[int]] = {}
        for query in batch:
            profile = knowledge.improvement_profile(query.query_id)
            keep = [0]
            for index in range(1, len(config_space)):
                absolute, relative = profile.get(index, (0.0, 0.0))
                if absolute >= MIN_ABSOLUTE_GAIN and relative >= MIN_RELATIVE_GAIN:
                    keep.append(index)
            allowed[query.query_id] = keep
        return cls(num_queries=len(batch), num_configs=len(config_space), allowed=allowed)

    @classmethod
    def unmasked(cls, num_queries: int, num_configs: int) -> "AdaptiveMask":
        """A mask that allows every configuration for every query."""
        return cls(
            num_queries=num_queries,
            num_configs=num_configs,
            allowed={i: list(range(num_configs)) for i in range(num_queries)},
        )

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def allowed_configs(self, query_id: int) -> list[int]:
        """Allowed configuration indices for ``query_id``."""
        return list(self._allowed.get(query_id, range(self.num_configs)))

    def is_allowed(self, query_id: int, config_index: int) -> bool:
        return config_index in self._allowed.get(query_id, range(self.num_configs))

    def masked_fraction(self) -> float:
        """Fraction of (query, configuration) pairs pruned by the mask."""
        total = self.num_queries * self.num_configs
        kept = sum(len(configs) for configs in self._allowed.values())
        kept += (self.num_queries - len(self._allowed)) * self.num_configs
        return 1.0 - kept / total
