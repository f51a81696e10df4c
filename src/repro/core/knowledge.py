"""External knowledge extracted from logs and isolated probes.

Because batch query pipelines run periodically, historical logs contain per-
query execution times under the configurations that were actually used, and
an operator can additionally probe each query in isolation under every
configuration.  The paper uses this knowledge for three things, all served by
:class:`ExternalKnowledge`:

* the MCF heuristic's cost ordering,
* the running-state feature ``t_i | R_i`` (expected time under a config),
* adaptive masking of inefficient parameter configurations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..dbms import Cluster, ConfigurationSpace, DatabaseEngine, ExecutionLog
from ..dbms.logs import grouped_means
from ..exceptions import SchedulingError
from ..workloads import BatchQuerySet

__all__ = ["ExternalKnowledge"]


@dataclass
class ExternalKnowledge:
    """Per-query execution-time knowledge.

    ``config_times[query_id][config_index]`` is the expected execution time
    of the query under that configuration; ``average_times[query_id]`` is the
    overall average observed in logs (falling back to the default-config
    probe when a query never appeared in logs).
    """

    config_space: ConfigurationSpace
    config_times: dict[int, dict[int, float]] = field(default_factory=dict)
    average_times: dict[int, float] = field(default_factory=dict)
    #: Bumped on every log-driven refresh so consumers that bake expected
    #: times into derived caches (e.g. simulator feature rows) can tell when
    #: their entries went stale.
    version: int = 0

    # ------------------------------------------------------------------ #
    # Builders
    # ------------------------------------------------------------------ #
    @classmethod
    def from_probes(
        cls,
        engine: "DatabaseEngine | Cluster",
        batch: BatchQuerySet,
        config_space: ConfigurationSpace,
    ) -> "ExternalKnowledge":
        """Measure every query in isolation under every configuration.

        This is the "collect query performance under various parameter
        configurations as external knowledge" step of Section IV-A.
        """
        knowledge = cls(config_space=config_space)
        for query in batch:
            per_config: dict[int, float] = {}
            for index, params in enumerate(config_space):
                per_config[index] = engine.estimate_isolated_time(query, params)
            knowledge.config_times[query.query_id] = per_config
            knowledge.average_times[query.query_id] = per_config[0]
        return knowledge

    def update_from_log(self, log: ExecutionLog) -> None:
        """Refresh average times (and per-config times) from execution logs.

        The records become three aligned columns (query id, execution time,
        configuration index; each distinct configuration is looked up once),
        and :func:`~repro.dbms.logs.grouped_means` averages them per query and
        per (query, configuration), both in order of first appearance.
        """
        self.version += 1
        records = log.all_records()
        index_of = {params: self.config_space.index_of(params) for params in {record.parameters for record in records}}
        query_ids = np.array([record.query_id for record in records], dtype=np.int64)
        times = np.array([record.execution_time for record in records], dtype=np.float64)
        configs = np.array([index_of[record.parameters] for record in records], dtype=np.int64)
        first, means = grouped_means(query_ids, times)
        self.average_times.update(zip(query_ids[first].tolist(), means.tolist()))
        first, means = grouped_means(query_ids * len(self.config_space) + configs, times)
        for query_id, config, mean in zip(query_ids[first].tolist(), configs[first].tolist(), means.tolist()):
            self.config_times.setdefault(query_id, {})[config] = mean

    # ------------------------------------------------------------------ #
    # Lookups
    # ------------------------------------------------------------------ #
    def expected_time(self, query_id: int, config_index: int) -> float:
        """Expected execution time of ``query_id`` under configuration ``config_index``."""
        per_config = self.config_times.get(query_id)
        if per_config and config_index in per_config:
            return per_config[config_index]
        if query_id in self.average_times:
            return self.average_times[query_id]
        raise SchedulingError(f"no knowledge recorded for query {query_id}")

    def average_time(self, query_id: int) -> float:
        """Average execution time of ``query_id`` (MCF's cost)."""
        if query_id in self.average_times:
            return self.average_times[query_id]
        return self.expected_time(query_id, 0)

    def improvement_profile(self, query_id: int) -> dict[int, tuple[float, float]]:
        """Absolute / relative gain of each configuration over the cheapest one.

        Returns a mapping ``config_index -> (absolute_gain, relative_gain)``
        where gains compare against configuration 0 (fewest resources).
        """
        per_config = self.config_times.get(query_id, {})
        if 0 not in per_config:
            return {}
        baseline = per_config[0]
        profile: dict[int, tuple[float, float]] = {}
        for index, time in per_config.items():
            absolute = baseline - time
            relative = absolute / baseline if baseline > 0 else 0.0
            profile[index] = (absolute, relative)
        return profile
