"""Test-side references for the per-key log aggregations.

``loop_average_execution_times`` and ``loop_execution_times_by_configuration``
are the per-key ``np.mean`` loops that ``ExecutionLog.average_execution_times``
and ``ExternalKnowledge.update_from_log`` replaced with one grouped pass
(``repro.dbms.logs.grouped_means``); ``loop_update_from_log`` is the knowledge
refresh over them and ``loop_grouped_means`` the helper as one ``np.mean`` per
key.  The library must match them hex for hex and in dict order.
"""

from __future__ import annotations

import numpy as np


def loop_grouped_means(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per distinct key in order of first appearance: its first index and ``np.mean`` of its values."""
    groups: dict = {}
    for index, (key, value) in enumerate(zip(keys.tolist(), values.tolist())):
        groups.setdefault(key, (index, []))[1].append(value)
    first = np.array([index for index, _ in groups.values()], dtype=np.int64)
    means = np.array([np.mean(group) for _, group in groups.values()], dtype=np.float64)
    return first, means


def loop_average_execution_times(log) -> dict[int, float]:
    """Mean execution time per query id, one ``np.mean`` per query."""
    totals: dict[int, list[float]] = {}
    for record in log.all_records():
        totals.setdefault(record.query_id, []).append(record.execution_time)
    return {query_id: float(np.mean(times)) for query_id, times in totals.items()}


def loop_execution_times_by_configuration(log) -> dict:
    """Mean execution time per (query id, configuration), one ``np.mean`` per pair."""
    buckets: dict = {}
    for record in log.all_records():
        buckets.setdefault(record.query_id, {}).setdefault(record.parameters, []).append(record.execution_time)
    return {
        query_id: {params: float(np.mean(times)) for params, times in by_params.items()}
        for query_id, by_params in buckets.items()
    }


def loop_update_from_log(knowledge, log) -> None:
    """``ExternalKnowledge.update_from_log`` over the two loops above."""
    knowledge.version += 1
    knowledge.average_times.update(loop_average_execution_times(log))
    for query_id, by_config in loop_execution_times_by_configuration(log).items():
        bucket = knowledge.config_times.setdefault(query_id, {})
        for params, mean_time in by_config.items():
            bucket[knowledge.config_space.index_of(params)] = mean_time
