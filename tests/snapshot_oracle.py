"""Test-side reference for the scheduler's state: a builder and a per-query oracle.

``snapshot_arrays`` hand-builds a :class:`~repro.encoder.SnapshotArrays` from
columns, for tests that need a specific state.

``snapshot_aos`` rebuilds an environment's current state one frozen
:class:`~repro.encoder.QueryRuntimeInfo` per query, straight from the
session's object API, and ``featurize_aos`` featurizes such a snapshot one
query at a time with the column arithmetic written out.  They are the trivial
implementations that ``SchedulingEnv.snapshot`` and
``RunStateFeaturizer.featurize_arrays_stack`` are checked against, byte for
byte.
"""

from __future__ import annotations

import numpy as np

from repro.core.env import cluster_instance_count
from repro.encoder import QueryRuntimeInfo, QueryStatus, RunStateFeaturizer, SchedulingSnapshot, SnapshotArrays
from repro.exceptions import SchedulingError

_STATUS_CODE = {QueryStatus.PENDING: 0, QueryStatus.RUNNING: 1, QueryStatus.FINISHED: 2}


def snapshot_arrays(
    status,
    *,
    time: float = 0.0,
    config_index=None,
    elapsed=0.0,
    expected_time=0.0,
    available=True,
    time_to_available=0.0,
    attempts=0,
    instance_context=None,
    priority: float = 0.0,
    deadline_slack: float = 0.0,
) -> SnapshotArrays:
    """A hand-built snapshot over ``len(status)`` queries.

    ``status`` holds the observable codes (0 pending, 1 running, 2 finished);
    every other per-query column is a scalar broadcast to all queries or one
    value per query.  ``config_index`` defaults to -1 for pending queries and
    0 for the rest.
    """
    codes = np.asarray(status, dtype=np.int64)
    n = codes.shape[0]

    def column(values, dtype) -> np.ndarray:
        return np.broadcast_to(np.asarray(values, dtype=dtype), (n,)).copy()

    if config_index is None:
        config_index = np.where(codes == 0, -1, 0)
    return SnapshotArrays(
        time=time,
        status=codes,
        config_index=column(config_index, np.int64),
        elapsed=column(elapsed, np.float64),
        expected_time=column(expected_time, np.float64),
        available=column(available, bool),
        time_to_available=column(time_to_available, np.float64),
        attempts=column(attempts, np.int64),
        instance_context_array=None if instance_context is None else np.asarray(instance_context, dtype=np.float64),
        priority=priority,
        deadline_slack=deadline_slack,
    )


# --------------------------------------------------------------------------- #
# Per-query featurizer
# --------------------------------------------------------------------------- #


def _columns(featurizer: RunStateFeaturizer) -> tuple[int, int, int, int]:
    """``(arrival, failure, slo, width)`` columns, counted out channel by channel."""
    arrival = 3 + featurizer.num_configs + 2
    failure = arrival + (1 if featurizer.arrival_channel else 0)
    slo = failure + (1 if featurizer.failure_channel else 0)
    width = slo + (2 if featurizer.slo_channel else 0) + featurizer.instance_context_dim
    return arrival, failure, slo, width


def featurize_info(featurizer: RunStateFeaturizer, info: QueryRuntimeInfo) -> np.ndarray:
    """One query's feature row; the per-snapshot SLO and context columns stay zero."""
    arrival, failure, _, width = _columns(featurizer)
    vector = np.zeros(width, dtype=np.float64)
    vector[_STATUS_CODE[info.status]] = 1.0
    if info.config_index >= 0:
        if info.config_index >= featurizer.num_configs:
            raise SchedulingError(
                f"config index {info.config_index} out of range (num_configs={featurizer.num_configs})"
            )
        vector[3 + info.config_index] = 1.0
    vector[3 + featurizer.num_configs] = np.tanh(info.elapsed / featurizer.time_scale)
    vector[3 + featurizer.num_configs + 1] = np.tanh(info.expected_time / featurizer.time_scale)
    if featurizer.arrival_channel:
        vector[arrival] = np.tanh(info.time_to_available / featurizer.time_scale)
    if featurizer.failure_channel:
        vector[failure] = np.tanh(info.attempts / 3.0)
    return vector


def featurize_aos(featurizer: RunStateFeaturizer, snapshot: SchedulingSnapshot) -> np.ndarray:
    """The ``(n, feature_dim)`` features of one snapshot, one query at a time."""
    _, _, slo, width = _columns(featurizer)
    rows = np.zeros((snapshot.num_queries, width), dtype=np.float64)
    for index, info in enumerate(snapshot.infos):
        rows[index] = featurize_info(featurizer, info)
    if featurizer.slo_channel:
        rows[:, slo] = np.tanh(snapshot.priority / 4.0)
        rows[:, slo + 1] = np.tanh(snapshot.deadline_slack / featurizer.time_scale)
    if featurizer.instance_context_dim and snapshot.instance_context:
        flat = np.concatenate([np.asarray(entry, dtype=np.float64) for entry in snapshot.instance_context])
        if flat.shape[0] != featurizer.instance_context_dim:
            raise SchedulingError(
                f"snapshot instance context has {flat.shape[0]} entries, "
                f"featurizer expects {featurizer.instance_context_dim}"
            )
        rows[:, width - featurizer.instance_context_dim :] = flat
    return rows


# --------------------------------------------------------------------------- #
# Per-query snapshot of a live environment
# --------------------------------------------------------------------------- #


def snapshot_aos(env) -> SchedulingSnapshot:
    """The env's current state, one frozen info per query from the session's object API."""
    session = env.session
    now = session.current_time
    running = {state.query.query_id: state for state in session.running_states()}
    finished = session.finished
    failed = session.failed
    unarrived = frozenset(session.unarrived_ids())
    counts = session.failure_counts()
    # A query awaiting its scheduled retry re-arrival is reported like a
    # streaming not-yet-arrived query: pending but unavailable.
    retrying = frozenset(session.retrying_ids())
    infos = []
    for query in env.batch:
        query_id = query.query_id
        attempts = counts.get(query_id, 0) if counts else 0
        average = env.knowledge.average_time(query_id)
        if query_id in running:
            state = running[query_id]
            config_index = env.config_space.index_of(state.parameters)
            instance = max(0, session.instance_of(query_id))
            infos.append(
                QueryRuntimeInfo(
                    query_id=query_id,
                    status=QueryStatus.RUNNING,
                    config_index=instance * env.num_configs + config_index,
                    elapsed=now - state.submit_time,
                    expected_time=env.knowledge.expected_time(query_id, config_index),
                    attempts=attempts,
                )
            )
        elif (query_id in finished) or (failed and query_id in failed):
            infos.append(
                QueryRuntimeInfo(
                    query_id=query_id,
                    status=QueryStatus.FINISHED,
                    config_index=0,
                    expected_time=average,
                    attempts=attempts,
                )
            )
        elif query_id in unarrived or query_id in retrying:
            # An unarrived query becomes available at its arrival time; a
            # query backing off after a failed attempt becomes available at
            # its scheduled retry re-arrival.
            if query_id in retrying:
                available_at = session.retry_time(query_id)
            else:
                available_at = session.arrival_time(query_id)
            infos.append(
                QueryRuntimeInfo(
                    query_id=query_id,
                    status=QueryStatus.PENDING,
                    expected_time=average,
                    available=False,
                    time_to_available=max(0.0, available_at - now),
                    attempts=attempts,
                )
            )
        else:
            infos.append(
                QueryRuntimeInfo(
                    query_id=query_id, status=QueryStatus.PENDING, expected_time=average, attempts=attempts
                )
            )
    priority, deadline_slack = env._slo_context()
    # Only a fleet backend has the instance-context channel.
    context = session.instance_context() if cluster_instance_count(env.backend) is not None else None
    health = session.instance_health()
    return SchedulingSnapshot(
        time=now,
        infos=tuple(infos),
        instance_context=() if context is None else tuple(tuple(row) for row in context.tolist()),
        instance_health=() if all(health) else tuple(bool(up) for up in health),
        priority=priority,
        deadline_slack=deadline_slack,
    )
