"""Test-side reference for the scheduler's state: a builder and a per-query oracle.

``snapshot_arrays`` hand-builds a :class:`~repro.encoder.SnapshotArrays` from
columns, for tests that need a specific state.

``snapshot_aos`` rebuilds an environment's current state as one frozen
:class:`QueryRuntimeInfo` per query, straight from the session's object API,
and ``featurize_aos`` featurizes such a snapshot one query at a time with the
column arithmetic written out.  They are the trivial implementations that
``SchedulingEnv.snapshot`` and ``RunStateFeaturizer.featurize_arrays_stack``
are checked against, byte for byte: ``to_snapshot`` is the object view of a
library snapshot and ``kept`` / ``kept_columns`` select what the library
observes.

The oracle also keeps three channels the policy does not observe, so the
step digests pinned before they left the library still reproduce: each
query's wait until it becomes available (``arrival``), its failed attempts
(``failure``), and the tenant class's priority and deadline slack (``slo``),
with the per-instance health beside them (``instance_health``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property

import numpy as np

from repro.config import TIME_SCALE
from repro.core.env import cluster_instance_count
from repro.encoder import RunStateFeaturizer, SnapshotArrays
from repro.exceptions import SchedulingError
from repro.runtime import QueryRetry


class QueryStatus(str, Enum):
    """Execution status of one query within the current scheduling round."""

    PENDING = "pending"
    RUNNING = "running"
    FINISHED = "finished"


_STATUS_CODE = {QueryStatus.PENDING: 0, QueryStatus.RUNNING: 1, QueryStatus.FINISHED: 2}
_STATUS_FROM_CODE = (QueryStatus.PENDING, QueryStatus.RUNNING, QueryStatus.FINISHED)


@dataclass(frozen=True)
class QueryRuntimeInfo:
    """Observable runtime state of one query at a decision instant.

    A query that has not arrived yet (or awaits its retry) is pending but
    not ``available``; ``time_to_available`` is the wait until it is.
    ``attempts`` counts its failed attempts so far.
    """

    query_id: int
    status: QueryStatus
    config_index: int = -1
    elapsed: float = 0.0
    expected_time: float = 0.0
    available: bool = True
    time_to_available: float = 0.0
    attempts: int = 0

    def __post_init__(self) -> None:
        if self.elapsed < 0:
            raise SchedulingError(f"elapsed time must be >= 0 for query {self.query_id}")
        if self.attempts < 0:
            raise SchedulingError(f"attempts must be >= 0 for query {self.query_id}")
        if self.status is not QueryStatus.PENDING and self.config_index < 0:
            raise SchedulingError(
                f"query {self.query_id} is {self.status.value} but has no configuration"
            )
        if self.time_to_available < 0:
            raise SchedulingError(f"time_to_available must be >= 0 for query {self.query_id}")
        if not self.available and self.status is not QueryStatus.PENDING:
            raise SchedulingError(
                f"query {self.query_id} is {self.status.value} but marked as not yet arrived"
            )


@dataclass(frozen=True)
class SchedulingSnapshot:
    """Object-per-query view of one decision instant.

    ``infos`` is aligned with the batch query ids.  ``instance_context`` has
    one tuple per fleet instance (empty off a fleet); ``instance_health`` is
    empty while every instance is up.  ``priority`` / ``deadline_slack``
    describe the observing tenant's class (0.0 when classless).
    """

    time: float
    infos: tuple[QueryRuntimeInfo, ...]
    instance_context: tuple[tuple[float, ...], ...] = ()
    instance_health: tuple[bool, ...] = ()
    priority: float = 0.0
    deadline_slack: float = 0.0

    @property
    def num_queries(self) -> int:
        return len(self.infos)

    def ids_with_status(self, status: QueryStatus) -> list[int]:
        return [info.query_id for info in self.infos if info.status is status]

    @cached_property
    def pending_ids(self) -> list[int]:
        """Pending queries that are available for submission."""
        return [info.query_id for info in self.infos if info.status is QueryStatus.PENDING and info.available]

    @cached_property
    def unarrived_ids(self) -> list[int]:
        return [info.query_id for info in self.infos if not info.available]

    @cached_property
    def running_ids(self) -> list[int]:
        return self.ids_with_status(QueryStatus.RUNNING)

    @cached_property
    def finished_ids(self) -> list[int]:
        return self.ids_with_status(QueryStatus.FINISHED)


def to_snapshot(arrays: SnapshotArrays) -> SchedulingSnapshot:
    """The object view of a library snapshot; the columns it does not carry keep their defaults."""
    context = arrays.instance_context_array
    return SchedulingSnapshot(
        time=arrays.time,
        infos=tuple(
            QueryRuntimeInfo(
                query_id=i,
                status=_STATUS_FROM_CODE[code],
                config_index=int(arrays.config_index[i]),
                elapsed=float(arrays.elapsed[i]),
                expected_time=float(arrays.expected_time[i]),
                available=bool(arrays.available[i]),
            )
            for i, code in enumerate(arrays.status.tolist())
        ),
        instance_context=() if context is None else tuple(tuple(row) for row in context.tolist()),
    )


def kept(snapshot: SchedulingSnapshot) -> SchedulingSnapshot:
    """``snapshot`` with only what the library observes: the other columns back at their defaults."""
    return SchedulingSnapshot(
        time=snapshot.time,
        infos=tuple(replace(info, time_to_available=0.0, attempts=0) for info in snapshot.infos),
        instance_context=snapshot.instance_context,
    )


def snapshot_arrays(
    status,
    *,
    time: float = 0.0,
    config_index=None,
    elapsed=0.0,
    expected_time=0.0,
    available=True,
    instance_context=None,
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
        instance_context_array=None if instance_context is None else np.asarray(instance_context, dtype=np.float64),
    )


# --------------------------------------------------------------------------- #
# Per-query featurizer
# --------------------------------------------------------------------------- #


def _columns(featurizer: RunStateFeaturizer, arrival: bool, failure: bool, slo: bool) -> tuple[int, int, int, int]:
    """``(arrival, failure, slo, width)`` columns of the layout, counted out channel by channel."""
    arrival_column = 3 + featurizer.num_configs + 2
    failure_column = arrival_column + int(arrival)
    slo_column = failure_column + int(failure)
    width = slo_column + 2 * int(slo) + featurizer.instance_context_dim
    return arrival_column, failure_column, slo_column, width


def kept_columns(featurizer: RunStateFeaturizer, *, arrival=False, failure=False, slo=False) -> np.ndarray:
    """The columns of ``featurize_aos``'s layout that ``featurizer`` writes, in its order."""
    first_extra, _, _, width = _columns(featurizer, arrival, failure, slo)
    return np.r_[0:first_extra, width - featurizer.instance_context_dim : width]


def featurize_info(
    featurizer: RunStateFeaturizer, info: QueryRuntimeInfo, *, arrival=False, failure=False, slo=False
) -> np.ndarray:
    """One query's feature row; the per-snapshot SLO and context columns stay zero."""
    arrival_column, failure_column, _, width = _columns(featurizer, arrival, failure, slo)
    vector = np.zeros(width, dtype=np.float64)
    vector[_STATUS_CODE[info.status]] = 1.0
    if info.config_index >= 0:
        if info.config_index >= featurizer.num_configs:
            raise SchedulingError(
                f"config index {info.config_index} out of range (num_configs={featurizer.num_configs})"
            )
        vector[3 + info.config_index] = 1.0
    vector[3 + featurizer.num_configs] = np.tanh(info.elapsed / TIME_SCALE)
    vector[3 + featurizer.num_configs + 1] = np.tanh(info.expected_time / TIME_SCALE)
    if arrival:
        vector[arrival_column] = np.tanh(info.time_to_available / TIME_SCALE)
    if failure:
        vector[failure_column] = np.tanh(info.attempts / 3.0)
    return vector


def featurize_aos(
    featurizer: RunStateFeaturizer, snapshot: SchedulingSnapshot, *, arrival=False, failure=False, slo=False
) -> np.ndarray:
    """The ``(n, width)`` features of one snapshot, one query at a time.

    With no extra channel switched on this is ``featurizer``'s layout; each
    of ``arrival``, ``failure`` and ``slo`` inserts its columns before the
    instance context, in that order.
    """
    channels = dict(arrival=arrival, failure=failure, slo=slo)
    _, _, slo_column, width = _columns(featurizer, **channels)
    rows = np.zeros((snapshot.num_queries, width), dtype=np.float64)
    for index, info in enumerate(snapshot.infos):
        rows[index] = featurize_info(featurizer, info, **channels)
    if slo:
        rows[:, slo_column] = np.tanh(snapshot.priority / 4.0)
        rows[:, slo_column + 1] = np.tanh(snapshot.deadline_slack / TIME_SCALE)
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


def instance_health(shared) -> list[bool]:
    """Per-instance up/down health of a fleet session (``False`` inside an outage window or parked)."""
    now = shared.current_time
    return [not unit.windows.is_down(now) for unit in shared.instances]


def retry_time(session, query_id: int) -> float:
    """When ``query_id``'s scheduled retry re-arrives: the time of its ``QueryRetry`` on the runtime's queue."""
    for _, _, event in session._runtime.events._heap:
        if isinstance(event, QueryRetry) and event.tenant == session.name and event.query_id == query_id:
            return event.time
    raise AssertionError(f"query {query_id} of tenant {session.name!r} has no scheduled retry")


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
                available_at = retry_time(session, query_id)
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
    # The tenant class's priority, and the seconds left of its deadline
    # budget (negative once spent); 0.0 for a classless tenant.
    tenant_class = session.tenant_class
    priority = deadline_slack = 0.0
    if tenant_class is not None:
        priority = tenant_class.priority
        if tenant_class.deadline is not None:
            deadline_slack = tenant_class.deadline - now
    # Only a fleet backend has the instance-context channel.
    context = session.instance_context() if cluster_instance_count(env.backend) is not None else None
    health = instance_health(env.runtime.shared_session)
    return SchedulingSnapshot(
        time=now,
        infos=tuple(infos),
        instance_context=() if context is None else tuple(tuple(row) for row in context.tolist()),
        instance_health=() if all(health) else tuple(bool(up) for up in health),
        priority=priority,
        deadline_slack=deadline_slack,
    )
