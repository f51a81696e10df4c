"""Running-state features and the scheduler-visible state snapshot.

The non-intrusive scheduler observes, for every query in the batch, only its
execution status (pending / running / finished), the running parameters it
was submitted with, how long it has been running, and the average execution
time extracted from logs.  These are the features ``f_i`` of Section III-A.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from ..exceptions import SchedulingError

__all__ = [
    "QueryStatus",
    "QueryRuntimeInfo",
    "SchedulingSnapshot",
    "SnapshotArrays",
    "RunStateFeaturizer",
]


class QueryStatus(str, Enum):
    """Execution status of one query within the current scheduling round."""

    PENDING = "pending"
    RUNNING = "running"
    FINISHED = "finished"


@dataclass(frozen=True)
class QueryRuntimeInfo:
    """Observable runtime state of one query at a decision instant.

    ``available`` / ``time_to_available`` describe the streaming-arrival
    scenario: a query that has not yet arrived is reported as pending but
    unavailable (the action mask excludes it), with the time until its
    arrival exposed for arrival-aware featurizers.  Closed batches leave the
    defaults, which keep features bit-identical to the pre-runtime encoder.
    """

    query_id: int
    status: QueryStatus
    config_index: int = -1
    elapsed: float = 0.0
    expected_time: float = 0.0
    available: bool = True
    time_to_available: float = 0.0
    #: Failed attempts so far (fault-tolerant serving); 0 — the default —
    #: keeps closed fault-free rounds bit-compatible with the paper setting.
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
    """The full observable state at one decision instant.

    ``infos`` is aligned with the batch query ids (index ``i`` describes
    query ``i``).  This object is what the attention-based state encoder and
    the learned simulator consume.

    ``instance_context`` carries per-engine-instance context rows when the
    round runs on a :class:`~repro.dbms.Cluster` (one tuple per instance:
    relative speed, busy fraction, capacity share, buffer fill — see
    :data:`repro.dbms.INSTANCE_FEATURE_DIM`).  Single-engine rounds leave it
    empty, keeping the snapshot bit-compatible with the closed-batch paper
    setting.

    ``instance_health`` carries per-instance up/down flags while any
    instance is inside an outage window (fault-tolerant serving); the empty
    default means "everything up" and keeps fault-free snapshots
    bit-compatible.

    ``priority`` / ``deadline_slack`` describe the observing tenant's SLO
    class (control-plane serving): its scheduling priority and the seconds
    remaining until its deadline at snapshot time (0.0 when no deadline is
    set).  The defaults keep classless snapshots bit-compatible.
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
        """Ids of queries that are pending *and* available for submission.

        In the streaming scenario, queries that have not arrived yet are
        reported as pending but unavailable; they are excluded here so that
        schedulers iterating the pending set only ever pick schedulable
        queries.  Closed batches (everything available) are unaffected.

        Cached: snapshots are immutable, so hot loops that read the pending
        set several times per decision step pay the O(n) scan once.
        """
        return [
            info.query_id
            for info in self.infos
            if info.status is QueryStatus.PENDING and info.available
        ]

    @cached_property
    def unarrived_ids(self) -> list[int]:
        """Ids of queries that have not yet arrived (streaming scenario)."""
        return [info.query_id for info in self.infos if not info.available]

    @cached_property
    def running_ids(self) -> list[int]:
        return self.ids_with_status(QueryStatus.RUNNING)

    @cached_property
    def finished_ids(self) -> list[int]:
        return self.ids_with_status(QueryStatus.FINISHED)


_STATUS_ORDER = {QueryStatus.PENDING: 0, QueryStatus.RUNNING: 1, QueryStatus.FINISHED: 2}
_STATUS_FROM_CODE = (QueryStatus.PENDING, QueryStatus.RUNNING, QueryStatus.FINISHED)


class SnapshotArrays:
    """Structure-of-arrays twin of :class:`SchedulingSnapshot`.

    Hot loops (vectorized rollouts, the serving runtime) build one of these
    per decision step from incrementally-maintained session arrays instead of
    materializing ``n`` frozen :class:`QueryRuntimeInfo` objects; the
    featurizer consumes the columns directly (:meth:`RunStateFeaturizer.
    featurize_arrays`) with zero per-query Python work.

    The class duck-types the read API of :class:`SchedulingSnapshot`
    (``time`` / ``infos`` / ``pending_ids`` / ``running_ids`` / …), so
    schedulers, policies and tests written against the AoS snapshot work
    unchanged — the object-level view is built lazily and cached on first
    access.  Array columns use the observable status codes of
    ``_STATUS_ORDER`` (0 = pending, 1 = running, 2 = finished).
    """

    __slots__ = (
        "time",
        "status",
        "config_index",
        "elapsed",
        "expected_time",
        "available",
        "time_to_available",
        "attempts",
        "instance_context_array",
        "instance_health_array",
        "priority",
        "deadline_slack",
        "_infos",
        "_pending_ids",
        "_unarrived_ids",
        "_running_ids",
        "_finished_ids",
        "_snapshot",
    )

    def __init__(
        self,
        time: float,
        status: np.ndarray,
        config_index: np.ndarray,
        elapsed: np.ndarray,
        expected_time: np.ndarray,
        available: np.ndarray,
        time_to_available: np.ndarray,
        attempts: np.ndarray,
        instance_context_array: np.ndarray | None = None,
        instance_health_array: np.ndarray | None = None,
        priority: float = 0.0,
        deadline_slack: float = 0.0,
    ) -> None:
        self.time = time
        self.status = status
        self.config_index = config_index
        self.elapsed = elapsed
        self.expected_time = expected_time
        self.available = available
        self.time_to_available = time_to_available
        self.attempts = attempts
        self.instance_context_array = instance_context_array
        self.instance_health_array = instance_health_array
        self.priority = priority
        self.deadline_slack = deadline_slack
        self._infos: tuple[QueryRuntimeInfo, ...] | None = None
        self._pending_ids: list[int] | None = None
        self._unarrived_ids: list[int] | None = None
        self._running_ids: list[int] | None = None
        self._finished_ids: list[int] | None = None
        self._snapshot: SchedulingSnapshot | None = None

    # ------------------------------------------------------------------ #
    # SchedulingSnapshot read API (lazy, cached)
    # ------------------------------------------------------------------ #
    @property
    def num_queries(self) -> int:
        return int(self.status.shape[0])

    @property
    def infos(self) -> tuple[QueryRuntimeInfo, ...]:
        if self._infos is None:
            self._infos = tuple(
                QueryRuntimeInfo(
                    query_id=i,
                    status=_STATUS_FROM_CODE[code],
                    config_index=int(self.config_index[i]),
                    elapsed=float(self.elapsed[i]),
                    expected_time=float(self.expected_time[i]),
                    available=bool(self.available[i]),
                    time_to_available=float(self.time_to_available[i]),
                    attempts=int(self.attempts[i]),
                )
                for i, code in enumerate(self.status.tolist())
            )
        return self._infos

    @property
    def instance_context(self) -> tuple[tuple[float, ...], ...]:
        if self.instance_context_array is None:
            return ()
        return tuple(tuple(row) for row in self.instance_context_array.tolist())

    @property
    def instance_health(self) -> tuple[bool, ...]:
        if self.instance_health_array is None:
            return ()
        return tuple(bool(flag) for flag in self.instance_health_array.tolist())

    def ids_with_status(self, status: QueryStatus) -> list[int]:
        code = _STATUS_ORDER[status]
        result: list[int] = np.nonzero(self.status == code)[0].tolist()
        return result

    @property
    def pending_ids(self) -> list[int]:
        if self._pending_ids is None:
            self._pending_ids = np.nonzero((self.status == 0) & self.available)[0].tolist()
        return self._pending_ids

    @property
    def unarrived_ids(self) -> list[int]:
        if self._unarrived_ids is None:
            self._unarrived_ids = np.nonzero(~self.available)[0].tolist()
        return self._unarrived_ids

    @property
    def running_ids(self) -> list[int]:
        if self._running_ids is None:
            self._running_ids = np.nonzero(self.status == 1)[0].tolist()
        return self._running_ids

    @property
    def finished_ids(self) -> list[int]:
        if self._finished_ids is None:
            self._finished_ids = np.nonzero(self.status == 2)[0].tolist()
        return self._finished_ids

    def to_snapshot(self) -> SchedulingSnapshot:
        """The equivalent AoS :class:`SchedulingSnapshot` (built once, cached)."""
        if self._snapshot is None:
            self._snapshot = SchedulingSnapshot(
                time=self.time,
                infos=self.infos,
                instance_context=self.instance_context,
                instance_health=self.instance_health,
                priority=self.priority,
                deadline_slack=self.deadline_slack,
            )
        return self._snapshot


class RunStateFeaturizer:
    """Encodes :class:`QueryRuntimeInfo` into the dense feature vector ``f_i``.

    Layout: status one-hot (3) ‖ configuration one-hot (``num_configs``) ‖
    normalised elapsed time ‖ normalised expected execution time
    [‖ normalised time-to-arrival].

    The optional arrival channel (``arrival_channel=True``) supports the
    streaming scenario, where the pending set grows as queries arrive: the
    extra entry is ``tanh(time_to_available / time_scale)`` — zero for every
    query that is already available, so closed batches are unaffected.  It is
    off by default to keep the feature layout (and trained policies)
    bit-compatible with the paper's closed-batch encoder.

    The optional instance-context channel (``instance_context_dim > 0``)
    supports cluster scheduling: the snapshot's flattened per-instance
    context rows (load, buffer warmth, profile speed) are appended to every
    query token, so the batch-level attention sees placement state alongside
    query state.  In cluster mode the (instance, configuration) pair is
    one-hot encoded jointly through ``num_configs = instances * configs``,
    which degenerates to the paper's layout at one instance.

    The optional SLO channel (``slo_channel=True``) supports control-plane
    serving with tenant classes: two extra entries broadcast the observing
    tenant's ``tanh(priority / 4.0)`` and ``tanh(deadline_slack /
    time_scale)`` to every query token, letting one shared policy condition
    on which service tier it is scheduling for and how much deadline head
    room is left.  Like the other channels it is off by default, keeping the
    layout bit-compatible with classless policies.
    """

    def __init__(
        self,
        num_configs: int,
        time_scale: float = 10.0,
        arrival_channel: bool = False,
        instance_context_dim: int = 0,
        failure_channel: bool = False,
        slo_channel: bool = False,
    ) -> None:
        if num_configs < 1:
            raise SchedulingError("num_configs must be >= 1")
        if time_scale <= 0:
            raise SchedulingError("time_scale must be positive")
        if instance_context_dim < 0:
            raise SchedulingError("instance_context_dim must be >= 0")
        self.num_configs = num_configs
        self.time_scale = time_scale
        self.arrival_channel = arrival_channel
        self.instance_context_dim = instance_context_dim
        self.failure_channel = failure_channel
        self.slo_channel = slo_channel

    @property
    def feature_dim(self) -> int:
        return (
            3
            + self.num_configs
            + 2
            + (1 if self.arrival_channel else 0)
            + (1 if self.failure_channel else 0)
            + (2 if self.slo_channel else 0)
            + self.instance_context_dim
        )

    @property
    def _failure_slot(self) -> int:
        """Column of the failure channel (valid only when enabled)."""
        return 3 + self.num_configs + 2 + (1 if self.arrival_channel else 0)

    @property
    def _slo_slot(self) -> int:
        """First column of the SLO channel pair (valid only when enabled)."""
        return self._failure_slot + (1 if self.failure_channel else 0)

    def featurize(self, info: QueryRuntimeInfo) -> np.ndarray:
        vector = np.zeros(self.feature_dim, dtype=np.float64)
        vector[_STATUS_ORDER[info.status]] = 1.0
        if info.config_index >= 0:
            if info.config_index >= self.num_configs:
                raise SchedulingError(
                    f"config index {info.config_index} out of range (num_configs={self.num_configs})"
                )
            vector[3 + info.config_index] = 1.0
        vector[3 + self.num_configs] = np.tanh(info.elapsed / self.time_scale)
        vector[3 + self.num_configs + 1] = np.tanh(info.expected_time / self.time_scale)
        if self.arrival_channel:
            vector[3 + self.num_configs + 2] = np.tanh(info.time_to_available / self.time_scale)
        if self.failure_channel:
            vector[self._failure_slot] = np.tanh(info.attempts / 3.0)
        # Instance-context and SLO slots stay zero here: the per-info
        # featurizer has no snapshot to read them from (featurize_snapshot
        # fills them in).
        return vector

    def _context_row(self, snapshot: SchedulingSnapshot) -> np.ndarray:
        """Flattened instance-context row shared by every query token."""
        row = np.zeros(self.instance_context_dim, dtype=np.float64)
        if snapshot.instance_context:
            flat = np.concatenate([np.asarray(entry, dtype=np.float64) for entry in snapshot.instance_context])
            if flat.shape[0] != self.instance_context_dim:
                raise SchedulingError(
                    f"snapshot instance context has {flat.shape[0]} entries, "
                    f"featurizer expects {self.instance_context_dim}"
                )
            row = flat
        return row

    def featurize_snapshot(self, snapshot: "SchedulingSnapshot | SnapshotArrays") -> np.ndarray:
        """Return the ``(n, feature_dim)`` matrix of running-state features.

        Vectorized over the whole snapshot (one array op per feature channel
        instead of one Python call per query); produces bit-identical rows to
        :meth:`featurize`.  :class:`SnapshotArrays` snapshots dispatch to the
        zero-extraction :meth:`featurize_arrays` fast path.
        """
        if isinstance(snapshot, SnapshotArrays):
            return self.featurize_arrays(snapshot)
        infos = snapshot.infos
        n = len(infos)
        features = np.zeros((n, self.feature_dim), dtype=np.float64)
        status_index = np.fromiter((_STATUS_ORDER[info.status] for info in infos), dtype=np.int64, count=n)
        features[np.arange(n), status_index] = 1.0
        config_index = np.fromiter((info.config_index for info in infos), dtype=np.int64, count=n)
        if (config_index >= self.num_configs).any():
            bad = int(config_index[config_index >= self.num_configs][0])
            raise SchedulingError(f"config index {bad} out of range (num_configs={self.num_configs})")
        has_config = config_index >= 0
        features[np.nonzero(has_config)[0], 3 + config_index[has_config]] = 1.0
        elapsed = np.fromiter((info.elapsed for info in infos), dtype=np.float64, count=n)
        expected = np.fromiter((info.expected_time for info in infos), dtype=np.float64, count=n)
        features[:, 3 + self.num_configs] = np.tanh(elapsed / self.time_scale)
        features[:, 3 + self.num_configs + 1] = np.tanh(expected / self.time_scale)
        if self.arrival_channel:
            to_available = np.fromiter((info.time_to_available for info in infos), dtype=np.float64, count=n)
            features[:, 3 + self.num_configs + 2] = np.tanh(to_available / self.time_scale)
        if self.failure_channel:
            attempts = np.fromiter((info.attempts for info in infos), dtype=np.float64, count=n)
            features[:, self._failure_slot] = np.tanh(attempts / 3.0)
        if self.slo_channel:
            features[:, self._slo_slot] = np.tanh(getattr(snapshot, "priority", 0.0) / 4.0)
            features[:, self._slo_slot + 1] = np.tanh(
                getattr(snapshot, "deadline_slack", 0.0) / self.time_scale
            )
        if self.instance_context_dim:
            features[:, self.feature_dim - self.instance_context_dim :] = self._context_row(snapshot)
        return features

    def featurize_arrays(self, arrays: SnapshotArrays, out: "np.ndarray | None" = None) -> np.ndarray:
        """Vectorized featurization straight from :class:`SnapshotArrays`.

        No per-query extraction at all: every feature channel is one array op
        over the incrementally-maintained session columns.  Bit-identical to
        :meth:`featurize_snapshot` on the equivalent AoS snapshot (the same
        float64 ops run on the same values).  ``out``, when given, must be a
        float64 ``(n, feature_dim)`` buffer; it is zeroed and filled in place
        so batched callers can featurize straight into a stacked tensor.
        """
        n = arrays.num_queries
        if out is None:
            features = np.zeros((n, self.feature_dim), dtype=np.float64)
        else:
            features = out
            features[:] = 0.0
        features[np.arange(n), arrays.status.astype(np.int64, copy=False)] = 1.0
        config_index = arrays.config_index
        if (config_index >= self.num_configs).any():
            bad = int(config_index[config_index >= self.num_configs][0])
            raise SchedulingError(f"config index {bad} out of range (num_configs={self.num_configs})")
        has_config = config_index >= 0
        features[np.nonzero(has_config)[0], 3 + config_index[has_config]] = 1.0
        features[:, 3 + self.num_configs] = np.tanh(arrays.elapsed / self.time_scale)
        features[:, 3 + self.num_configs + 1] = np.tanh(arrays.expected_time / self.time_scale)
        if self.arrival_channel:
            features[:, 3 + self.num_configs + 2] = np.tanh(arrays.time_to_available / self.time_scale)
        if self.failure_channel:
            attempts = arrays.attempts.astype(np.float64, copy=False)
            features[:, self._failure_slot] = np.tanh(attempts / 3.0)
        if self.slo_channel:
            features[:, self._slo_slot] = np.tanh(arrays.priority / 4.0)
            features[:, self._slo_slot + 1] = np.tanh(arrays.deadline_slack / self.time_scale)
        if self.instance_context_dim:
            context = arrays.instance_context_array
            row = np.zeros(self.instance_context_dim, dtype=np.float64)
            if context is not None and context.size:
                flat = np.ascontiguousarray(context, dtype=np.float64).reshape(-1)
                if flat.shape[0] != self.instance_context_dim:
                    raise SchedulingError(
                        f"snapshot instance context has {flat.shape[0]} entries, "
                        f"featurizer expects {self.instance_context_dim}"
                    )
                row = flat
            features[:, self.feature_dim - self.instance_context_dim :] = row
        return features

    def featurize_arrays_stack(self, stack: "list[SnapshotArrays]", out: np.ndarray) -> np.ndarray:
        """Featurize a whole stack of :class:`SnapshotArrays` in one pass.

        ``out`` is a float64 ``(len(stack), n, feature_dim)`` buffer.  Every
        channel runs one array op over the ``(batch, n)`` stack instead of
        one per snapshot; each plane is bit-identical to
        :meth:`featurize_arrays` on the corresponding snapshot (the same
        elementwise ufuncs on the same values, just stacked).
        """
        batch = len(stack)
        out[:] = 0.0
        rows = np.arange(batch)[:, None]
        cols = np.arange(stack[0].num_queries)[None, :]
        status = np.stack([arrays.status for arrays in stack]).astype(np.int64, copy=False)
        out[rows, cols, status] = 1.0
        config_index = np.stack([arrays.config_index for arrays in stack])
        if (config_index >= self.num_configs).any():
            bad = int(config_index[config_index >= self.num_configs][0])
            raise SchedulingError(f"config index {bad} out of range (num_configs={self.num_configs})")
        has_config = config_index >= 0
        bi, qi = np.nonzero(has_config)
        out[bi, qi, 3 + config_index[bi, qi]] = 1.0
        elapsed = np.stack([arrays.elapsed for arrays in stack])
        expected = np.stack([arrays.expected_time for arrays in stack])
        out[:, :, 3 + self.num_configs] = np.tanh(elapsed / self.time_scale)
        out[:, :, 3 + self.num_configs + 1] = np.tanh(expected / self.time_scale)
        if self.arrival_channel:
            to_available = np.stack([arrays.time_to_available for arrays in stack])
            out[:, :, 3 + self.num_configs + 2] = np.tanh(to_available / self.time_scale)
        if self.failure_channel:
            attempts = np.stack([arrays.attempts for arrays in stack]).astype(np.float64, copy=False)
            out[:, :, self._failure_slot] = np.tanh(attempts / 3.0)
        if self.slo_channel:
            priority = np.array([arrays.priority for arrays in stack], dtype=np.float64)
            slack = np.array([arrays.deadline_slack for arrays in stack], dtype=np.float64)
            out[:, :, self._slo_slot] = np.tanh(priority / 4.0)[:, None]
            out[:, :, self._slo_slot + 1] = np.tanh(slack / self.time_scale)[:, None]
        if self.instance_context_dim:
            offset = self.feature_dim - self.instance_context_dim
            for index, arrays in enumerate(stack):
                context = arrays.instance_context_array
                if context is not None and context.size:
                    flat = np.ascontiguousarray(context, dtype=np.float64).reshape(-1)
                    if flat.shape[0] != self.instance_context_dim:
                        raise SchedulingError(
                            f"snapshot instance context has {flat.shape[0]} entries, "
                            f"featurizer expects {self.instance_context_dim}"
                        )
                    out[index, :, offset:] = flat
        return out
