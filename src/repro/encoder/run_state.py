"""Running-state features and the scheduler-visible state snapshot.

The non-intrusive scheduler observes, for every query in the batch, only its
execution status (pending / running / finished), the running parameters it
was submitted with, how long it has been running, and the average execution
time extracted from logs.  These are the features ``f_i`` of Section III-A.

The scheduler sees that state as one :class:`SnapshotArrays` (a column per
field) and :class:`RunStateFeaturizer` turns a stack of them into feature
rows.  :class:`QueryRuntimeInfo` / :class:`SchedulingSnapshot` are the
object-per-query debug view of the same state (``SnapshotArrays.infos`` /
``.to_snapshot()``).
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
    """Object-per-query debug view of one :class:`SnapshotArrays`.

    ``infos`` is aligned with the batch query ids (index ``i`` describes
    query ``i``).

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


#: Status of each observable code (0 = pending, 1 = running, 2 = finished).
_STATUS_FROM_CODE = (QueryStatus.PENDING, QueryStatus.RUNNING, QueryStatus.FINISHED)


class SnapshotArrays:
    """The observable state at one decision instant, one array per field.

    The environment builds one of these per decision step from the session's
    incrementally-maintained columns, and the featurizer consumes the
    columns directly (:meth:`RunStateFeaturizer.featurize_arrays_stack`)
    with zero per-query Python work.

    It also carries the read API of :class:`SchedulingSnapshot` (``time`` /
    ``infos`` / ``pending_ids`` / ``running_ids`` / …); the object-level
    view is built lazily and cached on first access.  ``status`` holds the
    observable codes of ``_STATUS_FROM_CODE`` (0 = pending, 1 = running,
    2 = finished).
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
        """The object-per-query :class:`SchedulingSnapshot` view (built once, cached)."""
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


def _column(stack: "list[SnapshotArrays]", name: str) -> np.ndarray:
    """Column ``name`` of a stack as one ``(batch * n,)`` vector, snapshot-major.

    A stack of one is its snapshot's own array, so the decision path's single
    snapshot pays for no gather copy.
    """
    if len(stack) == 1:
        return getattr(stack[0], name)
    return np.concatenate([getattr(arrays, name) for arrays in stack])


class RunStateFeaturizer:
    """Encodes a stack of :class:`SnapshotArrays` into the dense feature rows ``f_i``.

    Layout: status one-hot (3) ‖ configuration one-hot (``num_configs``) ‖
    normalised elapsed time ‖ normalised expected execution time
    [‖ arrival] [‖ failure] [‖ SLO pair] [‖ instance context]; ``layout``
    maps each switched-on channel to its first column.

    The optional arrival channel (``arrival_channel=True``) supports the
    streaming scenario, where the pending set grows as queries arrive: the
    extra entry is ``tanh(time_to_available / time_scale)`` — zero for every
    query that is already available, so closed batches are unaffected.  It is
    off by default to keep the feature layout (and trained policies)
    bit-compatible with the paper's closed-batch encoder.

    The optional failure channel (``failure_channel=True``) carries
    ``tanh(attempts / 3)``, the query's failed attempts so far.

    The optional SLO channel (``slo_channel=True``) supports control-plane
    serving with tenant classes: two extra entries broadcast the observing
    tenant's ``tanh(priority / 4.0)`` and ``tanh(deadline_slack /
    time_scale)`` to every query token, letting one shared policy condition
    on which service tier it is scheduling for and how much deadline head
    room is left.

    The optional instance-context channel (``instance_context_dim > 0``)
    supports cluster scheduling: the snapshot's flattened per-instance
    context rows (load, buffer warmth, profile speed) are appended to every
    query token, so the batch-level attention sees placement state alongside
    query state; a snapshot without context leaves them zero.  In cluster
    mode the (instance, configuration) pair is one-hot encoded jointly
    through ``num_configs = instances * configs``, which degenerates to the
    paper's layout at one instance.
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
        widths = {
            "status": 3,
            "config": num_configs,
            "elapsed": 1,
            "expected": 1,
            "arrival": int(arrival_channel),
            "failure": int(failure_channel),
            "slo": 2 * int(slo_channel),
            "context": instance_context_dim,
        }
        #: First column of every switched-on channel, in layout order.
        self.layout: dict[str, int] = {}
        self.feature_dim = 0
        for channel, width in widths.items():
            if width:
                self.layout[channel] = self.feature_dim
                self.feature_dim += width
        #: ``arange`` over the rows of the last stack featurized, reused while the size repeats.
        self._row_index = np.arange(0)

    def featurize_arrays_stack(
        self, stack: "list[SnapshotArrays]", out: "np.ndarray | None" = None
    ) -> np.ndarray:
        """The float64 ``(len(stack), n, feature_dim)`` running-state features of a stack.

        Every per-query channel is one array op over the stack's columns
        (:func:`_column`), so a stack of one is the single-snapshot case.  The
        SLO pair and the instance context are written per snapshot.  ``out``,
        when given, is a C-contiguous float64 buffer of that shape; it is
        zeroed and filled in place.
        """
        batch, num_queries = len(stack), stack[0].num_queries
        if out is None:
            out = np.zeros((batch, num_queries, self.feature_dim), dtype=np.float64)
        elif not out.flags.c_contiguous:
            raise ValueError("out must be a C-contiguous buffer")
        else:
            out.fill(0.0)
        layout, scale = self.layout, self.time_scale
        # One row per (snapshot, query): every channel is one op over the stack.
        rows = out.reshape(batch * num_queries, self.feature_dim)
        if self._row_index.shape[0] != rows.shape[0]:
            self._row_index = np.arange(rows.shape[0])
        rows[self._row_index, _column(stack, "status")] = 1.0
        config_index = _column(stack, "config_index")
        if config_index.max(initial=-1) >= self.num_configs:
            bad = int(config_index[config_index >= self.num_configs][0])
            raise SchedulingError(f"config index {bad} out of range (num_configs={self.num_configs})")
        has_config = config_index >= 0
        rows[np.nonzero(has_config)[0], layout["config"] + config_index[has_config]] = 1.0
        rows[:, layout["elapsed"]] = np.tanh(_column(stack, "elapsed") / scale)
        rows[:, layout["expected"]] = np.tanh(_column(stack, "expected_time") / scale)
        if self.arrival_channel:
            rows[:, layout["arrival"]] = np.tanh(_column(stack, "time_to_available") / scale)
        if self.failure_channel:
            rows[:, layout["failure"]] = np.tanh(_column(stack, "attempts") / 3.0)
        # The SLO pair and the instance context are shared by a snapshot's queries.
        if self.slo_channel or self.instance_context_dim:
            for index, arrays in enumerate(stack):
                plane = out[index]
                if self.slo_channel:
                    plane[:, layout["slo"]] = np.tanh(arrays.priority / 4.0)
                    plane[:, layout["slo"] + 1] = np.tanh(arrays.deadline_slack / scale)
                context = arrays.instance_context_array
                if self.instance_context_dim and context is not None and context.size:
                    if context.size != self.instance_context_dim:
                        raise SchedulingError(
                            f"snapshot instance context has {context.size} entries, "
                            f"featurizer expects {self.instance_context_dim}"
                        )
                    plane[:, layout["context"] :] = context.reshape(-1)
        return out

    def featurize_arrays(self, arrays: SnapshotArrays) -> np.ndarray:
        """One snapshot's ``(n, feature_dim)`` features: plane 0 of a stack of one.

        Nothing in the library calls it; it and its alias ``featurize_snapshot``
        remain as names that ``benchmarks/ledger/spans.py`` wraps.
        """
        return self.featurize_arrays_stack([arrays])[0]

    featurize_snapshot = featurize_arrays
