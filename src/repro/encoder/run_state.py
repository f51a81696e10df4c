"""Running-state features and the scheduler-visible state snapshot.

The non-intrusive scheduler observes, for every query in the batch, only its
execution status (pending / running / finished), the running parameters it
was submitted with, how long it has been running, and the average execution
time extracted from logs.  These are the features ``f_i`` of Section III-A.

The scheduler sees that state as one :class:`SnapshotArrays` (a column per
field, plus the fleet's instance context) and :class:`RunStateFeaturizer`
turns a stack of them into feature rows.  ``tests/snapshot_oracle.py`` holds
the object-per-query reference view that both are checked against.
"""

from __future__ import annotations

import numpy as np

from ..config import TIME_SCALE
from ..exceptions import SchedulingError

__all__ = ["SnapshotArrays", "RunStateFeaturizer"]


class SnapshotArrays:
    """The observable state at one decision instant, one array per field.

    The environment builds one of these per decision step from the session's
    incrementally-maintained columns, and the featurizer consumes the
    columns directly (:meth:`RunStateFeaturizer.featurize_arrays_stack`)
    with zero per-query Python work.  ``status`` holds the observable codes
    (0 = pending, 1 = running, 2 = finished); ``available`` is False for a
    pending query that has not arrived yet (or awaits its retry), which the
    action mask excludes.  ``instance_context_array`` is the fleet's
    ``(instances, INSTANCE_FEATURE_DIM)`` context, or ``None`` off a fleet.
    """

    __slots__ = (
        "time",
        "status",
        "config_index",
        "elapsed",
        "expected_time",
        "available",
        "instance_context_array",
        "_pending_ids",
        "_unarrived_ids",
        "_running_ids",
    )

    def __init__(
        self,
        time: float,
        status: np.ndarray,
        config_index: np.ndarray,
        elapsed: np.ndarray,
        expected_time: np.ndarray,
        available: np.ndarray,
        instance_context_array: np.ndarray | None = None,
    ) -> None:
        self.time = time
        self.status = status
        self.config_index = config_index
        self.elapsed = elapsed
        self.expected_time = expected_time
        self.available = available
        self.instance_context_array = instance_context_array
        self._pending_ids: list[int] | None = None
        self._unarrived_ids: list[int] | None = None
        self._running_ids: list[int] | None = None

    @property
    def num_queries(self) -> int:
        return int(self.status.shape[0])

    @property
    def pending_ids(self) -> list[int]:
        """Ids of queries that are pending *and* available for submission (cached)."""
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
    ``tanh(elapsed / TIME_SCALE)`` ‖ ``tanh(expected time / TIME_SCALE)``
    [‖ instance context]; ``layout`` maps each channel to its first column.

    The instance-context channel (``instance_context_dim > 0``) supports
    cluster scheduling: the snapshot's flattened per-instance context rows
    (load, buffer warmth, profile speed) are appended to every query token,
    so the batch-level attention sees placement state alongside query state;
    a snapshot without context leaves them zero.  In cluster mode the
    (instance, configuration) pair is one-hot encoded jointly through
    ``num_configs = instances * configs``, which degenerates to the paper's
    layout at one instance.
    """

    def __init__(self, num_configs: int, instance_context_dim: int = 0) -> None:
        if num_configs < 1:
            raise SchedulingError("num_configs must be >= 1")
        if instance_context_dim < 0:
            raise SchedulingError("instance_context_dim must be >= 0")
        self.num_configs = num_configs
        self.instance_context_dim = instance_context_dim
        #: First column of every channel, in layout order.
        self.layout: dict[str, int] = {
            "status": 0,
            "config": 3,
            "elapsed": 3 + num_configs,
            "expected": 4 + num_configs,
        }
        if instance_context_dim:
            self.layout["context"] = 5 + num_configs
        self.feature_dim = 5 + num_configs + instance_context_dim
        #: ``arange`` over the rows of the last stack featurized, reused while the size repeats.
        self._row_index = np.arange(0)

    def featurize_arrays_stack(self, stack: "list[SnapshotArrays]") -> np.ndarray:
        """The float64 ``(len(stack), n, feature_dim)`` running-state features of a stack.

        Every per-query channel is one array op over the stack's columns
        (:func:`_column`), so a stack of one is the single-snapshot case.  The
        instance context is written per snapshot.
        """
        batch, num_queries = len(stack), stack[0].num_queries
        out = np.zeros((batch, num_queries, self.feature_dim), dtype=np.float64)
        layout = self.layout
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
        rows[:, layout["elapsed"]] = np.tanh(_column(stack, "elapsed") / TIME_SCALE)
        rows[:, layout["expected"]] = np.tanh(_column(stack, "expected_time") / TIME_SCALE)
        # The instance context is shared by a snapshot's queries.
        if self.instance_context_dim:
            for plane, arrays in zip(out, stack):
                context = arrays.instance_context_array
                if context is not None and context.size:
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
