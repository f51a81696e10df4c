"""Scheduling-gain based query clustering (Section IV-B).

With hundreds of batch queries the scheduling space explodes; BQSched groups
queries with high mutual scheduling gain into clusters using average-linkage
agglomerative clustering over the gain matrix, and the RL scheduler then
picks *clusters* instead of individual queries.  Inside a cluster, queries
are submitted back-to-back (ordered by a simple heuristic), which is safe
precisely because intra-cluster gains are high.
"""

from __future__ import annotations

import numpy as np
from scipy.cluster.hierarchy import fcluster, linkage
from scipy.spatial.distance import squareform

from ..exceptions import SchedulingError
from ..workloads import BatchQuerySet
from .knowledge import ExternalKnowledge

__all__ = ["QueryClusters", "cluster_queries"]


class QueryClusters:
    """Cluster assignment plus the intra-cluster submission order."""

    def __init__(self, assignments: np.ndarray, intra_orders: list[list[int]]) -> None:
        if len(intra_orders) == 0:
            raise SchedulingError("clustering produced no clusters")
        self.assignments = np.asarray(assignments, dtype=np.int64)
        self._members = [list(order) for order in intra_orders]
        #: ``(num_clusters, n)`` boolean membership matrix (cluster pooling).
        self.membership = np.zeros((len(self._members), len(self.assignments)), dtype=bool)
        for cluster_id, members in enumerate(self._members):
            self.membership[cluster_id, members] = True
        self._sizes = self.membership.sum(axis=1)

    @property
    def num_clusters(self) -> int:
        return len(self._members)

    def members(self, cluster_id: int) -> list[int]:
        """Query ids belonging to ``cluster_id`` (in intra-cluster order)."""
        return list(self._members[cluster_id])

    def intra_order(self, cluster_id: int) -> list[int]:
        """Submission order of the cluster's queries."""
        return list(self._members[cluster_id])

    def cluster_of(self, query_id: int) -> int:
        return int(self.assignments[query_id])

    def sizes(self) -> list[int]:
        return [len(members) for members in self._members]

    def pending_flags(self, snapshots: list) -> np.ndarray:
        """The ``(batch, n)`` boolean pending column of each snapshot."""
        pending = np.zeros((len(snapshots), len(self.assignments)), dtype=bool)
        for row, snapshot in zip(pending, snapshots):
            row[snapshot.pending_ids] = True
        return pending

    def _live_members(self, pending: np.ndarray, dtype) -> tuple[np.ndarray, np.ndarray]:
        """``(batch, num_clusters, n)`` pooled-member flags and their per-cluster counts.

        ``pending`` is the ``(batch, n)`` boolean pending column of each
        snapshot.  A cluster pools its pending members when any remain and all
        of its members once fully drained, so its token stays well-defined.
        """
        live = self.membership[None, :, :] & pending[:, None, :]
        counts = live.sum(axis=2, dtype=dtype)
        drained_rows, drained_clusters = np.nonzero(counts == 0)
        live[drained_rows, drained_clusters] = self.membership[drained_clusters]
        counts[drained_rows, drained_clusters] = self._sizes[drained_clusters]
        return live, counts

    def pool(self, per_query: np.ndarray, pending: np.ndarray) -> np.ndarray:
        """Mean-pool member rows into cluster tokens, one batched GEMM.

        ``per_query`` is ``(batch, n, dim)``; returns ``(batch, num_clusters, dim)``.
        """
        live, counts = self._live_members(pending, per_query.dtype)
        pooled = live.astype(per_query.dtype) @ per_query
        pooled /= counts[:, :, None]
        return pooled

    def pool_weights(self, pending: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Fill ``out`` with the ``(batch, num_clusters, n)`` matrix whose GEMM is :meth:`pool`.

        Each row sums to one; the fused update kernels multiply by it going
        forward and by its transpose going back.
        """
        live, counts = self._live_members(pending, out.dtype)
        return np.divide(live, counts[:, :, None], out=out)

    def __repr__(self) -> str:
        return f"QueryClusters(num_clusters={self.num_clusters}, sizes={self.sizes()})"


def cluster_queries(
    batch: BatchQuerySet,
    gain_matrix: np.ndarray,
    num_clusters: int,
    knowledge: ExternalKnowledge | None = None,
    intra_cluster_order: str = "mcf",
) -> QueryClusters:
    """Agglomerative average-linkage clustering on the scheduling-gain matrix.

    The gain is a *similarity*; it is converted into a distance by
    subtracting from the maximum observed gain.  ``num_clusters`` trades
    scheduling granularity against training cost (Figure 8).
    """
    n = len(batch)
    if gain_matrix.shape != (n, n):
        raise SchedulingError(f"gain matrix shape {gain_matrix.shape} does not match batch size {n}")
    if not 1 <= num_clusters <= n:
        raise SchedulingError(f"num_clusters must be in [1, {n}], got {num_clusters}")

    if num_clusters == n:
        assignments = np.arange(n)
    else:
        symmetric = (gain_matrix + gain_matrix.T) / 2.0
        distance = symmetric.max() - symmetric
        np.fill_diagonal(distance, 0.0)
        condensed = squareform(distance, checks=False)
        tree = linkage(condensed, method="average")
        assignments = fcluster(tree, t=num_clusters, criterion="maxclust") - 1

    cluster_ids = sorted(set(int(c) for c in assignments))
    remap = {cluster: index for index, cluster in enumerate(cluster_ids)}
    assignments = np.array([remap[int(c)] for c in assignments], dtype=np.int64)

    members: list[list[int]] = [[] for _ in range(len(cluster_ids))]
    for query in batch:
        members[assignments[query.query_id]].append(query.query_id)

    intra_orders = []
    for cluster_members in members:
        ordered = _order_members(cluster_members, knowledge, intra_cluster_order)
        intra_orders.append(ordered)
    return QueryClusters(assignments=assignments, intra_orders=intra_orders)


def _order_members(members: list[int], knowledge: ExternalKnowledge | None, order: str) -> list[int]:
    if order == "fifo" or knowledge is None:
        return sorted(members)
    if order == "mcf":
        return sorted(members, key=lambda qid: knowledge.average_time(qid), reverse=True)
    raise SchedulingError(f"unknown intra-cluster order {order!r}")
