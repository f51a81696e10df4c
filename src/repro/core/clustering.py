"""Scheduling-gain based query clustering (Section IV-B).

With hundreds of batch queries the scheduling space explodes; BQSched groups
queries with high mutual scheduling gain into clusters using average-linkage
agglomerative clustering over the gain matrix, and the RL scheduler then
picks *clusters* instead of individual queries.  Inside a cluster, queries
are submitted back-to-back (ordered by a simple heuristic), which is safe
precisely because intra-cluster gains are high.

The linkage is an in-repo NumPy kernel, so NumPy is the package's only
run-time dependency: :func:`_average_linkage` merges the closest pair of the
dense distance matrix ``n - 1`` times (Lance-Williams update for ``average``)
and :func:`_cut` takes the lowest cut that leaves at most ``num_clusters``
clusters.  On tie-free input the labels *and their numbering* equal SciPy's
``fcluster(linkage(squareform(d), "average"), k, "maxclust") - 1``
(``tests/test_gain_clustering_simulator.py`` keeps SciPy as the oracle).  The
numbering matters: a cluster's label is its index in the policy's action
layout, so a relabelled partition would move every clustered run digest.
Under exact ties the first row-major minimum wins, where SciPy's answer
depends on its nearest-neighbour-chain order; the result is deterministic
and still a valid cut, but need not be SciPy's.
"""

from __future__ import annotations

import numpy as np

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
) -> QueryClusters:
    """Agglomerative average-linkage clustering on the scheduling-gain matrix.

    The gain is a *similarity*; it is converted into a distance by
    subtracting from the maximum observed gain.  ``num_clusters`` trades
    scheduling granularity against training cost (Figure 8).  Each cluster's
    members are ordered most-costly-first (MCF) by ``knowledge``'s average
    times, or by batch order without knowledge.
    """
    n = len(batch)
    if gain_matrix.shape != (n, n):
        raise SchedulingError(f"gain matrix shape {gain_matrix.shape} does not match batch size {n}")
    if not 1 <= num_clusters <= n:
        raise SchedulingError(f"num_clusters must be in [1, {n}], got {num_clusters}")
    finite = np.isfinite(gain_matrix)
    if not finite.all():
        i, j = (int(index) for index in np.argwhere(~finite)[0])
        raise SchedulingError(f"gain matrix is not finite: entry ({i}, {j}) is {gain_matrix[i, j]}")

    if num_clusters == n:
        assignments = np.arange(n)
    else:
        symmetric = (gain_matrix + gain_matrix.T) / 2.0
        distance = symmetric.max() - symmetric
        np.fill_diagonal(distance, 0.0)
        assignments = _cut(*_average_linkage(distance), num_clusters)

    # Either branch numbers the clusters 0..k-1 with none skipped.
    members: list[list[int]] = [[] for _ in range(int(assignments.max()) + 1)]
    for query in batch:
        members[assignments[query.query_id]].append(query.query_id)

    if knowledge is not None:
        members = [sorted(group, key=knowledge.average_time, reverse=True) for group in members]
    return QueryClusters(assignments=assignments, intra_orders=members)


def _average_linkage(distance: np.ndarray) -> tuple[list[tuple[int, int]], np.ndarray]:
    """Average-linkage tree of a symmetric distance matrix: ``(children, heights)``.

    Merge ``k`` (in ascending height) joins ``children[k]`` into cluster
    ``n + k``; leaves are ``0..n-1`` and the smaller id is the left child.
    """
    n = len(distance)
    dist = np.array(distance, dtype=np.float64)
    np.fill_diagonal(dist, np.inf)
    size = np.ones(n)
    pairs = []
    heights = np.empty(n - 1)
    for step in range(n - 1):
        # First row-major minimum of a symmetric matrix, so i < j; slot j
        # becomes the merged cluster and slot i is retired.  The infinite
        # diagonal keeps ``merged[i]`` and ``merged[j]`` infinite.
        i, j = divmod(int(dist.argmin()), n)
        pairs.append((i, j))
        heights[step] = dist[i, j]
        merged = (size[i] * dist[i] + size[j] * dist[j]) / (size[i] + size[j])
        dist[j] = dist[:, j] = merged
        dist[i] = dist[:, i] = np.inf
        size[j] += size[i]

    order = np.argsort(heights, kind="stable")
    parent = list(range(2 * n - 1))
    children = []
    for step, merge in enumerate(order.tolist()):
        roots = []
        for node in pairs[merge]:
            while parent[node] != node:
                node = parent[node]
            parent[node] = n + step
            roots.append(node)
        children.append((min(roots), max(roots)))
    return children, heights[order]


def _cut(children: list[tuple[int, int]], heights: np.ndarray, num_clusters: int) -> np.ndarray:
    """Labels ``0..k-1`` of the lowest cut with ``k <= num_clusters`` clusters.

    ``heights`` ascend and a merge never precedes its children, so the cut
    keeps exactly the merges at or below the ``(n - num_clusters)``-th height.
    Numbering follows SciPy's walk from the root: the first node at or below
    the cutoff leads a new cluster, internal children are descended left then
    right, and a node's leaf children are labelled only after both return.
    """
    n = len(children) + 1
    cutoff = heights[n - num_clusters - 1]
    labels = np.empty(n, dtype=np.int64)
    stack, visited = [2 * n - 2], set()
    count, leader = 0, -1
    while stack:
        node = stack[-1]
        if leader == -1 and heights[node - n] <= cutoff:
            leader = node
            count += 1
        pending = [child for child in children[node - n] if child >= n and child not in visited]
        if pending:
            visited.add(pending[0])
            stack.append(pending[0])
            continue
        for child in children[node - n]:
            if child < n:
                count += leader == -1  # a leaf under no leader is its own cluster
                labels[child] = count
        if leader == node:
            leader = -1
        stack.pop()
    return labels - 1
