"""Physical plan trees.

A :class:`PhysicalPlan` is the non-intrusive scheduler's only view of a
query's internals: the paper obtains it from ``EXPLAIN`` output, we obtain it
from the synthetic plan builder.  The tree exposes everything QueryFormer
needs (operators, tables, predicates, joins, cardinalities, structure) and
everything the DBMS substrate needs (per-node CPU / I/O / memory work).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from ..exceptions import WorkloadError
from .operators import JOIN_OPERATORS, OPERATOR_PROFILES, Operator, SCAN_OPERATORS

__all__ = ["Predicate", "PlanNode", "PhysicalPlan"]


@dataclass(frozen=True)
class Predicate:
    """A simplified scan/join predicate.

    ``column`` is an integer column id within the table, ``selectivity`` the
    estimated fraction of rows passing the predicate, and ``uses_index``
    whether an index supports it (index reuse is one source of sharing
    between queries touching the same table).
    """

    column: int
    selectivity: float
    uses_index: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.selectivity <= 1.0:
            raise WorkloadError(f"predicate selectivity must be in (0, 1], got {self.selectivity}")


@dataclass
class PlanNode:
    """One operator node in a physical plan tree."""

    operator: Operator
    children: list["PlanNode"] = field(default_factory=list)
    table: str | None = None
    predicates: tuple[Predicate, ...] = ()
    estimated_rows: float = 1.0
    node_id: int = -1

    def __post_init__(self) -> None:
        if self.estimated_rows <= 0:
            raise WorkloadError(f"estimated_rows must be positive, got {self.estimated_rows}")
        if self.operator in SCAN_OPERATORS and self.table is None:
            raise WorkloadError(f"scan operator {self.operator} requires a table")

    @property
    def is_scan(self) -> bool:
        return self.operator in SCAN_OPERATORS

    @property
    def is_join(self) -> bool:
        return self.operator in JOIN_OPERATORS

    def cpu_work(self) -> float:
        """CPU work contributed by this node (profile weight x cardinality)."""
        return OPERATOR_PROFILES[self.operator].cpu_per_row * self.estimated_rows

    def io_work(self) -> float:
        """I/O work contributed by this node."""
        return OPERATOR_PROFILES[self.operator].io_per_row * self.estimated_rows


class PhysicalPlan:
    """An immutable physical plan tree with cached structural metadata."""

    def __init__(self, root: PlanNode) -> None:
        self.root = root
        self._nodes: list[PlanNode] = []
        self._parents: dict[int, int] = {}
        self._heights: dict[int, int] = {}
        self._assign_ids()

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    def _assign_ids(self) -> None:
        """Number nodes in pre-order and record parent / height metadata."""
        stack: list[tuple[PlanNode, int, int]] = [(self.root, -1, 0)]
        while stack:
            node, parent_id, depth = stack.pop()
            node.node_id = len(self._nodes)
            self._nodes.append(node)
            if parent_id >= 0:
                self._parents[node.node_id] = parent_id
            self._heights[node.node_id] = depth
            for child in reversed(node.children):
                stack.append((child, node.node_id, depth + 1))

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def height(self) -> int:
        """Maximum node depth (root has depth 0)."""
        return max(self._heights.values())

    def nodes(self) -> Iterator[PlanNode]:
        """Iterate nodes in pre-order."""
        return iter(self._nodes)

    def depth_of(self, node_id: int) -> int:
        return self._heights[node_id]

    def tree_distances(self) -> np.ndarray:
        """All-pairs path lengths along tree edges: ``depth(i) + depth(j) - 2 depth(lca(i, j))``.

        Pre-order ids put every parent before its children, so one pass
        builds each node's ancestor-or-self row from its parent's; two nodes
        share ``depth(lca) + 1`` of them.  The counts are small integers, so
        the float64 arithmetic is exact.
        """
        n = self.num_nodes
        ancestors = np.zeros((n, n))
        for node_id in range(n):
            parent_id = self._parents.get(node_id)
            if parent_id is not None:
                ancestors[node_id] = ancestors[parent_id]
            ancestors[node_id, node_id] = 1.0
        path_lengths = ancestors.sum(axis=1)
        return path_lengths[:, None] + path_lengths[None, :] - 2.0 * (ancestors @ ancestors.T)

    # ------------------------------------------------------------------ #
    # Semantics used by the DBMS substrate and featuriser
    # ------------------------------------------------------------------ #
    def tables(self) -> dict[str, float]:
        """Tables accessed by the plan mapped to the rows scanned from each."""
        usage: dict[str, float] = {}
        for node in self._nodes:
            if node.is_scan and node.table is not None:
                usage[node.table] = usage.get(node.table, 0.0) + node.estimated_rows
        return usage

    def total_cpu_work(self) -> float:
        return sum(node.cpu_work() for node in self._nodes)

    def total_io_work(self) -> float:
        return sum(node.io_work() for node in self._nodes)

    def parallel_fraction(self) -> float:
        """Work-weighted fraction of the plan that parallel workers can speed up."""
        total = 0.0
        parallel = 0.0
        for node in self._nodes:
            work = node.cpu_work() + node.io_work()
            total += work
            parallel += work * OPERATOR_PROFILES[node.operator].parallel_fraction
        return parallel / total if total > 0 else 0.0

    def memory_sensitivity(self) -> float:
        """Fraction of total work in memory-hungry operators (sorts, hashes)."""
        total = self.total_cpu_work() + self.total_io_work()
        if total <= 0:
            return 0.0
        hungry = sum(
            node.cpu_work()
            for node in self._nodes
            if OPERATOR_PROFILES[node.operator].memory_per_row >= 0.5
        )
        return min(1.0, hungry / total)

    def num_joins(self) -> int:
        return sum(1 for node in self._nodes if node.is_join)

    def num_scans(self) -> int:
        return sum(1 for node in self._nodes if node.is_scan)

    def __repr__(self) -> str:
        return (
            f"PhysicalPlan(nodes={self.num_nodes}, height={self.height}, "
            f"joins={self.num_joins()}, scans={self.num_scans()})"
        )
